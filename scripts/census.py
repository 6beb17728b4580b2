#!/usr/bin/env python3
"""Census of FI_n for small odd n: element counts, rank histograms, and the
sizes of the structurally interesting subsets (Par_n, J_n, the R_i classes).

Usage: python scripts/census.py [--sizes 3 5 7 9]
"""

import argparse

from fenceinj import enumerate_FI, parity_points, r_class


def census(n: int) -> None:
    universe = enumerate_FI(n)
    par = sum(1 for f in universe.members() if parity_points(f))
    j = sum(1 for f in universe.members() if f.rank >= n - 2)
    j_par = sum(1 for f in universe.members()
                if f.rank >= n - 2 and parity_points(f))
    print(f"n = {n}")
    print(f"  |FI_{n}|        = {len(universe)}")
    print(f"  rank histogram = {universe.rank_histogram}")
    print(f"  |Par_{n}|       = {par}")
    print(f"  |J_{n}|         = {j}   |J_{n} ∩ Par_{n}| = {j_par}")
    classes = [r_class(n, i, universe) for i in range(1, (n + 1) // 2 + 1)]
    sizes = ", ".join(f"|R_{c.i}|={len(c)}" for c in classes)
    print(f"  top classes    : {sizes}")
    print()


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--sizes", type=int, nargs="+", default=[3, 5, 7, 9])
    args = parser.parse_args()
    for n in args.sizes:
        census(n)


if __name__ == "__main__":
    main()
