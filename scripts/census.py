#!/usr/bin/env python3
"""Census of FI_n for small odd n: element counts, rank histograms, and the
sizes of the structurally interesting subsets (Par_n, J_n, the R_i classes).

Usage: python scripts/census.py [--sizes 3 5 7 9]
"""

import argparse

from fenceinj import enumerate_FI, parity_points, r_class


def census(n: int) -> None:
    universe = enumerate_FI(n)
    in_j = (universe.ranks >= n - 2).tolist()
    in_par = [bool(parity_points(f)) for f in universe.members()]
    par = sum(in_par)
    j = sum(in_j)
    j_par = sum(a and b for a, b in zip(in_j, in_par))
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
