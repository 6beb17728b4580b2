#!/usr/bin/env python3
"""How much of a top class R_i can a single adjoined element regenerate?

For each class R_i of rank-(n−1) elements, remove R_i from FI_n, adjoin one
element α ∈ R_i back, and count which members of R_i the enlarged set can
reach.  The counts stay well below |R_i| for the 16-element classes — the
computational heart of the minimal-generating-set lower bound.

Usage: python scripts/adjoin_sweep.py --n 9
"""

import argparse
from collections import Counter

from fenceinj import GeneratorSet, close, decode, enumerate_FI, r_class


def sweep(n: int) -> None:
    universe = enumerate_FI(n, workers=2)
    top = [int(c) for c in universe.codes_array[universe.ranks >= n - 1]]
    print(f"n = {n}: rank-≥(n−1) layer has {len(top)} elements")
    for i in range(1, (n + 1) // 2 + 1):
        cls = r_class(n, i, universe)
        in_class = set(cls.codes)
        outside = [c for c in top if c not in in_class]
        counts = Counter()
        for a in cls.codes:
            gens = GeneratorSet(n, tuple((str(c), decode(n, c))
                                         for c in outside + [a]))
            # products landing in R_i never pass below rank n−1
            reached = close(gens, min_rank=n - 1).members
            counts[len(reached & in_class)] += 1
        profile = ", ".join(f"{k} reachable ×{v}"
                            for k, v in sorted(counts.items()))
        print(f"  R_{i} (|R_{i}| = {len(cls)}): {profile}")
    print()


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n", type=int, nargs="+", default=[5, 7, 9])
    args = parser.parse_args()
    for n in args.n:
        sweep(n)


if __name__ == "__main__":
    main()
