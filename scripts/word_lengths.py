#!/usr/bin/env python3
"""Word-length profile of FI_n over the standard generating set G_n.

Closes G_n, prints how many elements first appear at each word length, the
mean witness length, and the hardest elements (those requiring the longest
words) with their witnesses.

Usage: python scripts/word_lengths.py --n 9 [--show 5]
"""

import argparse

from fenceinj import build_G, close, decode, format_map


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n", type=int, default=9)
    parser.add_argument("--show", type=int, default=5,
                        help="how many longest-word elements to print")
    args = parser.parse_args()

    gens = build_G(args.n)
    result = close(gens)
    print(f"closure of G_{args.n} ({len(gens)} generators): "
          f"{len(result)} elements in {result.stats.seconds:.2f}s")
    total = 0
    for length, count in enumerate(result.stats.level_sizes, start=1):
        total += length * count
        print(f"  length {length:2d}: {count:7d} elements")
    print(f"mean witness length: {total / len(result):.3f}")
    print()
    longest = [code for code, word in result.witness_items()
               if len(word) == result.max_word_length]
    print(f"{len(longest)} elements need the full {result.max_word_length} "
          f"letters; first {args.show}:")
    for code in longest[:args.show]:
        f = decode(args.n, code)
        print(f"  {format_map(f):>{2 * args.n}}  =  {result.witness(code)}")


if __name__ == "__main__":
    main()
