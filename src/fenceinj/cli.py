"""Command-line interface.

Five subcommands over the fence-automorphism toolkit:

* ``enumerate`` — exhaustive element census for small n, cached to disk
* ``closure``  — generated subsemigroup with minimal-length witness words
* ``factor``   — express one partial map as a product of named generators
* ``verify``   — run the claim registry and report pass/fail per claim
* ``rank``     — minimal generating set size with its evidence grade

Exit codes: 0 on success (including a clean "not generated" answer from
``factor``), 1 when ``verify`` finds a failing machine-verified claim, and
2 on usage errors (bad flags, malformed maps, out-of-range n, or a
``verify`` at a size where none of the claims it would run is designated).

Censuses and closures are cached under ``--cache-dir`` (default:
``$FENCEINJ_CACHE_DIR`` or ``./.fenceinj-cache``); the ``cache`` module names
the files, writes them atomically and rebuilds any entry it cannot trust.
``closure``, ``factor`` and ``verify`` take ``--workers``, which must be at
least 1 and has no effect: closures run in one thread.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from pathlib import Path
from typing import Sequence

from .analysis import (
    STATUS_SKIPPED,
    VerifyContext,
    claim_registry,
    rank_formula,
    rank_grade,
    run_verification,
)
from .cache import closure_path, load_closure, load_universe, universe_path
from .closure import NotGeneratedError, evaluate_word
from .fence import (
    MapFormatError,
    check_fence_size,
    encode,
    format_map,
    order_violation,
    parse_map,
)
from .generators import GeneratorSet, build_G, build_J
from .oracle import ENUMERATION_CAP, MODE_EXHAUSTIVE

USAGE_ERROR = 2
VERIFY_FAILED = 1


def _default_cache_dir() -> str:
    return os.environ.get("FENCEINJ_CACHE_DIR") or ".fenceinj-cache"


def worker_count(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _add_common(parser: argparse.ArgumentParser, *, workers: bool = True) -> None:
    parser.add_argument("--n", type=int, required=True,
                        help="fence size (odd)")
    parser.add_argument("--format", choices=("json", "table", "csv"),
                        default="table", help="output format")
    parser.add_argument("--cache-dir", default=_default_cache_dir(),
                        help="directory for cached censuses and closures")
    if workers:
        parser.add_argument("--workers", type=worker_count, default=1,
                            help="accepted for compatibility, no effect "
                                 "(must be at least 1)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fenceinj",
        description="partial automorphisms of an odd fence: enumeration, "
                    "closures, factorizations, and claim verification")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("enumerate",
                       help=f"census of all elements (n ≤ {ENUMERATION_CAP})")
    _add_common(p, workers=False)

    p = sub.add_parser("closure",
                       help="close a generating set, cache its witness tree")
    _add_common(p)
    p.add_argument("--gens", required=True,
                   help="generating set: G, J, or file:PATH")

    p = sub.add_parser("factor",
                       help="write a partial map as a product of generators")
    _add_common(p)
    p.add_argument("--gens", required=True,
                   help="generating set: G, J, or file:PATH")
    p.add_argument("--map", required=True, dest="map_text",
                   help='comma-separated images, _ for undefined: "2,_,_,4,5"')

    p = sub.add_parser("verify", help="run the machine-verification registry")
    _add_common(p)
    p.add_argument("--claims", default=None,
                   help="comma-separated claim ids (default: all); known ids: "
                        + ", ".join(c.claim_id for c in claim_registry()))

    p = sub.add_parser("rank", help="minimal generating set size")
    _add_common(p, workers=False)

    return parser


def _emit(fmt: str, doc: dict, table_lines: list[str],
          csv_rows: list[Sequence[str]]) -> None:
    if fmt == "json":
        print(json.dumps(doc, indent=2))
    elif fmt == "csv":
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerows(csv_rows)
    else:
        print("\n".join(table_lines))


def _resolve_gens(spec: str, n: int, cache_dir: Path) -> GeneratorSet:
    if spec == "G":
        return build_G(n)
    if spec == "J":
        return build_J(n, load_universe(cache_dir, n))
    if spec.startswith("file:"):
        path = Path(spec[len("file:"):])
        if not path.exists():
            raise ValueError(f"generator file not found: {path}")
        gens = GeneratorSet.load(path)
        if gens.n != n:
            raise ValueError(
                f"generator file is for n={gens.n}, command asked for n={n}")
        return gens
    raise ValueError(f"unknown generator spec {spec!r}: use G, J, or file:PATH")


def cmd_enumerate(args: argparse.Namespace) -> int:
    cache_dir = Path(args.cache_dir)
    universe = load_universe(cache_dir, args.n)
    path = universe_path(cache_dir, args.n)
    doc = {
        "n": universe.n,
        "count": len(universe),
        "rank_histogram": list(universe.rank_histogram),
        "mode": MODE_EXHAUSTIVE,
        "cache": str(path),
    }
    lines = [f"FI_{universe.n}: {len(universe)} elements "
             f"({MODE_EXHAUSTIVE})"]
    lines += [f"  rank {r}: {c}"
              for r, c in enumerate(universe.rank_histogram)]
    lines.append(f"codes cached at {path}")
    rows: list[Sequence[str]] = [("rank", "count")]
    rows += [(str(r), str(c)) for r, c in enumerate(universe.rank_histogram)]
    _emit(args.format, doc, lines, rows)
    return 0


def cmd_closure(args: argparse.Namespace) -> int:
    cache_dir = Path(args.cache_dir)
    gens = _resolve_gens(args.gens, args.n, cache_dir)
    result = load_closure(cache_dir, gens)
    tree_path = closure_path(cache_dir, gens)
    doc = {
        "n": result.n,
        "generators": list(result.labels),
        "count": len(result),
        "level_sizes": list(result.stats.level_sizes),
        "max_word_length": result.max_word_length,
        "products": result.stats.products,
        "seconds": round(result.stats.seconds, 3),
        "witness_cache": str(tree_path),
    }
    lines = [
        f"closure of {len(gens)} generators over the {result.n}-fence: "
        f"{len(result)} elements",
        f"word lengths 1..{result.max_word_length}, level sizes "
        + ", ".join(map(str, result.stats.level_sizes)),
        f"{result.stats.products} products examined in "
        f"{result.stats.seconds:.3f}s",
        f"witnesses cached at {tree_path}",
    ]
    rows: list[Sequence[str]] = [("word_length", "new_elements")]
    rows += [(str(k + 1), str(c))
             for k, c in enumerate(result.stats.level_sizes)]
    _emit(args.format, doc, lines, rows)
    return 0


def cmd_factor(args: argparse.Namespace) -> int:
    cache_dir = Path(args.cache_dir)
    gens = _resolve_gens(args.gens, args.n, cache_dir)
    target = parse_map(args.n, args.map_text)
    violated = order_violation(target)
    if violated is not None:
        a, b = violated
        raise MapFormatError(
            f"map is not a partial automorphism: points {a} and {b} "
            f"break the order relation")
    result = load_closure(cache_dir, gens)
    code = encode(target)
    try:
        word = result.witness(code)
    except NotGeneratedError:
        doc = {"n": args.n, "map": format_map(target), "code": code,
               "generated": False}
        lines = [f"{format_map(target)} is not generated by the given set"]
        _emit(args.format, doc, lines, [("generated",), ("false",)])
        return 0
    verified = evaluate_word(word, gens) == target
    doc = {
        "n": args.n,
        "map": format_map(target),
        "code": code,
        "generated": True,
        "word": str(word),
        "length": len(word),
        "verified": verified,
    }
    lines = [f"{format_map(target)} = {word}",
             f"word length {len(word)}, evaluation "
             + ("confirms the product" if verified else "DOES NOT match")]
    rows: list[Sequence[str]] = [("field", "value"),
                                 ("map", format_map(target)),
                                 ("code", str(code)),
                                 ("word", str(word)),
                                 ("length", str(len(word))),
                                 ("verified", str(verified).lower())]
    _emit(args.format, doc, lines, rows)
    return 0 if verified else VERIFY_FAILED


def cmd_verify(args: argparse.Namespace) -> int:
    claim_ids = None
    if args.claims is not None:
        claim_ids = tuple(s.strip() for s in args.claims.split(",") if s.strip())
    ctx = VerifyContext(workers=args.workers, cache_dir=args.cache_dir)
    report = run_verification(args.n, ctx, claim_ids)
    if all(c.status == STATUS_SKIPPED for c in report.checks):
        raise ValueError(f"none of the named claims is designated at n={args.n}")
    rows: list[Sequence[str]] = [("claim", "status", "grade", "seconds",
                                  "evidence")]
    rows += [(c.claim_id, c.status, c.grade, f"{c.seconds:.3f}", c.evidence)
             for c in report.checks]
    _emit(args.format, report.to_json(), report.to_table().splitlines(), rows)
    return 0 if report.passed else VERIFY_FAILED


def cmd_rank(args: argparse.Namespace) -> int:
    value = rank_formula(args.n)
    grade = rank_grade(args.n)
    if not any(args.n in spec.designated_ns for spec in claim_registry()):
        note = f"no verify claim is designated at n={args.n}"
    elif args.n <= ENUMERATION_CAP:
        note = ("machine cross-checks for this size are available "
                "via the verify command")
    else:
        note = ("minimality at this size is not machine-verified here; "
                "the verify registry checks its quantitative ingredients")
    doc = {"n": args.n, "rank": value, "grade": grade, "note": note}
    lines = [f"rank of FI_{args.n} = {value}",
             f"evidence grade: {grade}",
             note]
    rows: list[Sequence[str]] = [("field", "value"),
                                 ("n", str(args.n)),
                                 ("rank", str(value)),
                                 ("grade", grade)]
    _emit(args.format, doc, lines, rows)
    return 0


_COMMANDS = {
    "enumerate": cmd_enumerate,
    "closure": cmd_closure,
    "factor": cmd_factor,
    "verify": cmd_verify,
    "rank": cmd_rank,
}


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        check_fence_size(args.n)
        return _COMMANDS[args.command](args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
