"""Rank formulas, rank-(n−1) classes, and the machine-verification registry.

The registry holds every computationally checkable claim about FI_n that the
toolkit certifies: the identity table of the generator families, the size
and composition of G_n, generation of FI_n by G_n, and by J_n through the
inclusion G_n ⊆ J_n, the complement-closure obstruction for the top classes
R_i, the adjoin-one-element bound behind the minimality count, the
unique-parity-point law on J_n ∩ Par_n, the exhaustive minimal-rank search
at n = 3, and full sweeps of the two constructive decompositions.

Only ``close(build_G(n))`` runs the closure engine, once per n in a
``VerifyContext``, and ``generates-Gn`` and ``generates-Jn`` both read its
verdict: each generator of G_n is a census member of rank ≥ n−2, so
⟨J_n⟩ ⊇ ⟨G_n⟩.  Every other closure is a bitmask fixpoint over the Cayley
table of a rank layer, one gather over its image rows (``_CayleyTable``),
so its verdict does not rest on the engine: all of FI_3 for
``minimal-rank-n3``, and the rank-≥(n−1) layer for Lemma 6 and Prop 7 on
the classes R_i.  That floor is exact because rank(fg) ≤ min(rank f,
rank g): a product that lands in R_i has every factor at rank ≥ n−1, so
only the top layer needs closing.

Three claims run as array kernels over the census's packed words, with no
element decoded: ``lemma-bf4`` marks the parity-changing points of each
rank-≥(n−2) word and reads the first of them and its image,
``parity-reduce-sweep`` reduces and recomposes the parity-changers' words,
and ``convex-extend-sweep`` picks the convex-domain words of rank ≤ n−3,
extends their image rows at once (``constructions._extend_rows``) and
looks each extension's word up among the census's.

Evidence grades distinguish how a value is certified: arithmetic from the
stated closed form (PAPER-FORMULA), direct exhaustive or closure computation
performed here (MACHINE-VERIFIED), or reliance on the underlying theorem
without a finite check (PAPER-PROVED).  The minimality of G_n beyond n = 3
is of the last kind: the registry machine-checks its quantitative
ingredients, not the full counting argument.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from itertools import combinations
from typing import Callable, Iterable, Sequence

import numpy as np

from .fence import (
    _NIBBLE_LOW,
    CapacityError,
    PartialInjection,
    _check_int,
    _decode_codes,
    _defined,
    _image_at,
    _lowest,
    _nibble_bits,
    _pack,
    _unpack,
    check_fence_size,
    encode,
)
from .generators import (
    alpha,
    alpha_pair,
    beta_even,
    beta_odd,
    build_G,
    gamma,
)
from .oracle import ElementUniverse, enumerate_FI

GRADE_FORMULA = "PAPER-FORMULA"
GRADE_MACHINE = "MACHINE-VERIFIED"
GRADE_PROVED = "PAPER-PROVED"

STATUS_PASS = "pass"
STATUS_FAIL = "fail"
STATUS_SKIPPED = "skipped"


def rank_formula(n: int) -> int:
    """Minimal generating set size of FI_n for odd n.

    The values 2 (n=1) and 5 (n=3) are individual statements; from n ≥ 5 the
    closed form (n−5)/2 + ⌊(n+6)/4⌋⌊(n+7)/4⌋ applies.
    """
    check_fence_size(n)
    if n == 1:
        return 2
    if n == 3:
        return 5
    return (n - 5) // 2 + ((n + 6) // 4) * ((n + 7) // 4)


def rank_grade(n: int) -> str:
    """Evidence grade of the rank value: stated fact vs closed-form arithmetic."""
    check_fence_size(n)
    return GRADE_PROVED if n <= 3 else GRADE_FORMULA


def _check_universe(n: int, universe: ElementUniverse) -> None:
    check_fence_size(n)
    if universe.n != n:
        raise ValueError(f"universe is for n={universe.n}, expected {n}")


@dataclass(frozen=True)
class RClass:
    """Rank-(n−1) elements whose domain omits i or its mirror n−i+1."""

    n: int
    i: int
    codes: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.codes)


def r_class(n: int, i: int, universe: ElementUniverse) -> RClass:
    """Extract R_i from the universe."""
    _check_universe(n, universe)
    if not 1 <= _check_int(i, "class index") <= (n + 1) // 2:
        raise ValueError(f"class index {i} out of range 1..{(n + 1) // 2}")
    mask = universe.ranks == n - 1
    omitted = _lowest(~_defined(universe.words[mask]) & _NIBBLE_LOW) + 1
    hit = (omitted == i) | (omitted == n - i + 1)
    # a boolean mask of the sorted codes is sorted
    return RClass(n, i, tuple(universe.codes[mask][hit].tolist()))


class _CayleyTable:
    """The right-multiplication table of the layer ``codes``, every element
    of rank ≥ ``floor``, closed as a bitmask.

    ``right[b][a]`` is the layer index of a·b, or the sentinel
    ``len(codes)`` when the product falls below the floor.  A product of
    rank ≥ ``floor`` missing from the layer raises ValueError.  The L²
    products are one gather over the uint8 image rows, ``padded[b][rows[a]]``
    (x ↦ (xa)b, 0 kept), packed and looked up among the layer's words by
    one searchsorted.  The layer's words and the products' words come from
    two separate conversions, so a fault in either shows as a missing
    product.
    """

    def __init__(self, n: int, codes: Sequence[int], floor: int = 0) -> None:
        codes = np.asarray(codes, dtype=np.int64)
        self.index = {code: k for k, code in enumerate(codes.tolist())}
        self.below = len(codes)
        words, _ = _decode_codes(codes, n)
        padded = np.zeros((self.below, n + 1), dtype=np.uint8)
        padded[:, 1:] = _unpack(words, n)
        products = padded[:, padded[:, 1:]].reshape(-1, n)  # row b·L + a: a·b
        found = _pack(products)
        order = words.argsort()
        at = order[words[order].searchsorted(found).clip(max=self.below - 1)]
        above = np.count_nonzero(products, axis=1) >= floor
        missing = above & (words[at] != found)
        if missing.any():
            f = PartialInjection(n, tuple(products[missing.argmax()].tolist()))
            raise ValueError(f"{f} is missing from the rank-≥{floor} layer")
        self.right = np.where(above, at, self.below).reshape(self.below, self.below).tolist()

    def closure(self, codes: Iterable[int]) -> int:
        """The rank-≥floor members of the subsemigroup these codes generate,
        as a bitmask over the layer.  The frontier is multiplied on the right
        by each generator, with the sentinel's bit set so that no product
        below the floor is new, until no new element appears."""
        gens = sorted({self.index[int(c)] for c in codes})
        rows = [self.right[g] for g in gens]
        frontier = gens
        mask = sum(1 << g for g in gens) | 1 << self.below
        while frontier:
            found = []
            for a in frontier:
                for row in rows:
                    c = row[a]
                    if not mask >> c & 1:
                        mask |= 1 << c
                        found.append(c)
            frontier = found
        return mask ^ 1 << self.below

    def closures(self, gens: np.ndarray) -> np.ndarray:
        """``closure`` of each row of ``gens`` (B × k layer indices) as one
        bit-parallel batch of uint64 masks, for layers of ≤ 63 elements.
        ``spread[g, c, v]`` is the mask of a·g over a = 8c + j, j a set bit of
        v; each round ORs onto every mask the spread of each of its bytes
        under each of its generators, one flat gather, until none grows."""
        if self.below > 63:
            raise ValueError(f"a batch closes at most 63 elements, not {self.below}")
        chunks, one = self.below // 8 + 1, np.uint64(1)  # with the sentinel's bit
        bits = one << np.array(self.right, dtype=np.uint64)
        bits = np.pad(bits, ((0, 0), (0, 8 * chunks - self.below)))
        spread = np.zeros((self.below, chunks, 256), dtype=np.uint64)
        for j in range(8):
            spread[:, :, 1 << j:2 << j] = spread[:, :, :1 << j] | bits[:, j::8, None]
        # [i, c, r]: the flat offset of spread[gens[r, i], c]
        starts = ((gens.T * chunks)[:, None, :] + np.arange(chunks)[:, None]) * 256
        sentinel = one << np.uint64(self.below)
        masks = np.bitwise_or.reduce(one << gens.T.astype(np.uint64), axis=0) | sentinel
        while True:
            parts = masks.astype("<u8").view(np.uint8).reshape(-1, 8)[:, :chunks]
            products = spread.ravel()[starts + parts.T]
            grown = masks | np.bitwise_or.reduce(products.reshape(-1, len(masks)), axis=0)
            if np.array_equal(grown, masks):
                return masks ^ sentinel
            masks = grown


def _top_classes(n: int, universe: ElementUniverse) -> tuple[
        _CayleyTable, list[tuple[RClass, int, list[int]]]]:
    """The Cayley table of the rank-≥(n−1) layer, floored at n−1, and each
    class R_i with its bitmask over the layer and the layer codes outside it.
    """
    _check_universe(n, universe)
    top = universe.codes[universe.ranks >= n - 1].tolist()
    table = _CayleyTable(n, top, floor=n - 1)
    classes = []
    for i in range(1, (n + 1) // 2 + 1):
        cls = r_class(n, i, universe)
        in_class = set(cls.codes)
        classes.append((cls, sum(1 << table.index[c] for c in in_class),
                        [c for c in top if c not in in_class]))
    return table, classes


@dataclass(frozen=True)
class Lemma6Check:
    """One class: does the closure of the other top elements avoid R_i?"""

    i: int
    r_size: int
    closure_size: int  # rank-≥(n−1) members of the closure
    intersection_size: int
    holds: bool


def verify_lemma6(n: int, universe: ElementUniverse) -> tuple[Lemma6Check, ...]:
    """For each class: close the other rank-≥(n−1) elements inside their
    layer and intersect the result with R_i.

    This is the top layer of ⟨FI_n ∖ R_i⟩ (see the module docstring): the
    elements below rank n−1 cannot be factors of a product in R_i.  An empty
    intersection means no product of non-R_i elements lands in R_i, so every
    generating set must meet R_i.
    """
    table, classes = _top_classes(n, universe)
    checks = []
    for cls, in_class, outside in classes:
        reached = table.closure(outside)
        inter = (reached & in_class).bit_count()
        checks.append(Lemma6Check(i=cls.i, r_size=len(cls), holds=not inter,
                                  closure_size=reached.bit_count(),
                                  intersection_size=inter))
    return tuple(checks)


@dataclass(frozen=True)
class Prop7AlphaCheck:
    """Adjoining one α ∈ R_i to FI_n ∖ R_i: how much of R_i is reachable?"""

    alpha_code: int
    intersection_size: int
    within_bound: bool        # ≤ 8
    matches_pair_closure: bool  # equals ⟨α, γ_n⟩ ∩ R_i exactly


@dataclass(frozen=True)
class Prop7ClassCheck:
    i: int
    r_size: int
    alphas: tuple[Prop7AlphaCheck, ...]

    @property
    def holds(self) -> bool:
        return self.r_size == 16 and all(
            a.within_bound and a.matches_pair_closure for a in self.alphas)


@dataclass(frozen=True)
class Prop7Result:
    n: int
    classes: tuple[Prop7ClassCheck, ...]

    @property
    def vacuous(self) -> bool:
        return not self.classes

    @property
    def holds(self) -> bool:
        return all(c.holds for c in self.classes)


def verify_prop7_claims(n: int, universe: ElementUniverse) -> Prop7Result:
    """Check |R_i| = 16 and the adjoin-one-element bound for even interior i.

    For every α ∈ R_i (even i in {4,…,(n−1)/2}), the R_i elements reachable
    from {α} ∪ (FI_n ∖ R_i) are exactly the words in α and γ_n that stay in
    R_i — at most 8 of the 16 members, so a single α cannot regenerate its
    class.  The reachable set is closed in the rank-≥(n−1) layer.
    Below n = 9 the index range is empty and the result is vacuous.
    """
    _check_universe(n, universe)
    indices = range(4, (n - 1) // 2 + 1, 2)
    if not indices:
        return Prop7Result(n, ())
    table, classes = _top_classes(n, universe)
    gam = encode(gamma(n))
    checks = []
    for i in indices:
        cls, in_class, outside = classes[i - 1]
        alphas = []
        for a in cls.codes:
            meet = table.closure(outside + [a]) & in_class
            pair_meet = table.closure((a, gam)) & in_class
            alphas.append(Prop7AlphaCheck(
                alpha_code=a, intersection_size=meet.bit_count(),
                within_bound=meet.bit_count() <= 8,
                matches_pair_closure=meet == pair_meet))
        checks.append(Prop7ClassCheck(
            i=i, r_size=len(cls), alphas=tuple(alphas)))
    return Prop7Result(n, tuple(checks))


@dataclass(frozen=True)
class Bf4Check:
    """Sweep of J_n ∩ Par_n for the unique-parity-point law."""

    n: int
    checked: int
    failures: tuple[int, ...]

    @property
    def holds(self) -> bool:
        return not self.failures


def verify_lemma_bf4(n: int, universe: ElementUniverse) -> Bf4Check:
    """Every δ ∈ J_n ∩ Par_n has exactly one parity-changing point x,
    located at the boundary: x ∈ {1, n} or xδ ∈ {1, n}.

    One pass over the census words of rank ≥ n−2: ``_changing`` marks
    each word's parity-changing points, a word with any is checked, and it
    holds iff it has one and that point or its image is 1 or n.  The
    failures are the codes of the words that do not hold, ascending."""
    from .constructions import _changing

    _check_universe(n, universe)
    top = np.flatnonzero(universe.ranks >= n - 2)
    words = universe.words.take(top)
    mask = _changing(words)
    # only a word with a changing point is checked, or read by _lowest
    par = np.flatnonzero(mask)
    mask, words = mask.take(par), words.take(par)
    first = _lowest(mask)  # x − 1 for the first changing point x
    image = _image_at(words, first)
    boundary = (first == 0) | (first == n - 1) | (image == 1) | (image == n)
    bad = (_nibble_bits(mask) > 1) | ~boundary
    return Bf4Check(n, len(par), tuple(universe.codes[top[par[bad]]].tolist()))


def minimal_rank_exhaustive(universe: ElementUniverse) -> int:
    """Smallest k such that some k-subset of FI_3 generates FI_3.

    Exhaustive over subsets containing γ_3.  The pruning is lossless: the
    only rank-3 elements are id and γ_3, a product has rank at most the
    minimum rank of its factors, and products of {id} alone never reach γ_3,
    so every generating set contains γ_3.  The subsets of each size, in
    ``combinations`` order, are closed in one batch over FI_3's Cayley table
    (``_CayleyTable.closures``), not by the closure engine.
    """
    if universe.n != 3:
        raise CapacityError(
            f"exhaustive minimal-rank search is offered at n = 3 only, "
            f"got n = {universe.n}")
    table = _CayleyTable(3, universe.codes)
    whole = (1 << len(universe)) - 1
    gam = table.index[encode(gamma(3))]
    others = [k for k in range(len(universe)) if k != gam]
    for size in range(1, 6):
        extras = np.array(list(combinations(others, size - 1)), dtype=np.intp)
        if (table.closures(np.insert(extras, 0, gam, axis=1)) == whole).any():
            return size
    raise RuntimeError("no generating subset of size <= 5 found")


# --- claim registry ---------------------------------------------------------


@dataclass
class VerifyContext:
    """Shared resources for claim runners: the census of each n, enumerated
    once by ``enumerate_FI``, sampling, and at each n the verdict of the one
    closure of G_n that ``generates-Gn`` and ``generates-Jn`` share, its
    counts alone, so the tree is freed as soon as they are read off it.

    ``workers`` (at least 1) has no effect: closures run in one thread.
    ``workers`` and ``seed`` must be integers: a bool, float or str raises
    ValueError."""

    workers: int = 1
    seed: int = 20240801
    _universes: dict[int, ElementUniverse] = field(default_factory=dict, init=False)
    _g_verdicts: dict[int, tuple[int, int]] = field(default_factory=dict, init=False)

    def __post_init__(self) -> None:
        _check_int(self.seed, "seed")
        if _check_int(self.workers, "workers") < 1:
            raise ValueError(f"workers must be at least 1, got {self.workers}")

    def universe(self, n: int) -> ElementUniverse:
        if n not in self._universes:
            self._universes[n] = enumerate_FI(n)
        return self._universes[n]


@dataclass(frozen=True)
class ClaimCheck:
    claim_id: str
    statement: str
    grade: str
    status: str
    evidence: str
    seconds: float


@dataclass(frozen=True)
class VerificationReport:
    n: int
    checks: tuple[ClaimCheck, ...]

    @property
    def failures(self) -> tuple[ClaimCheck, ...]:
        return tuple(c for c in self.checks if c.status == STATUS_FAIL)

    @property
    def passed(self) -> bool:
        return not any(
            c.status == STATUS_FAIL and c.grade == GRADE_MACHINE
            for c in self.checks)

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "passed": self.passed,
            "checks": [
                {
                    "claim_id": c.claim_id,
                    "statement": c.statement,
                    "grade": c.grade,
                    "status": c.status,
                    "evidence": c.evidence,
                    "seconds": round(c.seconds, 3),
                }
                for c in self.checks
            ],
        }

    def to_table(self) -> str:
        rows = [("claim", "status", "grade", "time", "evidence")]
        for c in self.checks:
            rows.append((c.claim_id, c.status, c.grade,
                         f"{c.seconds:.2f}s", c.evidence))
        widths = [max(len(r[k]) for r in rows) for k in range(4)]
        lines = []
        for r in rows:
            lines.append("  ".join(
                [r[k].ljust(widths[k]) for k in range(4)] + [r[4]]).rstrip())
        status = "PASS" if self.passed else "FAIL"
        lines.append(f"overall: {status} (n={self.n})")
        return "\n".join(lines)


Runner = Callable[[int, VerifyContext], tuple[str, str]]


@dataclass(frozen=True)
class ClaimSpec:
    claim_id: str
    statement: str
    grade: str
    designated_ns: tuple[int, ...]
    runner: Runner


def _run_identity_table(n: int, ctx: VerifyContext) -> tuple[str, str]:
    ident = PartialInjection.identity(n)

    def id_minus(*pts: int) -> PartialInjection:
        images = list(ident.images)
        for p in pts:
            images[p - 1] = 0
        return PartialInjection(n, tuple(images))

    gam = gamma(n)
    checked = 0
    for i in range(2, n, 2):
        if beta_even(n, i) * beta_odd(n, i) != id_minus(i - 1, i + 1):
            return STATUS_FAIL, f"beta_{i}_even · beta_{i}_odd mismatch"
        checked += 1
    for i in range(1, n + 1):
        a = alpha(n, i)
        if a * a != id_minus(i):
            return STATUS_FAIL, f"alpha_{i}^2 mismatch"
        checked += 1
    for i in range(1, n + 1):
        for j in range(i + 2, n + 1, 2):
            ap = alpha_pair(n, i, j)
            if ap * ap != id_minus(i, j):
                return STATUS_FAIL, f"alpha_{i}_{j}^2 mismatch"
            checked += 1
    if gam * alpha(n, 1) * alpha(n, n) != alpha_pair(n, 1, n):
        return STATUS_FAIL, "alpha_{1,n} != gamma·alpha_1·alpha_n"
    checked += 1
    # interior reversal through the reflection: the middle index is the
    # mirror complement n+1−(j−i), not j−i (see the regression test for the
    # counterexample to the naive middle index)
    for i in range(2, n, 2):
        for j in range(i + 2, n, 2):
            if alpha(n, i) * alpha(n, n + 1 - (j - i)) * alpha(n, i) != alpha_pair(n, i, j):
                return STATUS_FAIL, f"alpha_{i}_{j} interior factorization mismatch"
            checked += 1
    for a in range((n + 1) // 2 + 1, n):
        if a % 2:
            continue
        b = n - a + 1
        if alpha(n, 2) * beta_odd(n, b) * gam != beta_odd(n, a):
            return STATUS_FAIL, f"beta_{a}_odd reduction mismatch"
        if gam * beta_even(n, b) * alpha(n, 2) != beta_even(n, a):
            return STATUS_FAIL, f"beta_{a}_even reduction mismatch"
        checked += 2
    return STATUS_PASS, f"{checked} identities hold pointwise"


def _run_g_size(n: int, ctx: VerifyContext) -> tuple[str, str]:
    expected = (n - 5) // 2 + ((n + 6) // 4) * ((n + 7) // 4)
    actual = len(build_G(n))
    if actual != expected:
        return STATUS_FAIL, f"|G_{n}| = {actual}, closed form gives {expected}"
    return STATUS_PASS, f"|G_{n}| = {actual} matches the closed form"


def _run_pair_count(n: int, ctx: VerifyContext) -> tuple[str, str]:
    expected = (n // 4) * ((n + 2) // 4) - 1
    actual = sum(1 for label in build_G(n).labels
                 if label.count("_") == 2 and label.startswith("alpha_"))
    if actual != expected:
        return STATUS_FAIL, f"{actual} alpha-pair entries, expected {expected}"
    return STATUS_PASS, f"{actual} alpha-pair entries match ⌊n/4⌋⌊(n+2)/4⌋−1"


def _run_rank_consistency(n: int, ctx: VerifyContext) -> tuple[str, str]:
    formula = rank_formula(n)
    actual = len(build_G(n))
    if actual != formula:
        return STATUS_FAIL, f"|G_{n}| = {actual} but rank formula gives {formula}"
    return STATUS_PASS, f"|G_{n}| = rank_formula({n}) = {formula}"


def _run_generates_g(n: int, ctx: VerifyContext) -> tuple[str, str]:
    """Closes G_n once per n in ``ctx`` and keeps the counts of the census
    codes missing from ⟨G_n⟩ and of its codes extra to the census; the
    closure itself is dropped on return."""
    # looked up at call time, so a patched ``closure.verify_generates`` is seen
    from .closure import verify_generates

    if n not in ctx._g_verdicts:
        check = verify_generates(build_G(n), ctx.universe(n))
        ctx._g_verdicts[n] = len(check.missing), len(check.extra)
    missing, extra = ctx._g_verdicts[n]
    if missing or extra:
        return STATUS_FAIL, f"missing {missing}, extra {extra} codes"
    return STATUS_PASS, f"closure of G_{n} equals all {len(ctx.universe(n))} elements"


def _run_generates_j(n: int, ctx: VerifyContext) -> tuple[str, str]:
    """⟨J_n⟩ ⊇ ⟨G_n⟩ = FI_n: each generator's code is looked up, none
    decoded, and must be a census member of rank ≥ n−2."""
    universe = ctx.universe(n)
    labels, codes = zip(*((label, encode(g)) for label, g in build_G(n)))
    at = universe.codes.searchsorted(codes).clip(max=len(universe) - 1)
    for label, code, k in zip(labels, codes, at):
        if universe.codes[k] != code:
            return STATUS_FAIL, f"generator {label} is not in the census of FI_{n}"
        if universe.ranks[k] < n - 2:
            return STATUS_FAIL, f"generator {label} has rank {universe.ranks[k]} < {n - 2}"
    status, evidence = _run_generates_g(n, ctx)
    if status != STATUS_PASS:
        return status, f"inclusion does not apply: {evidence}"
    return status, (f"all {len(labels)} generators of G_{n} have rank ≥ {n - 2}, "
                    f"and the {evidence}")


def _run_lemma6(n: int, ctx: VerifyContext) -> tuple[str, str]:
    checks = verify_lemma6(n, ctx.universe(n))
    bad = [c for c in checks if not c.holds]
    if bad:
        return STATUS_FAIL, (
            "; ".join(f"R_{c.i}: {c.intersection_size} reachable" for c in bad))
    sizes = ", ".join(f"|R_{c.i}|={c.r_size}" for c in checks)
    return STATUS_PASS, (
        f"rank-≥{n - 1} closures of the complements avoid every class ({sizes})")


def _run_bf4(n: int, ctx: VerifyContext) -> tuple[str, str]:
    check = verify_lemma_bf4(n, ctx.universe(n))
    if not check.holds:
        return STATUS_FAIL, f"{len(check.failures)} of {check.checked} violate the law"
    return STATUS_PASS, (
        f"all {check.checked} rank-≥{n - 2} parity-changers have one boundary point")


def _run_prop7(n: int, ctx: VerifyContext) -> tuple[str, str]:
    result = verify_prop7_claims(n, ctx.universe(n))
    if result.vacuous:
        return STATUS_PASS, "vacuous: no even class index in 4..(n−1)/2"
    if not result.holds:
        bad = [c for c in result.classes if not c.holds]
        return STATUS_FAIL, "; ".join(f"R_{c.i} violated" for c in bad)
    parts = []
    for c in result.classes:
        sizes = sorted({a.intersection_size for a in c.alphas})
        parts.append(f"R_{c.i}: size 16, reachable ≤ {max(sizes)} per adjoined element")
    return STATUS_PASS, "; ".join(parts)


def _run_minimal_rank(n: int, ctx: VerifyContext) -> tuple[str, str]:
    universe = ctx.universe(3)
    found = minimal_rank_exhaustive(universe)
    if found != 5:
        return STATUS_FAIL, f"exhaustive search found a generating {found}-subset"
    g3 = (encode(g) for _, g in build_G(3))
    if _CayleyTable(3, universe.codes).closure(g3) != (1 << len(universe)) - 1:
        return STATUS_FAIL, "G_3 does not generate FI_3"
    return STATUS_PASS, "no 4-subset generates; the 5-element G_3 does"


# the parity sweep checks at most this many parity-changers, a seeded sample
_PARITY_SAMPLE = 10_000


def _run_parity_sweep(n: int, ctx: VerifyContext) -> tuple[str, str]:
    from .constructions import _changing, _recompose_words, _reduce_words

    universe = ctx.universe(n)
    words = universe.words
    par = np.flatnonzero(_changing(words))
    if len(par) <= _PARITY_SAMPLE:
        picked = par
        how = f"all {len(par)}"
    else:
        rng = np.random.default_rng(ctx.seed)
        picked = rng.choice(par, size=_PARITY_SAMPLE, replace=False)
        how = f"{_PARITY_SAMPLE} sampled of {len(par)}"
    words = words.take(picked)
    cores, steps = _reduce_words(words, n)
    bad = (_recompose_words(cores, steps, n) != words) | (_changing(cores) != 0)
    if bad.any():
        code = universe.codes[picked[bad.argmax()]]
        return STATUS_FAIL, f"decomposition invalid for code {code}"
    return STATUS_PASS, f"{how} parity-changers decompose and recompose exactly"


def _run_convex_sweep(n: int, ctx: VerifyContext) -> tuple[str, str]:
    """Every convex-domain row δ of rank ≤ n−3, extended by ``_extend_rows``
    to δ ∪ {w↦x}, must give a census member (so a partial automorphism) of
    rank rank(δ) + 1 that is δ again once w is cleared, i.e.
    id_{n̄∖{w}} · (δ ∪ {w↦x}) = δ.  A domain is convex iff at most one of
    its points starts a run, a defined point whose predecessor is not."""
    from .constructions import _extend_rows

    universe = ctx.universe(n)
    words = universe.words
    defined = _defined(words)
    starts = _nibble_bits(defined & ~(defined << np.uint64(4)))
    picked = np.flatnonzero((universe.ranks <= n - 3) & (starts <= 1))
    rows = _unpack(words.take(picked), n)
    w, x = _extend_rows(rows)
    at = np.arange(len(rows)), w - 1
    extended = rows.copy()
    extended[at] = x
    found = _pack(extended)
    bad = words.take(words.searchsorted(found).clip(max=len(words) - 1)) != found
    bad |= np.count_nonzero(extended, axis=1) != universe.ranks[picked] + 1
    extended[at] = 0
    bad |= (extended != rows).any(axis=1)
    if bad.any():
        return STATUS_FAIL, (
            f"extension invalid for code {universe.codes[picked[bad.argmax()]]}")
    return STATUS_PASS, (
        f"all {len(picked)} convex-domain elements of rank ≤ {n - 3} extend")


_REGISTRY: tuple[ClaimSpec, ...] = (
    ClaimSpec(
        "identity-table",
        "the generator families satisfy the composition identity table",
        GRADE_MACHINE, (5, 7, 9, 11, 13), _run_identity_table),
    ClaimSpec(
        "G-size-formula",
        "|G_n| equals (n−5)/2 + ⌊(n+6)/4⌋⌊(n+7)/4⌋",
        GRADE_MACHINE, (5, 7, 9, 11, 13), _run_g_size),
    ClaimSpec(
        "pair-count",
        "G_n contains exactly ⌊n/4⌋⌊(n+2)/4⌋−1 alpha-pair generators",
        GRADE_MACHINE, (5, 7, 9, 11, 13), _run_pair_count),
    ClaimSpec(
        "rank-formula-consistency",
        "|G_n| equals rank_formula(n)",
        GRADE_MACHINE, (3, 5, 7, 9, 11, 13), _run_rank_consistency),
    ClaimSpec(
        "generates-Gn",
        "the closure of G_n is all of FI_n",
        GRADE_MACHINE, (3, 5, 7, 9), _run_generates_g),
    ClaimSpec(
        "generates-Jn",
        "the closure of J_n (rank ≥ n−2) is all of FI_n",
        GRADE_MACHINE, (3, 5, 7, 9), _run_generates_j),
    ClaimSpec(
        "lemma6",
        "no product of elements outside R_i lands in R_i",
        GRADE_MACHINE, (5, 7, 9), _run_lemma6),
    ClaimSpec(
        "lemma-bf4",
        "each δ ∈ J_n ∩ Par_n has exactly one parity-changing point, "
        "at the boundary",
        GRADE_MACHINE, (5, 7, 9), _run_bf4),
    ClaimSpec(
        "prop7-claims",
        "|R_i| = 16 for even interior i and one adjoined element reaches "
        "at most 8 members",
        GRADE_MACHINE, (3, 5, 7, 9), _run_prop7),
    ClaimSpec(
        "minimal-rank-n3",
        "no 4-element subset of FI_3 generates; rank FI_3 = 5",
        GRADE_MACHINE, (3,), _run_minimal_rank),
    ClaimSpec(
        "parity-reduce-sweep",
        "parity reduction recomposes exactly over Par_n",
        GRADE_MACHINE, (5, 7, 9), _run_parity_sweep),
    ClaimSpec(
        "convex-extend-sweep",
        "convex extension recomposes exactly over rank ≤ n−3",
        GRADE_MACHINE, (5, 7), _run_convex_sweep),
)


def claim_registry() -> tuple[ClaimSpec, ...]:
    """The fixed, ordered list of machine-checkable claims."""
    return _REGISTRY


def run_verification(
    n: int,
    ctx: VerifyContext,
    claim_ids: tuple[str, ...] | None = None,
) -> VerificationReport:
    """Run the registry at a given n.  Claims outside their designated sizes
    (or outside an explicit claim filter) are reported as skipped; every
    registry claim appears exactly once.  An explicit filter must name at
    least one claim; without one, ValueError unless some claim is designated
    at n, so a run never passes by checking nothing."""
    check_fence_size(n)
    if claim_ids is None:
        if not any(n in spec.designated_ns for spec in _REGISTRY):
            raise ValueError(f"no claim is designated at n={n}")
    else:
        if not claim_ids:
            raise ValueError("the claim filter names no claim")
        unknown = set(claim_ids) - {c.claim_id for c in _REGISTRY}
        if unknown:
            raise ValueError(f"unknown claim ids: {sorted(unknown)}")
    checks = []
    for spec in _REGISTRY:
        if claim_ids is not None and spec.claim_id not in claim_ids:
            checks.append(ClaimCheck(
                spec.claim_id, spec.statement, spec.grade,
                STATUS_SKIPPED, "filtered out", 0.0))
            continue
        if n not in spec.designated_ns:
            checks.append(ClaimCheck(
                spec.claim_id, spec.statement, spec.grade, STATUS_SKIPPED,
                f"not designated at n={n} "
                f"(designated: {', '.join(map(str, spec.designated_ns))})",
                0.0))
            continue
        started = time.perf_counter()
        try:
            status, evidence = spec.runner(n, ctx)
        except Exception as exc:  # a crash is a failed check, not a crash
            status, evidence = STATUS_FAIL, f"checker raised: {exc}"
        checks.append(ClaimCheck(
            spec.claim_id, spec.statement, spec.grade, status, evidence,
            time.perf_counter() - started))
    return VerificationReport(n, tuple(checks))
