"""Rank formulas, rank-(n−1) classes, and the machine-verification registry.

The registry holds every computationally checkable claim about FI_n that the
toolkit certifies: the identity table of the generator families, the size
and composition of G_n, generation of FI_n by G_n and J_n, the complement-
closure obstruction for the top classes R_i, the adjoin-one-element bound
behind the minimality count, the unique-parity-point law on J_n ∩ Par_n,
the exhaustive minimal-rank search at n = 3, and full sweeps of the two
constructive decompositions.

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
from typing import Callable, Iterator

import numpy as np

from .cache import load_universe
from .fence import (
    CapacityError,
    PartialInjection,
    check_fence_size,
    decode,
    encode,
)
from .generators import (
    GeneratorSet,
    alpha,
    alpha_pair,
    beta_even,
    beta_odd,
    build_G,
    build_J,
    gamma,
    parity_points,
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


@dataclass(frozen=True)
class RClass:
    """Rank-(n−1) elements whose domain omits i or its mirror n−i+1."""

    n: int
    i: int
    codes: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.codes)

    @property
    def omitted_points(self) -> tuple[int, ...]:
        return tuple(sorted({self.i, self.n - self.i + 1}))

    def members(self) -> Iterator[PartialInjection]:
        for code in self.codes:
            yield decode(self.n, code)


def r_class(n: int, i: int, universe: ElementUniverse) -> RClass:
    """Extract R_i from the universe."""
    check_fence_size(n)
    if universe.n != n:
        raise ValueError(f"universe is for n={universe.n}, expected {n}")
    if not 1 <= i <= (n + 1) // 2:
        raise ValueError(f"class index {i} out of range 1..{(n + 1) // 2}")
    mat = universe.images_matrix
    mask = universe.ranks == n - 1
    rows = mat[mask]
    omitted = (rows == 0).argmax(axis=1) + 1
    hit = (omitted == i) | (omitted == n - i + 1)
    codes = universe.codes_array[mask][hit]
    return RClass(n, i, tuple(int(c) for c in np.sort(codes)))


def _top_layer_closure(n: int, codes) -> frozenset[int]:
    """Rank-≥(n−1) members of the closure of the elements with these codes.

    Products that land at rank ≥ n−1 factor entirely through rank ≥ n−1,
    since rank(fg) ≤ min(rank f, rank g), so the engine's rank floor gives
    exactly the top layer of the full closure.
    """
    from .closure import close

    gens = GeneratorSet(n, tuple((str(c), decode(n, c)) for c in codes))
    return close(gens, min_rank=n - 1).members


@dataclass(frozen=True)
class Lemma6Check:
    """One complement-closure run: does ⟨FI_n ∖ R_i⟩ avoid R_i entirely?"""

    i: int
    r_size: int
    closure_size: int
    intersection_size: int
    holds: bool
    complement_exact: bool


def verify_lemma6(
    n: int, universe: ElementUniverse, workers: int = 1
) -> tuple[Lemma6Check, ...]:
    """For each class: close the complement of R_i and intersect with R_i.

    An empty intersection means no product of non-R_i elements lands in R_i,
    so every generating set must meet R_i.  Capped at n = 7: the complement
    closure seeds with nearly the whole universe.
    """
    from .closure import close_excluding

    check_fence_size(n)
    if n > 7:
        raise CapacityError(
            f"full complement closures are capped at n = 7, got {n}")
    checks = []
    for i in range(1, (n + 1) // 2 + 1):
        cls = r_class(n, i, universe)
        result = close_excluding(universe, cls.codes, workers=workers)
        inter = result.members & set(cls.codes)
        complement = universe.code_set - set(cls.codes)
        checks.append(Lemma6Check(
            i=i,
            r_size=len(cls),
            closure_size=len(result),
            intersection_size=len(inter),
            holds=not inter,
            complement_exact=result.members == complement,
        ))
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
    r_size_expected: int
    alphas: tuple[Prop7AlphaCheck, ...]

    @property
    def holds(self) -> bool:
        return self.r_size == self.r_size_expected and all(
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
    class.  The reachable set is a closure floored at rank n−1.
    Below n = 9 the index range is empty and the result is vacuous.
    """
    check_fence_size(n)
    if universe.n != n:
        raise ValueError(f"universe is for n={universe.n}, expected {n}")
    gam = encode(gamma(n))
    top = [int(c) for c in universe.codes_array[universe.ranks >= n - 1]]
    classes = []
    for i in range(4, (n - 1) // 2 + 1, 2):
        cls = r_class(n, i, universe)
        in_class = set(cls.codes)
        outside = [c for c in top if c not in in_class]
        alphas = []
        for a in cls.codes:
            meet = _top_layer_closure(n, outside + [a]) & in_class
            pair_meet = _top_layer_closure(n, (a, gam)) & in_class
            alphas.append(Prop7AlphaCheck(
                alpha_code=a,
                intersection_size=len(meet),
                within_bound=len(meet) <= 8,
                matches_pair_closure=meet == pair_meet,
            ))
        classes.append(Prop7ClassCheck(
            i=i, r_size=len(cls), r_size_expected=16, alphas=tuple(alphas)))
    return Prop7Result(n, tuple(classes))


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
    located at the boundary: x ∈ {1, n} or xδ ∈ {1, n}."""
    check_fence_size(n)
    if universe.n != n:
        raise ValueError(f"universe is for n={universe.n}, expected {n}")
    checked = 0
    failures = []
    for f in universe.members():
        if f.rank < n - 2:
            continue
        pts = parity_points(f)
        if not pts:
            continue
        checked += 1
        ok = len(pts) == 1 and (
            pts[0] in (1, n) or f.images[pts[0] - 1] in (1, n))
        if not ok:
            failures.append(encode(f))
    return Bf4Check(n, checked, tuple(failures))


def minimal_rank_exhaustive(universe: ElementUniverse) -> int:
    """Smallest k such that some k-subset of FI_3 generates FI_3.

    Exhaustive over subsets containing γ_3.  The pruning is lossless: the
    only rank-3 elements are id and γ_3, a product has rank at most the
    minimum rank of its factors, and products of {id} alone never reach γ_3,
    so every generating set contains γ_3.
    """
    if universe.n != 3:
        raise CapacityError(
            f"exhaustive minimal-rank search is offered at n = 3 only, "
            f"got n = {universe.n}")
    from .closure import close_excluding

    gam = encode(gamma(3))
    others = [c for c in universe.codes if c != gam]
    for size in range(1, 6):
        for extra in combinations(others, size - 1):
            rest = universe.code_set.difference(extra, (gam,))
            if close_excluding(universe, rest).members == universe.code_set:
                return size
    raise RuntimeError("no generating subset of size <= 5 found")


# --- claim registry ---------------------------------------------------------


@dataclass
class VerifyContext:
    """Shared resources for claim runners: cached universes, worker count."""

    workers: int = 1
    cache_dir: str | None = None
    sample_size: int = 10_000
    seed: int = 20240801
    _universes: dict[int, ElementUniverse] = field(default_factory=dict)

    def universe(self, n: int) -> ElementUniverse:
        if n not in self._universes:
            if self.cache_dir is None:
                self._universes[n] = enumerate_FI(n, workers=self.workers)
            else:
                self._universes[n] = load_universe(self.cache_dir, n, self.workers)
        return self._universes[n]

    def put_universe(self, universe: ElementUniverse) -> None:
        self._universes[universe.n] = universe

    def rng(self) -> np.random.Generator:
        return np.random.default_rng(self.seed)


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


def _fmt_fail(detail: str) -> tuple[str, str]:
    return STATUS_FAIL, detail


def _fmt_pass(detail: str) -> tuple[str, str]:
    return STATUS_PASS, detail


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
            return _fmt_fail(f"beta_{i}_even · beta_{i}_odd mismatch")
        checked += 1
    for i in range(1, n + 1):
        a = alpha(n, i)
        if a * a != id_minus(i):
            return _fmt_fail(f"alpha_{i}^2 mismatch")
        checked += 1
    for i in range(1, n + 1):
        for j in range(i + 2, n + 1, 2):
            ap = alpha_pair(n, i, j)
            if ap * ap != id_minus(i, j):
                return _fmt_fail(f"alpha_{i}_{j}^2 mismatch")
            checked += 1
    if gam * alpha(n, 1) * alpha(n, n) != alpha_pair(n, 1, n):
        return _fmt_fail("alpha_{1,n} != gamma·alpha_1·alpha_n")
    checked += 1
    # interior reversal through the reflection: the middle index is the
    # mirror complement n+1−(j−i), not j−i (see the regression test for the
    # counterexample to the naive middle index)
    for i in range(2, n, 2):
        for j in range(i + 2, n, 2):
            if alpha(n, i) * alpha(n, n + 1 - (j - i)) * alpha(n, i) != alpha_pair(n, i, j):
                return _fmt_fail(f"alpha_{i}_{j} interior factorization mismatch")
            checked += 1
    for a in range((n + 1) // 2 + 1, n):
        if a % 2:
            continue
        b = n - a + 1
        if alpha(n, 2) * beta_odd(n, b) * gam != beta_odd(n, a):
            return _fmt_fail(f"beta_{a}_odd reduction mismatch")
        if gam * beta_even(n, b) * alpha(n, 2) != beta_even(n, a):
            return _fmt_fail(f"beta_{a}_even reduction mismatch")
        checked += 2
    return _fmt_pass(f"{checked} identities hold pointwise")


def _run_g_size(n: int, ctx: VerifyContext) -> tuple[str, str]:
    expected = (n - 5) // 2 + ((n + 6) // 4) * ((n + 7) // 4)
    actual = len(build_G(n))
    if actual != expected:
        return _fmt_fail(f"|G_{n}| = {actual}, closed form gives {expected}")
    return _fmt_pass(f"|G_{n}| = {actual} matches the closed form")


def _run_pair_count(n: int, ctx: VerifyContext) -> tuple[str, str]:
    expected = (n // 4) * ((n + 2) // 4) - 1
    actual = sum(1 for label in build_G(n).labels
                 if label.count("_") == 2 and label.startswith("alpha_"))
    if actual != expected:
        return _fmt_fail(f"{actual} alpha-pair entries, expected {expected}")
    return _fmt_pass(f"{actual} alpha-pair entries match ⌊n/4⌋⌊(n+2)/4⌋−1")


def _run_rank_consistency(n: int, ctx: VerifyContext) -> tuple[str, str]:
    formula = rank_formula(n)
    actual = len(build_G(n))
    if actual != formula:
        return _fmt_fail(f"|G_{n}| = {actual} but rank formula gives {formula}")
    return _fmt_pass(f"|G_{n}| = rank_formula({n}) = {formula}")


def _run_generates_g(n: int, ctx: VerifyContext) -> tuple[str, str]:
    from .closure import verify_generates

    check = verify_generates(build_G(n), ctx.universe(n), workers=ctx.workers)
    if not check.generates:
        return _fmt_fail(
            f"missing {len(check.missing)}, extra {len(check.extra)} codes")
    return _fmt_pass(f"closure of G_{n} equals all {len(check.closure)} elements")


def _run_generates_j(n: int, ctx: VerifyContext) -> tuple[str, str]:
    from .closure import verify_generates

    universe = ctx.universe(n)
    gens = build_J(n, universe)
    check = verify_generates(gens, universe, workers=ctx.workers)
    if not check.generates:
        return _fmt_fail(
            f"missing {len(check.missing)}, extra {len(check.extra)} codes")
    return _fmt_pass(
        f"closure of the {len(gens)} rank-≥{n - 2} elements equals FI_{n}")


def _run_lemma6(n: int, ctx: VerifyContext) -> tuple[str, str]:
    checks = verify_lemma6(n, ctx.universe(n), workers=ctx.workers)
    bad = [c for c in checks if not (c.holds and c.complement_exact)]
    if bad:
        return _fmt_fail(
            "; ".join(f"R_{c.i}: {c.intersection_size} reachable" for c in bad))
    sizes = ", ".join(f"|R_{c.i}|={c.r_size}" for c in checks)
    return _fmt_pass(f"complement closures avoid every class ({sizes})")


def _run_bf4(n: int, ctx: VerifyContext) -> tuple[str, str]:
    check = verify_lemma_bf4(n, ctx.universe(n))
    if not check.holds:
        return _fmt_fail(f"{len(check.failures)} of {check.checked} violate the law")
    return _fmt_pass(
        f"all {check.checked} rank-≥{n - 2} parity-changers have one boundary point")


def _run_prop7(n: int, ctx: VerifyContext) -> tuple[str, str]:
    result = verify_prop7_claims(n, ctx.universe(n))
    if result.vacuous:
        return _fmt_pass("vacuous: no even class index in 4..(n−1)/2")
    if not result.holds:
        bad = [c for c in result.classes if not c.holds]
        return _fmt_fail("; ".join(f"R_{c.i} violated" for c in bad))
    parts = []
    for c in result.classes:
        sizes = sorted({a.intersection_size for a in c.alphas})
        parts.append(f"R_{c.i}: size 16, reachable ≤ {max(sizes)} per adjoined element")
    return _fmt_pass("; ".join(parts))


def _run_minimal_rank(n: int, ctx: VerifyContext) -> tuple[str, str]:
    from .closure import verify_generates

    universe = ctx.universe(3)
    found = minimal_rank_exhaustive(universe)
    if found != 5:
        return _fmt_fail(f"exhaustive search found a generating {found}-subset")
    if not verify_generates(build_G(3), universe).generates:
        return _fmt_fail("G_3 does not generate FI_3")
    return _fmt_pass("no 4-subset generates; the 5-element G_3 does")


def _par_codes(universe: ElementUniverse) -> np.ndarray:
    n = universe.n
    mat = universe.images_matrix
    points = np.arange(1, n + 1, dtype=np.int64)[None, :]
    changing = (mat > 0) & ((points - mat) % 2 == 1)
    return universe.codes_array[changing.any(axis=1)]


def _run_parity_sweep(n: int, ctx: VerifyContext) -> tuple[str, str]:
    from .constructions import parity_reduce

    universe = ctx.universe(n)
    par = _par_codes(universe)
    if len(par) <= ctx.sample_size:
        picked = par
        how = f"all {len(par)}"
    else:
        picked = ctx.rng().choice(par, size=ctx.sample_size, replace=False)
        how = f"{ctx.sample_size} sampled of {len(par)}"
    beta_labels_ok = True
    for code in picked:
        f = decode(n, int(code))
        dec = parity_reduce(f)
        if dec.recompose() != f or parity_points(dec.core):
            return _fmt_fail(f"decomposition invalid for code {int(code)}")
        for lab in dec.left_labels + dec.right_labels:
            if lab != "id" and not lab.startswith("beta_"):
                beta_labels_ok = False
    if not beta_labels_ok:
        return _fmt_fail("a factor fell outside the id/beta alphabet")
    return _fmt_pass(f"{how} parity-changers decompose and recompose exactly")


def _run_convex_sweep(n: int, ctx: VerifyContext) -> tuple[str, str]:
    from .constructions import convex_extend
    from .fence import is_convex

    universe = ctx.universe(n)
    count = 0
    for f in universe.members():
        if f.rank > n - 3 or not is_convex(f.domain):
            continue
        ext = convex_extend(f)
        if ext.recompose() != f or ext.extended.rank != f.rank + 1:
            return _fmt_fail(f"extension invalid for code {encode(f)}")
        count += 1
    return _fmt_pass(f"all {count} convex-domain elements of rank ≤ {n - 3} extend")


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
        GRADE_MACHINE, (3, 5, 7), _run_generates_j),
    ClaimSpec(
        "lemma6",
        "no product of elements outside R_i lands in R_i",
        GRADE_MACHINE, (5, 7), _run_lemma6),
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
    ctx: VerifyContext | None = None,
    claim_ids: tuple[str, ...] | None = None,
) -> VerificationReport:
    """Run the registry at a given n.  Claims outside their designated sizes
    (or outside an explicit claim filter) are reported as skipped; every
    registry claim appears exactly once."""
    check_fence_size(n)
    ctx = ctx or VerifyContext()
    if claim_ids is not None:
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
