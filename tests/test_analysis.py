"""Rank values, R_i classes, lemma checks, and the claim registry."""

import hashlib
import json
from itertools import combinations

import numpy as np
import pytest

from fenceinj import (
    CapacityError,
    ElementUniverse,
    GeneratorSet,
    PartialInjection,
    VerifyContext,
    build_G,
    build_J,
    claim_registry,
    close,
    close_excluding,
    compose,
    convex_extend,
    decode,
    encode,
    gamma,
    is_convex,
    minimal_rank_exhaustive,
    parity_points,
    parse_map,
    r_class,
    rank_formula,
    rank_grade,
    run_verification,
    verify_lemma6,
    verify_lemma_bf4,
    verify_prop7_claims,
)
from fenceinj import analysis
from fenceinj import closure as closure_module
from fenceinj import constructions
from fenceinj import fence as fence_module
from fenceinj import generators as generators_module
from fenceinj.analysis import (
    GRADE_FORMULA,
    GRADE_MACHINE,
    GRADE_PROVED,
    ClaimCheck,
    VerificationReport,
    _CayleyTable,
)

EXPECTED_IDS = [
    "identity-table", "G-size-formula", "pair-count",
    "rank-formula-consistency", "generates-Gn", "generates-Jn", "lemma6",
    "lemma-bf4", "prop7-claims", "minimal-rank-n3", "parity-reduce-sweep",
    "convex-extend-sweep",
]


def test_rank_formula_values():
    assert [rank_formula(n) for n in (1, 3, 5, 7, 9, 11, 13)] == [
        2, 5, 6, 10, 14, 19, 24]
    with pytest.raises(ValueError):
        rank_formula(4)


def test_rank_grades():
    assert rank_grade(1) == GRADE_PROVED
    assert rank_grade(3) == GRADE_PROVED
    assert rank_grade(5) == GRADE_FORMULA
    assert rank_grade(13) == GRADE_FORMULA


@pytest.mark.parametrize("n,sizes", [
    (5, [4, 8, 2]),
    (7, [4, 8, 4, 8]),
    (9, [4, 8, 4, 16, 2]),
])
def test_r_class_sizes(n, sizes, u5, u7, u9):
    u = {5: u5, 7: u7, 9: u9}[n]
    classes = [r_class(n, i, u) for i in range(1, (n + 1) // 2 + 1)]
    assert [len(c) for c in classes] == sizes
    # the classes partition the rank-(n−1) layer
    all_codes = [c for cls in classes for c in cls.codes]
    assert len(all_codes) == len(set(all_codes))
    assert len(all_codes) == u.rank_histogram[n - 1]
    for cls in classes:
        for code in cls.codes:
            f = decode(n, code)
            assert f.rank == n - 1
            missing = set(range(1, n + 1)) - set(f.domain)
            assert missing <= {cls.i, n - cls.i + 1}


def test_r_class_partition_n3(u3):
    classes = [r_class(3, i, u3) for i in (1, 2)]
    all_codes = [c for cls in classes for c in cls.codes]
    assert len(all_codes) == len(set(all_codes)) == u3.rank_histogram[2]


def test_r_class_index_must_be_an_integer(u5):
    # 1.5 used to give an empty class and True the class R_1
    for bad in (1.5, True, "1"):
        with pytest.raises(ValueError, match="^class index must be an integer"):
            r_class(5, bad, u5)
    assert r_class(5, np.int64(2), u5).codes == r_class(5, 2, u5).codes
    with pytest.raises(ValueError, match=r"^class index 4 out of range 1\.\.3$"):
        r_class(5, 4, u5)


def test_r_class_validation(u5):
    with pytest.raises(ValueError):
        r_class(5, 0, u5)
    with pytest.raises(ValueError):
        r_class(5, 4, u5)
    with pytest.raises(ValueError):
        r_class(7, 1, u5)


def test_lemma6_n5(u5):
    checks = verify_lemma6(5, u5)
    assert [c.i for c in checks] == [1, 2, 3]
    top = sum(u5.rank_histogram[4:])
    for c in checks:
        assert c.holds
        assert c.intersection_size == 0
        assert c.closure_size == top - c.r_size


def test_lemma6_n9(u9):
    checks = verify_lemma6(9, u9)
    assert [c.r_size for c in checks] == [4, 8, 4, 16, 2]
    assert all(c.holds for c in checks)


def test_bf4(u5, u7, u9):
    for u, count in ((u5, 16), (u7, 24), (u9, 32)):
        check = verify_lemma_bf4(u.n, u)
        assert check.holds
        assert check.checked == count
        assert check.failures == ()


def test_bf4_reports_planted_violations(u5):
    """Two rank-≥3 non-members planted among FI_5's codes: 2,1,3,4,5 has
    two parity-changing points, 1,2,4,_,_ one at the interior point 3 ↦ 4.
    The sweep counts both and names exactly them, in ascending order."""
    planted = sorted(encode(parse_map(5, text))
                     for text in ("2,1,3,4,5", "1,2,4,_,_"))
    assert not set(planted) & set(u5.codes.tolist())
    codes = np.sort(np.concatenate([u5.codes, planted]))
    check = verify_lemma_bf4(5, ElementUniverse(5, codes))
    assert check.checked == 18
    assert check.failures == tuple(planted)
    assert not check.holds


def _bf4_by_parity_points(n, universe):
    """The unique-boundary-point law, one decoded element at a time."""
    checked, failures = 0, []
    for code in universe.codes[universe.ranks >= n - 2].tolist():
        f = decode(n, code)
        pts = parity_points(f)
        if not pts:
            continue
        checked += 1
        if not (len(pts) == 1 and (pts[0] in (1, n) or f.images[pts[0] - 1] in (1, n))):
            failures.append(code)
    return checked, tuple(failures)


@pytest.mark.parametrize("n", [5, 7, 9])
def test_bf4_kernel_matches_a_parity_points_loop(n, request):
    """On the rank-≥(n−2) rows of FI_n, and on those rows with 300 seeded
    partial injections of rank ≥ n−2 added, which break the law in every
    way: several changing points, or one away from the boundary."""
    universe = request.getfixturevalue(f"u{n}")
    rng = np.random.default_rng(n)
    extra = set()
    for _ in range(300):
        images = [0] * n
        dom = rng.choice(n, size=rng.integers(n - 2, n + 1), replace=False)
        for x, y in zip(dom.tolist(), rng.permutation(n)[:len(dom)].tolist()):
            images[x] = y + 1
        extra.add(encode(PartialInjection(n, tuple(images))))
    planted = ElementUniverse(n, np.union1d(universe.codes, sorted(extra)))
    for u in (universe, planted):
        check = verify_lemma_bf4(n, u)
        assert (check.checked, check.failures) == _bf4_by_parity_points(n, u)
    assert check.failures


def test_prop7_vacuous_below_nine(u5, u7):
    assert verify_prop7_claims(5, u5).vacuous
    assert verify_prop7_claims(7, u7).vacuous


@pytest.mark.parametrize("n", [3, 5, 7])
def test_vacuous_prop7_builds_no_layer_table(n, request, monkeypatch):
    def refuse(*args):
        raise AssertionError("_top_classes was called")

    monkeypatch.setattr(analysis, "_top_classes", refuse)
    result = verify_prop7_claims(n, request.getfixturevalue(f"u{n}"))
    assert result.vacuous and result.holds
    with pytest.raises(ValueError, match="universe is for n=3"):
        verify_prop7_claims(5, request.getfixturevalue("u3"))


def test_prop7_at_nine(u9):
    result = verify_prop7_claims(9, u9)
    assert not result.vacuous and result.holds
    (cls,) = result.classes
    assert cls.i == 4 and cls.r_size == 16
    assert len(cls.alphas) == 16
    sizes = sorted(a.intersection_size for a in cls.alphas)
    assert sizes == [4] * 4 + [8] * 12
    assert all(a.within_bound and a.matches_pair_closure for a in cls.alphas)


def _layer_members(table, mask):
    return {c for c, k in table.index.items() if mask >> k & 1}


def test_top_layer_fixpoint_matches_honest_closure(u5):
    """The rank-≥(n−1) layer table must agree with a genuine closure of
    {α} ∪ (FI_n ∖ R_i) for every class and every adjoined element."""
    n = 5
    top = u5.codes[u5.ranks >= n - 1].tolist()
    table = _CayleyTable(n, top, floor=n - 1)
    for i in (1, 2, 3):
        cls = r_class(n, i, u5)
        in_class = set(cls.codes)
        outside = [c for c in top if c not in in_class]
        for a in cls.codes:
            meet = _layer_members(table, table.closure(outside + [a])) & in_class
            honest = close_excluding(
                u5, tuple(c for c in cls.codes if c != a))
            assert meet == set(honest.member_codes.tolist()) & in_class, (i, a)


@pytest.mark.parametrize("n", [7, 9])
def test_engine_floor_matches_the_layer_table(n, request, monkeypatch):
    """Every set lemma6 and prop7 close at n, closed again by the engine
    with ``min_rank`` = n−1: the same rank-≥(n−1) members.  No claim uses
    the engine's floor, so this keeps it checked."""
    universe = request.getfixturevalue(f"u{n}")
    closed = []
    closure = _CayleyTable.closure

    def spy(self, codes):
        codes = list(codes)
        mask = closure(self, codes)
        closed.append((codes, _layer_members(self, mask)))
        return mask

    monkeypatch.setattr(_CayleyTable, "closure", spy)
    verify_lemma6(n, universe)
    verify_prop7_claims(n, universe)
    # lemma6 closes one complement per class; prop7 two sets per α in R_4
    assert len(closed) == {7: 4, 9: 5 + 2 * 16}[n]
    for codes, members in closed:
        gens = GeneratorSet.from_codes(n, codes)
        assert close(gens, min_rank=n - 1).member_codes.tolist() == sorted(members), codes


@pytest.mark.parametrize("n", [5, 7, 9])
def test_top_class_claims_do_not_use_the_engine(n, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the closure engine was called")

    monkeypatch.setattr(closure_module, "_close_rows", refuse)
    report = run_verification(n, VerifyContext(), ("lemma6", "prop7-claims"))
    ran = [c for c in report.checks if c.status != "skipped"]
    assert [c.claim_id for c in ran] == ["lemma6", "prop7-claims"]
    assert all(c.status == "pass" for c in ran), ran


def test_layer_table_refuses_a_missing_product(u5):
    """γ·γ = id: a rank-≥(n−1) layer without the identity misses a product
    above the floor, and the table refuses it."""
    n = 5
    ident = encode(PartialInjection.identity(n))
    top = u5.codes[u5.ranks >= n - 1].tolist()
    assert ident in top
    _CayleyTable(n, top, floor=n - 1)
    with pytest.raises(ValueError, match="missing from the rank-≥4 layer"):
        _CayleyTable(n, [c for c in top if c != ident], floor=n - 1)


def test_minimal_rank(u3, u5):
    assert minimal_rank_exhaustive(u3) == 5
    with pytest.raises(CapacityError):
        minimal_rank_exhaustive(u5)


def test_cayley_table_multiplies_on_the_right(u3):
    """``right[b][a]`` is a·b: a first, then b."""
    table = _CayleyTable(3, u3.codes)
    elements = list(u3.members())
    for b, f in enumerate(elements):
        for a, e in enumerate(elements):
            assert u3.codes[table.right[b][a]] == encode(compose(e, f))


def _compose_table(n, codes, floor):
    """The reference table, one ``compose`` per pair."""
    elements = [decode(n, c) for c in codes]
    index = {c: k for k, c in enumerate(codes)}
    return [[len(codes) if (ab := compose(a, b)).rank < floor
             else index[encode(ab)] for a in elements] for b in elements]


@pytest.mark.parametrize("n", [3, 5, 7, 9, 11])
def test_row_built_table_matches_compose(n, request):
    """``right[b][a]`` is the index of compose(a, b), or the sentinel: all
    of FI_3 and the rank-≥(n−1) layer at n = 5, 7, 9, and at n = 11, which
    has no census, the top layer of the closure of G_11 floored at 10."""
    if n == 3:
        codes, floor = request.getfixturevalue("u3").codes.tolist(), 0
    elif n == 11:
        floor = n - 1
        codes = close(build_G(n), min_rank=floor).member_codes.tolist()
    else:
        universe, floor = request.getfixturevalue(f"u{n}"), n - 1
        codes = universe.codes[universe.ranks >= floor].tolist()
    assert _CayleyTable(n, codes, floor).right == _compose_table(n, codes, floor)


def test_minimal_rank_search_order(u3, monkeypatch):
    """One batch per size, in order: γ_3 alone first, then every subset
    containing γ_3 of the next size in ``combinations`` order.  The search
    stops after the size-5 batch, whose first generating subset is the
    1,108th (index 1,107)."""
    gam = encode(gamma(3))
    others = [c for c in u3.codes.tolist() if c != gam]
    batches = []
    closures = _CayleyTable.closures

    def spy(self, gens):
        masks = closures(self, gens)
        batches.append(([tuple(u3.codes[row].tolist()) for row in gens], masks))
        return masks

    monkeypatch.setattr(_CayleyTable, "closures", spy)
    assert minimal_rank_exhaustive(u3) == 5
    assert len(batches) == 5
    for size, (subsets, masks) in enumerate(batches, 1):
        assert subsets == [(gam,) + extra
                           for extra in combinations(others, size - 1)]
        generating = np.flatnonzero(masks == (1 << 18) - 1).tolist()
        assert generating[:1] == ([1107] if size == 5 else [])


def test_batch_closures_match_the_per_set_closure(u3):
    """Every subset the search closes at n = 3: the batch mask equals the
    per-set ``closure`` bitmask."""
    table = _CayleyTable(3, u3.codes)
    gam = table.index[encode(gamma(3))]
    others = [k for k in range(18) if k != gam]
    checked = 0
    for size in range(1, 6):
        gens = np.array([(gam,) + extra
                         for extra in combinations(others, size - 1)])
        masks = table.closures(gens)
        for row, mask in zip(gens, masks.tolist()):
            assert mask == table.closure(u3.codes[row].tolist()), row
            checked += 1
    assert checked == 1 + 17 + 136 + 680 + 2380


def test_batch_closures_refuse_a_layer_wider_than_a_mask(u5):
    with pytest.raises(ValueError, match="at most 63 elements, not 182"):
        _CayleyTable(5, u5.codes).closures(np.zeros((1, 1), dtype=np.intp))


def test_cayley_closure_matches_engine_at_n3(u3):
    """Every subset of size ≤ 4 that contains γ_3: the table fixpoint and
    the engine close it to sets of the same size."""
    closure = _CayleyTable(3, u3.codes).closure
    gam = encode(gamma(3))
    others = [c for c in u3.codes if c != gam]
    checked = 0
    for size in range(1, 5):
        for extra in combinations(others, size - 1):
            rest = set(u3.codes.tolist()).difference(extra, (gam,))
            mask = closure((gam,) + extra)
            assert mask.bit_count() == len(close_excluding(u3, rest)), extra
            checked += 1
    assert checked == 834


def test_cayley_closure_matches_engine_at_n5(u5):
    """G_5 generates all 182 elements over the table, and each G_5 minus one
    generator closes to the same members as the engine gives."""
    closure = _CayleyTable(5, u5.codes).closure

    def members(mask):
        return {c for k, c in enumerate(u5.codes) if mask >> k & 1}

    gens = build_G(5)
    assert closure(encode(g) for _, g in gens) == (1 << 182) - 1
    for label, _ in gens:
        fewer = gens.without(label)
        reached = members(closure(encode(g) for _, g in fewer))
        assert sorted(reached) == close(fewer).member_codes.tolist(), label
        assert len(reached) < 182, label


def test_minimal_rank_does_not_use_the_engine(u3, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the closure engine was called")

    monkeypatch.setattr(closure_module, "_close_rows", refuse)
    with pytest.raises(AssertionError):
        close(build_G(3))
    assert minimal_rank_exhaustive(u3) == 5
    # the whole claim, the check that G_3 generates included
    report = run_verification(3, VerifyContext(), ("minimal-rank-n3",))
    (check,) = [c for c in report.checks if c.claim_id == "minimal-rank-n3"]
    assert check.status == "pass", check.evidence
    assert check.evidence == "no 4-subset generates; the 5-element G_3 does"


def test_registry_shape():
    specs = claim_registry()
    assert [s.claim_id for s in specs] == EXPECTED_IDS
    assert all(s.grade == GRADE_MACHINE for s in specs)
    assert all(s.statement for s in specs)


def test_run_verification_n5():
    ctx = VerifyContext(workers=1)
    report = run_verification(5, ctx)
    assert [c.claim_id for c in report.checks] == EXPECTED_IDS
    assert report.passed
    ran = {c.claim_id for c in report.checks if c.status == "pass"}
    assert "minimal-rank-n3" not in ran  # designated at n=3 only
    assert "identity-table" in ran and "lemma6" in ran
    for check in report.checks:
        assert check.status in ("pass", "fail", "skipped")


@pytest.mark.parametrize("n", [11, 13])
def test_run_verification_past_enumeration_cap(n):
    report = run_verification(n, VerifyContext())
    assert [c.claim_id for c in report.checks] == EXPECTED_IDS
    ran = {c.claim_id: c for c in report.checks if c.status != "skipped"}
    assert set(ran) == {"identity-table", "G-size-formula", "pair-count",
                        "rank-formula-consistency"}
    assert all(c.status == "pass" for c in ran.values())
    assert report.passed


@pytest.mark.parametrize("n", [1, 15])
def test_run_verification_refuses_a_size_with_no_claim(n):
    with pytest.raises(ValueError, match=f"no claim is designated at n={n}"):
        run_verification(n, VerifyContext())
    # a filtered run still reports the claim as skipped there
    report = run_verification(n, VerifyContext(), ("G-size-formula",))
    assert {c.status for c in report.checks} == {"skipped"}


def test_verify_context_workers_must_be_positive():
    for workers in (0, -1):
        with pytest.raises(ValueError):
            VerifyContext(workers=workers)


@pytest.mark.parametrize("name", ["workers", "seed"])
@pytest.mark.parametrize("value", [True, 1.5, 2.0, "2"])
def test_verify_context_refuses_non_integer_arguments(name, value):
    """A bool, float or str is refused when the context is made, not when a
    sampled claim such as ``parity-reduce-sweep`` at n = 9 first uses it."""
    with pytest.raises(ValueError, match=f"{name} must be an integer"):
        VerifyContext(**{name: value})
    ctx = VerifyContext(**{name: np.int64(2)})
    assert getattr(ctx, name) == 2


# SHA-256 of each registry report as JSON, "seconds" removed, keys sorted
# and compact: every claim's status and evidence string at each size
REPORT_DIGESTS = {
    3: "d992b4bd39d8c797845ecd43e6bc1d8987338f3f9e2fd1b6d741fde0ca3024a4",
    5: "474a6a82e0450ba422a13cc471a6a28a35e5e4b9f28981523e53c214131a72ac",
    7: "d941509d494afb0b750d19d1620d0f5a9deec59e53a62472f4290913bac2c63a",
    9: "ab67ca52f1e9c06095c0a6b82234b5f8e755d66e9bef2ce062f1911ef3865bd0",
    11: "ff127f50b01891e4d489f9cc41bccfae6f75ab0c85f48d2245ffb983b14315db",
    13: "07f8bbeda238c7f6914951c9333a382aeae5dc23893a3971d678999007de73f7",
}


@pytest.mark.parametrize("n", sorted(REPORT_DIGESTS))
def test_registry_reports_are_pinned(n):
    doc = run_verification(n, VerifyContext()).to_json()
    for check in doc["checks"]:
        del check["seconds"]
    text = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    assert hashlib.sha256(text.encode()).hexdigest() == REPORT_DIGESTS[n], text


def test_run_verification_filter():
    ctx = VerifyContext()
    report = run_verification(5, ctx, claim_ids=("G-size-formula",))
    by_id = {c.claim_id: c for c in report.checks}
    assert by_id["G-size-formula"].status == "pass"
    assert by_id["lemma6"].status == "skipped"
    assert by_id["lemma6"].evidence == "filtered out"
    with pytest.raises(ValueError):
        run_verification(5, ctx, claim_ids=("no-such-claim",))
    with pytest.raises(ValueError):
        run_verification(5, ctx, claim_ids=())
    # past 10,000 parity-changers the sweep checks a seeded sample of 10,000
    report = run_verification(9, ctx, claim_ids=("parity-reduce-sweep",))
    sweep = {c.claim_id: c for c in report.checks}["parity-reduce-sweep"]
    assert sweep.status == "pass"
    assert sweep.evidence == ("10000 sampled of 23312 parity-changers "
                              "decompose and recompose exactly")


def test_parity_sweep_reports_the_first_bad_code(monkeypatch):
    """Drop every step of two sampled words: their recomposition is the
    parity-preserving core, and the sweep names the earlier of the two."""
    reduce_words = constructions._reduce_words
    seen = []

    def wrong(words, n):
        cores, steps = reduce_words(words, n)
        steps[[40, 10]] = 0
        seen.append(words)
        return cores, steps

    monkeypatch.setattr(constructions, "_reduce_words", wrong)
    report = run_verification(5, VerifyContext(), ("parity-reduce-sweep",))
    sweep = {c.claim_id: c for c in report.checks}["parity-reduce-sweep"]
    (words,) = seen
    word = int(words[10])
    first = encode(PartialInjection(5, tuple(word >> 4 * k & 15 for k in range(5))))
    assert sweep.status == "fail"
    assert sweep.evidence == f"decomposition invalid for code {first}"


def _convex_inputs(universe):
    n = universe.n
    return [f for f in universe.members() if f.rank <= n - 3 and is_convex(f.domain)]


@pytest.mark.parametrize("pick", [0, 60, 127])
def test_convex_sweep_names_the_input_of_a_missing_extension(u7, pick):
    """FI_7 without the extension of one input: the sweep fails and names
    the least input whose extension is gone."""
    inputs = _convex_inputs(u7)
    extensions = [encode(convex_extend(f).extended) for f in inputs]
    removed = extensions[pick]
    named = min(encode(f) for f, e in zip(inputs, extensions) if e == removed)
    ctx = VerifyContext()
    ctx._universes[7] = ElementUniverse(7, u7.codes[u7.codes != removed])
    report = run_verification(7, ctx, ("convex-extend-sweep",))
    sweep = {c.claim_id: c for c in report.checks}["convex-extend-sweep"]
    assert sweep.status == "fail"
    assert sweep.evidence == f"extension invalid for code {named}"


def test_convex_sweep_refuses_a_point_already_in_the_domain(monkeypatch):
    """A w moved onto a defined point keeps the rank and changes δ: the
    sweep names the earliest row so moved."""
    extend_rows = constructions._extend_rows
    seen = []

    def wrong(images):
        w, x = extend_rows(images)
        for k in (30, 20):
            w[k] = np.flatnonzero(images[k])[0] + 1
        seen.append(images)
        return w, x

    monkeypatch.setattr(constructions, "_extend_rows", wrong)
    report = run_verification(5, VerifyContext(), ("convex-extend-sweep",))
    sweep = {c.claim_id: c for c in report.checks}["convex-extend-sweep"]
    (images,) = seen
    first = encode(PartialInjection(5, tuple(images[20].tolist())))
    assert sweep.status == "fail"
    assert sweep.evidence == f"extension invalid for code {first}"


@pytest.mark.parametrize("n", [3, 5, 7])
def test_j_row_closure_builds_the_tree_of_close_build_j(n, request):
    universe = request.getfixturevalue(f"u{n}")
    rows = analysis._close_J(universe)
    reference = close(build_J(n, universe))
    assert rows.labels == reference.labels
    for name in ("_order_codes", "_parents", "_genidx", "member_codes"):
        assert np.array_equal(getattr(rows, name), getattr(reference, name)), name
    assert rows.stats.level_sizes == reference.stats.level_sizes
    assert rows.stats.products == reference.stats.products


def test_census_row_claims_decode_no_element(monkeypatch):
    """lemma-bf4, convex-extend-sweep and generates-Jn read the census
    rows: no element is decoded, extended one at a time or closed through
    ``close``."""
    def refuse(*args, **kwargs):
        raise AssertionError("a per-element path was called")

    for module, name in [(fence_module, "decode"), (generators_module, "decode"),
                         (constructions, "convex_extend"), (closure_module, "close")]:
        monkeypatch.setattr(module, name, refuse)
    claims = ("generates-Jn", "lemma-bf4", "convex-extend-sweep")
    report = run_verification(7, VerifyContext(), claims)
    ran = [c for c in report.checks if c.claim_id in claims]
    assert all(c.status == "pass" for c in ran), ran


def test_report_serialization():
    ctx = VerifyContext()
    report = run_verification(5, ctx, claim_ids=("G-size-formula",))
    doc = report.to_json()
    json.dumps(doc)  # must be serializable
    assert doc["n"] == 5 and doc["passed"] is True
    assert len(doc["checks"]) == len(EXPECTED_IDS)
    table = report.to_table()
    assert "overall: PASS" in table
    assert "G-size-formula" in table


def test_report_failure_semantics():
    good = ClaimCheck("a", "s", GRADE_MACHINE, "pass", "", 0.0)
    bad = ClaimCheck("b", "s", GRADE_MACHINE, "fail", "broke", 0.0)
    assert VerificationReport(5, (good,)).passed
    assert not VerificationReport(5, (good, bad)).passed
    assert VerificationReport(5, (good, bad)).failures == (bad,)


def test_context_universe_caching(tmp_path):
    ctx = VerifyContext(cache_dir=str(tmp_path))
    first = ctx.universe(3)
    assert (tmp_path / "universe_n3.bin").exists()
    assert ctx.universe(3) is first
    fresh = VerifyContext(cache_dir=str(tmp_path))
    assert fresh.universe(3).codes.tolist() == first.codes.tolist()
