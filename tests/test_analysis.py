"""Rank values, R_i classes, lemma checks, and the claim registry."""

import json
from itertools import combinations

import pytest

from fenceinj import (
    CapacityError,
    VerifyContext,
    build_G,
    claim_registry,
    close,
    close_excluding,
    compose,
    decode,
    encode,
    gamma,
    minimal_rank_exhaustive,
    r_class,
    rank_formula,
    rank_grade,
    run_verification,
    top_layer_closure,
    verify_lemma6,
    verify_lemma_bf4,
    verify_prop7_claims,
)
from fenceinj import closure as closure_module
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


def test_prop7_vacuous_below_nine(u5, u7):
    assert verify_prop7_claims(5, u5).vacuous
    assert verify_prop7_claims(7, u7).vacuous


def test_prop7_at_nine(u9):
    result = verify_prop7_claims(9, u9)
    assert not result.vacuous and result.holds
    (cls,) = result.classes
    assert cls.i == 4 and cls.r_size == 16
    assert len(cls.alphas) == 16
    sizes = sorted(a.intersection_size for a in cls.alphas)
    assert sizes == [4] * 4 + [8] * 12
    assert all(a.within_bound and a.matches_pair_closure for a in cls.alphas)


def test_top_layer_fixpoint_matches_honest_closure(u5):
    """``top_layer_closure`` must agree with a genuine closure of
    {α} ∪ (FI_n ∖ R_i) for every class and every adjoined element."""
    n = 5
    top = [int(c) for c in u5.codes_array[u5.ranks >= n - 1]]
    for i in (1, 2, 3):
        cls = r_class(n, i, u5)
        in_class = set(cls.codes)
        outside = [c for c in top if c not in in_class]
        for a in cls.codes:
            meet = top_layer_closure(n, outside + [a]) & in_class
            honest = close_excluding(
                u5, tuple(c for c in cls.codes if c != a))
            assert meet == honest.members & in_class, (i, a)


def test_minimal_rank(u3, u5):
    assert minimal_rank_exhaustive(u3) == 5
    with pytest.raises(CapacityError):
        minimal_rank_exhaustive(u5)


def test_cayley_table_multiplies_on_the_right(u3):
    """``right[b][a]`` is a·b: a first, then b."""
    table = _CayleyTable(u3)
    elements = list(u3.members())
    for b, f in enumerate(elements):
        for a, e in enumerate(elements):
            assert u3.codes[table.right[b][a]] == encode(compose(e, f))


def test_minimal_rank_search_order(u3, monkeypatch):
    """γ_3 alone first, then every subset containing γ_3 by size and in
    ``combinations`` order, up to the first generating one."""
    gam = encode(gamma(3))
    others = [c for c in u3.codes if c != gam]
    expected = [(gam,) + extra for size in range(1, 6)
                for extra in combinations(others, size - 1)]
    seen = []
    closure = _CayleyTable.closure

    def spy(self, codes):
        seen.append(tuple(codes))
        return closure(self, seen[-1])

    monkeypatch.setattr(_CayleyTable, "closure", spy)
    assert minimal_rank_exhaustive(u3) == 5
    assert len(seen) > 834
    assert seen == expected[:len(seen)]
    assert closure(_CayleyTable(u3), seen[-1]) == (1 << 18) - 1


def test_cayley_closure_matches_engine_at_n3(u3):
    """Every subset of size ≤ 4 that contains γ_3: the table fixpoint and
    the engine close it to sets of the same size."""
    closure = _CayleyTable(u3).closure
    gam = encode(gamma(3))
    others = [c for c in u3.codes if c != gam]
    checked = 0
    for size in range(1, 5):
        for extra in combinations(others, size - 1):
            rest = u3.code_set.difference(extra, (gam,))
            mask = closure((gam,) + extra)
            assert mask.bit_count() == len(close_excluding(u3, rest)), extra
            checked += 1
    assert checked == 834


def test_cayley_closure_matches_engine_at_n5(u5):
    """G_5 generates all 182 elements over the table, and each G_5 minus one
    generator closes to the same members as the engine gives."""
    closure = _CayleyTable(u5).closure

    def members(mask):
        return {c for k, c in enumerate(u5.codes) if mask >> k & 1}

    gens = build_G(5)
    assert closure(encode(g) for _, g in gens) == (1 << 182) - 1
    for label, _ in gens:
        fewer = gens.without(label)
        reached = members(closure(encode(g) for _, g in fewer))
        assert reached == close(fewer).members, label
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
    assert fresh.universe(3).codes == first.codes
