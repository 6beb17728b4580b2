"""Rank values, R_i classes, lemma checks, and the claim registry."""

import json

import pytest

from fenceinj import (
    CapacityError,
    GeneratorSet,
    VerifyContext,
    claim_registry,
    close,
    close_excluding,
    decode,
    minimal_rank_exhaustive,
    r_class,
    rank_formula,
    rank_grade,
    run_verification,
    verify_lemma6,
    verify_lemma_bf4,
    verify_prop7_claims,
)
from fenceinj.analysis import (
    GRADE_FORMULA,
    GRADE_MACHINE,
    GRADE_PROVED,
    ClaimCheck,
    VerificationReport,
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
        for f in cls.members():
            assert f.rank == n - 1
            missing = set(range(1, n + 1)) - set(f.domain)
            assert missing <= set(cls.omitted_points)


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
    for c in checks:
        assert c.holds and c.complement_exact
        assert c.intersection_size == 0
        assert c.closure_size == len(u5) - c.r_size


def test_lemma6_cap(u9):
    with pytest.raises(CapacityError):
        verify_lemma6(9, u9)


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
    assert cls.i == 4 and cls.r_size == 16 == cls.r_size_expected
    assert len(cls.alphas) == 16
    sizes = sorted(a.intersection_size for a in cls.alphas)
    assert sizes == [4] * 4 + [8] * 12
    assert all(a.within_bound and a.matches_pair_closure for a in cls.alphas)


def test_top_layer_fixpoint_matches_honest_closure(u5):
    """The engine floored at rank n−1 must agree with a genuine closure of
    {α} ∪ (FI_n ∖ R_i) for every class and every adjoined element."""
    n = 5
    top = [int(c) for c in u5.codes_array[u5.ranks >= n - 1]]
    for i in (1, 2, 3):
        cls = r_class(n, i, u5)
        in_class = set(cls.codes)
        outside = [c for c in top if c not in in_class]
        for a in cls.codes:
            gens = GeneratorSet(n, tuple((str(c), decode(n, c))
                                         for c in outside + [a]))
            meet = close(gens, min_rank=n - 1).members & in_class
            honest = close_excluding(
                u5, tuple(c for c in cls.codes if c != a))
            assert meet == honest.members & in_class, (i, a)


def test_minimal_rank(u3, u5):
    assert minimal_rank_exhaustive(u3) == 5
    with pytest.raises(CapacityError):
        minimal_rank_exhaustive(u5)


def test_registry_shape():
    specs = claim_registry()
    assert [s.claim_id for s in specs] == EXPECTED_IDS
    assert all(s.grade == GRADE_MACHINE for s in specs)
    assert all(s.statement for s in specs)


def test_run_verification_n5(u5):
    ctx = VerifyContext(workers=1)
    ctx.put_universe(u5)
    report = run_verification(5, ctx)
    assert [c.claim_id for c in report.checks] == EXPECTED_IDS
    assert report.passed
    ran = {c.claim_id for c in report.checks if c.status == "pass"}
    assert "minimal-rank-n3" not in ran  # designated at n=3 only
    assert "identity-table" in ran and "lemma6" in ran
    for check in report.checks:
        assert check.status in ("pass", "fail", "skipped")


def test_run_verification_filter(u5):
    ctx = VerifyContext()
    ctx.put_universe(u5)
    report = run_verification(5, ctx, claim_ids=("G-size-formula",))
    by_id = {c.claim_id: c for c in report.checks}
    assert by_id["G-size-formula"].status == "pass"
    assert by_id["lemma6"].status == "skipped"
    assert by_id["lemma6"].evidence == "filtered out"
    with pytest.raises(ValueError):
        run_verification(5, ctx, claim_ids=("no-such-claim",))


def test_report_serialization(u5):
    ctx = VerifyContext()
    ctx.put_universe(u5)
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
