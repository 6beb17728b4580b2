"""Acceptance gate: one test, and one printed pass line, per criterion.

Run with ``pytest -v tests/test_acceptance.py`` to get a pass/fail line per
criterion; the printed summaries (visible with ``-s`` or in failure output)
carry the measured quantities.
"""

import json
import random
import time

import numpy as np

from fenceinj import (
    alpha,
    alpha_pair,
    beta_even,
    beta_odd,
    build_G,
    build_J,
    close,
    close_excluding,
    compose,
    decode,
    encode,
    evaluate_word,
    gamma,
    is_convex,
    minimal_rank_exhaustive,
    convex_extend,
    parity_points,
    parity_reduce,
    rank_formula,
    restrict_identity,
    r_class,
    verify_generates,
    verify_lemma6,
    verify_lemma_bf4,
    verify_prop7_claims,
)
from fenceinj.analysis import _CayleyTable
from fenceinj.cli import main


def test_criterion_01_rank_values(capsys):
    expected = {1: 2, 3: 5, 5: 6, 7: 10, 9: 14, 11: 19}
    started = time.perf_counter()
    for n, value in expected.items():
        code = main(["rank", "--n", str(n), "--format", "json"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["rank"] == value, (n, doc)
    elapsed = time.perf_counter() - started
    assert elapsed < 5
    with capsys.disabled():
        print(f"\ncriterion 1: PASS — rank --n k gives {list(expected.values())} "
              f"for n = {list(expected)} ({elapsed:.2f}s)")


def test_criterion_02_generating_set_consistency(capsys):
    for n in (3, 5, 7, 9, 11, 13):
        assert len(build_G(n)) == rank_formula(n), n
    with capsys.disabled():
        print("criterion 2: PASS — |build_G(n)| = rank_formula(n) for n = 3..13")


def test_criterion_03_G_generates(u3, u5, u7, u9, capsys):
    for u in (u3, u5, u7):
        assert np.array_equal(close(build_G(u.n)).member_codes, u.codes), u.n
    started = time.perf_counter()
    result = close(build_G(9), workers=1)
    elapsed = time.perf_counter() - started
    assert np.array_equal(result.member_codes, u9.codes)
    assert elapsed < 300
    with capsys.disabled():
        print(f"criterion 3: PASS — close(G_n) = FI_n for n = 3,5,7,9 "
              f"(n=9 single-threaded in {elapsed:.2f}s)")


def test_criterion_04_J_generates(u3, u5, u7, capsys):
    started = time.perf_counter()
    for u in (u3, u5, u7):
        check = verify_generates(build_J(u.n, u), u)
        assert check.generates, u.n
    elapsed = time.perf_counter() - started
    assert elapsed < 60
    with capsys.disabled():
        print(f"criterion 4: PASS — close(J_n) = FI_n for n = 3,5,7 "
              f"({elapsed:.2f}s)")


def test_criterion_05_minimal_rank_n3(u3, capsys):
    started = time.perf_counter()
    assert minimal_rank_exhaustive(u3) == 5
    assert verify_generates(build_G(3), u3).generates
    elapsed = time.perf_counter() - started
    assert elapsed < 10
    with capsys.disabled():
        print(f"criterion 5: PASS — no 4-subset of FI_3 generates, G_3 does "
              f"({elapsed:.2f}s)")


def test_criterion_06_identity_table(capsys):
    # interior alpha-pair factorization uses the mirror-complement middle
    # index n+1−(j−i); the naive middle index j−i only matches when the two
    # coincide (see test_generators for the explicit counterexample)
    checked = 0
    for n in (5, 7, 9, 11, 13):
        def id_minus(*pts):
            return restrict_identity(
                n, [x for x in range(1, n + 1) if x not in pts])

        for i in range(2, n, 2):
            assert compose(beta_even(n, i), beta_odd(n, i)) == id_minus(i - 1, i + 1)
            checked += 1
        for i in range(2, n, 2):
            assert compose(alpha(n, i), alpha(n, i)) == id_minus(i)
            checked += 1
        for i in range(1, n + 1):
            for j in range(i + 2, n + 1, 2):
                ap = alpha_pair(n, i, j)
                assert compose(ap, ap) == id_minus(i, j)
                checked += 1
        assert alpha_pair(n, 1, n) == compose(
            compose(gamma(n), alpha(n, 1)), alpha(n, n))
        checked += 1
        for i in range(2, n, 2):
            for j in range(i + 2, n, 2):
                assert alpha_pair(n, i, j) == compose(
                    compose(alpha(n, i), alpha(n, n + 1 - (j - i))), alpha(n, i))
                checked += 1
        for a in range((n + 1) // 2 + 1, n):
            if a % 2 == 0:
                b = n - a + 1
                assert beta_odd(n, a) == compose(
                    compose(alpha(n, 2), beta_odd(n, b)), gamma(n))
                checked += 1
    with capsys.disabled():
        print(f"criterion 6: PASS — {checked} identity-table instances hold "
              f"pointwise for n = 5..13")


def test_criterion_07_complement_closures(u5, u7, capsys):
    started = time.perf_counter()
    for u in (u5, u7):
        n = u.n
        top = u.codes[u.ranks >= n - 1].tolist()
        table = _CayleyTable(n, top, floor=n - 1)
        for check in verify_lemma6(n, u):
            assert check.holds, (n, check.i)
            assert check.intersection_size == 0
            # the honest reference: close the whole complement FI_n ∖ R_i
            in_class = set(r_class(n, check.i, u).codes)
            honest = set(close_excluding(u, in_class).member_codes.tolist())
            assert not honest & in_class, (n, check.i)
            mask = table.closure(c for c in top if c not in in_class)
            floored = {c for k, c in enumerate(top) if mask >> k & 1}
            assert honest & set(top) == floored, (n, check.i)
            assert check.closure_size == len(floored)
    elapsed = time.perf_counter() - started
    assert elapsed < 600
    with capsys.disabled():
        print(f"criterion 7: PASS — close_excluding(FI_n, R_i) ∩ R_i = ∅ and its "
              f"rank-≥(n−1) part is the layer table's closure, all i at n = 5,7 "
              f"({elapsed:.2f}s)")


def test_criterion_08_single_element_bound(u9, capsys):
    started = time.perf_counter()
    result = verify_prop7_claims(9, u9)
    elapsed = time.perf_counter() - started
    (cls,) = [c for c in result.classes if c.i == 4]
    assert cls.r_size == 16
    assert len(cls.alphas) == 16
    for a in cls.alphas:
        assert a.intersection_size <= 8, a
        assert a.within_bound and a.matches_pair_closure, a
    assert elapsed < 1800
    with capsys.disabled():
        print(f"criterion 8: PASS — |R_4| = 16 at n=9; each adjoined element "
              f"reaches ≤ 8 members, all inside its two-generator word set "
              f"({elapsed:.2f}s)")


def test_criterion_09_parity_point_law(u5, u7, u9, capsys):
    started = time.perf_counter()
    counts = {}
    for u in (u5, u7, u9):
        check = verify_lemma_bf4(u.n, u)
        assert check.holds, u.n
        counts[u.n] = check.checked
    elapsed = time.perf_counter() - started
    assert elapsed < 60
    with capsys.disabled():
        print(f"criterion 9: PASS — unique boundary parity point on J_n ∩ Par_n, "
              f"checked {counts} ({elapsed:.2f}s)")


def test_criterion_10_constructive_lemmas(u5, u7, u9, capsys):
    started = time.perf_counter()
    swept = 0
    for f in u5.members():
        if parity_points(f):
            dec = parity_reduce(f)
            assert dec.recompose() == f and not parity_points(dec.core)
            swept += 1
    assert swept == 76
    rng = random.Random(20240801)
    sampled = 0
    for u in (u7, u9):
        par = [c for c, f in zip(u.codes, u.members()) if parity_points(f)]
        for _ in range(10_000):
            f = decode(u.n, rng.choice(par))
            dec = parity_reduce(f)
            assert dec.recompose() == f and not parity_points(dec.core)
            sampled += 1
    extended = 0
    for f in u5.members():
        if f.rank <= 2 and is_convex(f.domain):
            ext = convex_extend(f)
            assert ext.recompose() == f and ext.extended.rank == f.rank + 1
            extended += 1
    assert extended == 42
    convex7 = [f for f in u7.members() if f.rank <= 4 and is_convex(f.domain)]
    for f in rng.sample(convex7, 100):
        ext = convex_extend(f)
        assert ext.recompose() == f and ext.extended.rank == f.rank + 1
    elapsed = time.perf_counter() - started
    assert elapsed < 120
    with capsys.disabled():
        print(f"criterion 10: PASS — parity_reduce exact on all 76 of Par_5 and "
              f"{sampled} samples at n = 7,9; convex_extend exact on all 42 at "
              f"n=5 and 100 samples at n=7 ({elapsed:.2f}s)")


def test_criterion_11_witness_soundness_and_determinism(
        tmp_path, g5_closure, g9_closure, capsys):
    gens5, gens9 = build_G(5), build_G(9)
    for code, word in g5_closure.witness_items():
        assert encode(evaluate_word(word, gens5)) == code
    rng = random.Random(11)
    for code in rng.sample(g9_closure.member_codes.tolist(), 300):
        assert encode(evaluate_word(g9_closure.witness(code), gens9)) == code
    lone = close(build_G(7), workers=1)
    many = close(build_G(7), workers=8)
    pairs = {}
    for tag, result in (("lone", lone), ("many", many)):
        tree_path = tmp_path / f"{tag}.tree"
        result.save(tree_path)
        pairs[tag] = (tree_path.read_bytes(),
                      tree_path.with_name(f"{tag}.tree.json").read_bytes())
    assert pairs["lone"] == pairs["many"]
    with capsys.disabled():
        print("criterion 11: PASS — all witnesses re-evaluate to their elements; "
              "n=7 closure artifacts byte-identical for 1 vs 8 workers")
