"""Parity reduction and convex one-point extension."""

import re

import pytest

from fenceinj import (
    PartialInjection,
    beta_even,
    beta_odd,
    convex_extend,
    decode,
    is_convex,
    parity_points,
    parity_reduce,
    parse_map,
)

BETA_LABEL = re.compile(r"beta_(\d+)_(odd|even)")


def label_to_factor(n, label):
    if label == "id":
        return PartialInjection.identity(n)
    m = BETA_LABEL.fullmatch(label)
    assert m, label
    i = int(m.group(1))
    return beta_odd(n, i) if m.group(2) == "odd" else beta_even(n, i)


def test_trivial_when_parity_preserving():
    f = PartialInjection.identity(5)
    dec = parity_reduce(f)
    assert dec.left == () and dec.right == ()
    assert dec.core == f
    assert dec.recompose() == f
    assert dec.steps == 0


def test_single_step_example():
    delta = beta_odd(5, 2)  # moves 1 to 2: one parity-changing point
    dec = parity_reduce(delta)
    assert dec.recompose() == delta
    assert not parity_points(dec.core)
    assert dec.steps >= 1


def test_exhaustive_sweep_par5(u5):
    swept = 0
    for f in u5.members():
        pts = parity_points(f)
        if not pts:
            continue
        dec = parity_reduce(f)
        assert dec.recompose() == f
        assert not parity_points(dec.core)
        assert dec.steps <= len(pts)
        assert len(dec.left) == len(dec.right) == dec.steps
        for label, factor in zip(dec.left_labels, dec.left):
            assert factor == label_to_factor(5, label)
            if label != "id":
                assert int(BETA_LABEL.fullmatch(label).group(1)) % 2 == 0
        for label, factor in zip(dec.right_labels, dec.right):
            assert factor == label_to_factor(5, label)
        swept += 1
    assert swept == 76


def test_sampled_sweep_par9(u9):
    import random

    rng = random.Random(99)
    par = [c for c, f in zip(u9.codes, u9.members()) if parity_points(f)]
    assert len(par) == 23312
    for code in rng.sample(par, 500):
        f = decode(9, code)
        dec = parity_reduce(f)
        assert dec.recompose() == f
        assert not parity_points(dec.core)


def test_convex_extend_empty_map():
    ext = convex_extend(PartialInjection.empty(5))
    assert ext.w == 1 and ext.x == 1
    assert ext.extended.rank == 1
    assert ext.recompose() == PartialInjection.empty(5)


def test_convex_extend_validation():
    with pytest.raises(ValueError):
        convex_extend(parse_map(5, "1,_,3,_,_"))  # non-convex domain
    with pytest.raises(ValueError):
        convex_extend(parse_map(5, "1,2,3,_,_"))  # rank n−2 too high


def test_convex_extend_sweep_n5(u5):
    swept = 0
    for f in u5.members():
        if f.rank > 2 or not is_convex(f.domain):
            continue
        ext = convex_extend(f)
        assert ext.recompose() == f
        assert ext.extended.rank == f.rank + 1
        # the new point and its fence neighbours avoid dom/im respectively
        for d in (-1, 0, 1):
            assert ext.w + d not in f.domain
            assert ext.x + d not in f.image_set
        # w and x are the least such choices
        for smaller in range(1, ext.w):
            assert any(smaller + d in f.domain for d in (-1, 0, 1)), f
        for smaller in range(1, ext.x):
            assert any(smaller + d in f.image_set for d in (-1, 0, 1)), f
        assert ext.dropper == PartialInjection.from_pairs(
            5, [(k, k) for k in range(1, 6) if k != ext.w])
        swept += 1
    assert swept == 42


def test_convex_extend_sweep_n7(u7):
    swept = 0
    for f in u7.members():
        if f.rank > 4 or not is_convex(f.domain):
            continue
        ext = convex_extend(f)
        assert ext.recompose() == f
        assert ext.extended.rank == f.rank + 1
        swept += 1
    assert swept == 128

