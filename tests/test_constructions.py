"""Parity reduction and convex one-point extension."""

import hashlib
import random
import re
from functools import reduce

import numpy as np
import pytest

from fenceinj import (
    PartialInjection,
    VerifyContext,
    Word,
    beta_even,
    beta_odd,
    build_G,
    compose,
    convex_extend,
    decode,
    encode,
    evaluate_word,
    is_convex,
    parity_points,
    parity_reduce,
    parse_map,
    run_verification,
)
from fenceinj import constructions
from fenceinj.constructions import (
    _beta_rows,
    _changing,
    _extend_rows,
    _recompose_words,
    _reduce_words,
)
from fenceinj.fence import _defined, _lowest, _nibble_bits, _pack, _unpack

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


def reference_peel(delta):
    """The scalar peel loop: (core, signed steps), one compose per step."""
    n = delta.n
    core, steps = delta, []
    while points := parity_points(core):
        x = points[0]
        if x % 2 == 1:
            i = core.images[x - 1]
            core = compose(core, beta_even(n, i))
            steps.append(i)
        else:
            core = compose(beta_odd(n, x), core)
            steps.append(-x)
    return core, steps


def par_rows(universe):
    words = universe.words
    return _unpack(words[_changing(words) != 0], universe.n)


def unpacked(words, n):
    """The m × n uint8 image rows of packed words, nibble by nibble."""
    shifts = 4 * np.arange(n, dtype=np.uint64)
    return (words[:, None] >> shifts & np.uint64(15)).astype(np.uint8)


# SHA-256 of the comma-joined sorted codes that the n = 9 sweep samples
# with seed 20240801, as the per-element sweep sampled them
PAR9_SAMPLE_SHA256 = (
    "1a68c050df332907c63ba527850cbbe0d689fce2b0a88472bcc953ca4876dba1")


@pytest.fixture(scope="module")
def par9_sample():
    """The image rows of the packed words that the registry's n = 9 sweep
    reduces."""
    captured = []

    def spy(words, n):
        captured.append(words.copy())
        return _reduce_words(words, n)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(constructions, "_reduce_words", spy)
        report = run_verification(9, VerifyContext(), ("parity-reduce-sweep",))
    assert {c.claim_id: c.status for c in report.checks}[
        "parity-reduce-sweep"] == "pass"
    (words,) = captured
    return unpacked(words, 9)


def test_par9_sample_is_pinned(par9_sample):
    codes = sorted(encode(PartialInjection(9, tuple(r))) for r in par9_sample.tolist())
    assert len(codes) == len(set(codes)) == 10_000
    digest = hashlib.sha256(",".join(map(str, codes)).encode()).hexdigest()
    assert digest == PAR9_SAMPLE_SHA256


def check_kernel(rows):
    """The batch kernel on the rows' packed words against the scalar peel
    loop and ``parity_reduce``, row by row, and its recomposition against
    the input words."""
    n = rows.shape[1]
    words = _pack(rows)
    cores, steps = _reduce_words(words, n)
    assert cores.dtype == np.uint64 and steps.dtype == np.int8
    longest = 0
    core_rows = unpacked(cores, n).tolist()
    for images, core, step in zip(rows.tolist(), core_rows, steps.tolist()):
        delta = PartialInjection(n, tuple(images))
        ref_core, ref_steps = reference_peel(delta)
        assert tuple(core) == ref_core.images
        assert step == ref_steps + [0] * (len(step) - len(ref_steps))
        dec = parity_reduce(delta)
        assert dec.core == ref_core and dec.steps == len(ref_steps)
        longest = max(longest, len(ref_steps))
    assert steps.shape[1] == longest
    assert not _changing(cores).any()
    recomposed = _recompose_words(cores, steps, n)
    assert recomposed is not cores and np.array_equal(recomposed, words)


@pytest.mark.parametrize("n", [5, 7])
def test_kernel_matches_the_peel_loop_on_par_n(n, request):
    rows = par_rows(request.getfixturevalue(f"u{n}"))
    assert len(rows) == {5: 76, 7: 1292}[n]
    check_kernel(rows)


def test_kernel_matches_the_peel_loop_on_the_n9_sample(par9_sample):
    check_kernel(par9_sample)


def test_kernel_in_small_pieces(u7, monkeypatch):
    """The β gathers take ``_PIECE`` words at a time; with 64, the 1,292
    rows of Par_7 span 21 pieces, the last one short, and the cores, steps
    and recomposition are unchanged."""
    rows = par_rows(u7)
    expected = _reduce_words(_pack(rows), 7)
    monkeypatch.setattr(constructions, "_PIECE", 64)
    found = _reduce_words(_pack(rows), 7)
    assert all(np.array_equal(a, b) for a, b in zip(found, expected))
    check_kernel(rows)


@pytest.fixture(scope="module")
def par11_sample(u11):
    """2,000 seeded parity-changers of FI_11, from the census codes."""
    rows = par_rows(u11)
    assert len(rows) > 2_000
    picked = np.random.default_rng(11).choice(len(rows), size=2_000, replace=False)
    return rows[picked]


def word_products(n, count, seed):
    """``count`` parity-changing products of seeded random words of G_n,
    1 to 8 generators long, as an image-row matrix."""
    gens = build_G(n)
    labels = sorted(label for label, _ in gens)
    rng = random.Random(seed)
    rows = []
    while len(rows) < count:
        word = Word(rng.choice(labels) for _ in range(rng.randint(1, 8)))
        product = evaluate_word(word, gens)
        if parity_points(product):
            rows.append(product.images)
    return np.array(rows, dtype=np.uint8)


def test_kernel_matches_the_peel_loop_on_an_n11_sample(par11_sample):
    check_kernel(par11_sample)


@pytest.mark.parametrize("n", [13, 15])
def test_kernel_matches_the_peel_loop_on_word_products(n):
    """Products of random G_13 and G_15 words fill the top bytes of a packed
    word; some step's image or point is at least n − 3."""
    rows = word_products(n, 500, seed=n)
    check_kernel(rows)
    _, steps = _reduce_words(_pack(rows), n)
    assert np.abs(steps).max() >= n - 3


@pytest.fixture(scope="module")
def mask_samples(u3, u5, u7, u9, par11_sample):
    """Image rows of FI_3…FI_9, the n = 11 sample and G_13/G_15 word
    products."""
    samples = [_unpack(u.words, u.n) for u in (u3, u5, u7, u9)]
    return samples + [par11_sample] + [
        word_products(n, 100, seed=n + 1) for n in (13, 15)]


def row_mask(rows):
    """Entry [r, x−1] is True iff point x of image row r is parity-changing:
    y = xδ > 0 and x − y odd.  The row-by-row reference for ``_changing``."""
    points = np.arange(1, rows.shape[1] + 1, dtype=np.uint8)
    return ((rows ^ points) & 1).astype(bool) & (rows != 0)


def test_parity_mask_matches_parity_points(mask_samples):
    """Bit 4(x−1) of ``_changing`` is set iff x is a parity point of the
    packed element, and ``_lowest`` of a word with any reads the first of
    them, less 1."""
    for rows in mask_samples:
        n = rows.shape[1]
        mask = _changing(_pack(rows))
        bits = unpacked(mask, n)
        firsts = _lowest(mask).tolist()
        for images, row_bits, first in zip(rows.tolist(), bits.tolist(), firsts):
            points = parity_points(PartialInjection(n, tuple(images)))
            assert tuple(x + 1 for x, bit in enumerate(row_bits) if bit) == points
            if points:
                assert first + 1 == points[0]


def test_packed_mask_matches_the_row_mask(mask_samples):
    """Bit 4(x−1) of ``_changing`` is entry x−1 of the row mask, row by
    row, no other bit is set, and the words unpack to the rows they were
    packed from, nibble by nibble and by ``_unpack``."""
    for rows in mask_samples:
        n = rows.shape[1]
        words = _pack(rows)
        assert np.array_equal(unpacked(words, n), rows)
        assert np.array_equal(_unpack(words, n), rows)
        mask = _changing(words)
        assert not np.any(mask & ~np.uint64(0x1111_1111_1111_1111))
        assert np.array_equal(unpacked(mask, n).astype(bool), row_mask(rows))


def test_kernel_leaves_parity_preserving_rows_alone(u5):
    words = u5.words
    keep = words[_changing(words) == 0]
    cores, steps = _reduce_words(keep, 5)
    assert np.array_equal(cores, keep) and steps.shape == (len(keep), 0)
    assert np.array_equal(_recompose_words(cores, steps, 5), keep)


def test_batch_recompose_matches_a_compose_fold(u7):
    rows = par_rows(u7)
    cores, steps = _reduce_words(_pack(rows), 7)
    batch = unpacked(_recompose_words(cores, steps, 7), 7)
    for images, out in zip(rows.tolist(), batch.tolist()):
        dec = parity_reduce(PartialInjection(7, tuple(images)))
        folded = reduce(compose, (*dec.left, dec.core, *dec.right))
        assert tuple(out) == folded.images == tuple(images)


@pytest.mark.parametrize("n", [3, 5, 7, 9, 15])
def test_beta_rows_match_the_beta_families(n):
    evens, odds = _beta_rows(n)
    identity = tuple(range(n + 1))
    for table, family in ((evens, beta_even), (odds, beta_odd)):
        assert table.shape == (n + 1, n + 1) and not table.flags.writeable
        assert tuple(table[0]) == identity
        for i in range(1, n + 1):
            if i % 2 == 0 and i < n:
                assert tuple(table[i]) == (0,) + family(n, i).images
            else:
                assert not table[i].any()


def test_kernel_refuses_a_step_that_does_not_shrink(monkeypatch):
    """With identity tables no step removes a point: the shrink check
    raises, as the peel loop did, instead of looping past n steps."""
    n = 5
    identity = np.tile(np.arange(n + 1, dtype=np.uint8), (n + 1, 1))
    monkeypatch.setattr(constructions, "_beta_rows", lambda n: (identity, identity))
    with pytest.raises(RuntimeError,
                       match=r"failed to shrink at point 1: 1 -> 1 changing points"):
        parity_reduce(beta_odd(n, 2))


def test_kernel_refuses_an_even_step_that_does_not_shrink(monkeypatch):
    """The even-x twin: β_2^even moves 2 to 1, its only changing point, and
    the identity β_2^odd on the left leaves it in place."""
    n = 5
    identity = np.tile(np.arange(n + 1, dtype=np.uint8), (n + 1, 1))
    monkeypatch.setattr(constructions, "_beta_rows", lambda n: (identity, identity))
    with pytest.raises(RuntimeError,
                       match=r"failed to shrink at point 2: 1 -> 1 changing points"):
        parity_reduce(beta_even(n, 2))


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


@pytest.mark.parametrize("n,count", [(3, 1), (5, 42), (7, 128), (9, 274)])
def test_extend_rows_picks_the_least_legal_points(n, count, request):
    """On every convex-domain element of rank ≤ n−3: w is the least point
    with w−1, w, w+1 outside the domain, x the least with x−1, x, x+1
    outside the image."""
    universe = request.getfixturevalue(f"u{n}")
    inputs = [f for f in universe.members() if f.rank <= n - 3 and is_convex(f.domain)]
    assert len(inputs) == count
    w, x = _extend_rows(np.array([f.images for f in inputs], dtype=np.uint8))
    for f, picked in zip(inputs, zip(w.tolist(), x.tolist())):
        least = tuple(min(p for p in range(1, n + 1) if not {p - 1, p, p + 1} & used)
                      for used in (set(f.domain), set(f.image_set)))
        assert picked == least, f


@pytest.mark.parametrize("n", [5, 7])
def test_convex_domain_mask_matches_is_convex(n, request, monkeypatch):
    """The convex sweep's word predicate, at most one point that starts a
    run of defined points, holds on a census word iff its domain is
    convex, and the sweep extends exactly the rows of rank ≤ n−3 that it
    picks."""
    universe = request.getfixturevalue(f"u{n}")
    defined = _defined(universe.words)
    mask = _nibble_bits(defined & ~(defined << np.uint64(4))) <= 1
    assert mask.tolist() == [is_convex(f.domain) for f in universe.members()]
    seen = []

    def spy(images):
        seen.append(images.copy())
        return _extend_rows(images)

    monkeypatch.setattr(constructions, "_extend_rows", spy)
    run_verification(n, VerifyContext(), ("convex-extend-sweep",))
    (rows,) = seen
    assert rows.tolist() == [list(f.images) for f in universe.members()
                             if f.rank <= n - 3 and is_convex(f.domain)]
