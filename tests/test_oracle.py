"""Exhaustive enumeration: counts, histograms, invariants, cache format."""

import hashlib
import json
import random
import tracemalloc

import numpy as np
import pytest

from fenceinj import (
    CapacityError,
    ElementUniverse,
    PartialInjection,
    build_G,
    close,
    compose,
    decode,
    encode,
    enumerate_FI,
    gamma,
    inverse,
    is_partial_automorphism,
)
from fenceinj.fence import _unpack
from fenceinj.oracle import _census_codes
from reference import enumerate_naive

KNOWN_COUNTS = {1: 2, 3: 18, 5: 182, 7: 2288, 9: 34164}
KNOWN_HISTOGRAMS = {
    3: (1, 9, 6, 2),
    5: (1, 25, 88, 52, 14, 2),
    7: (1, 49, 486, 1026, 560, 140, 24, 2),
    9: (1, 81, 1632, 9164, 14022, 7162, 1776, 290, 34, 2),
}


def test_counts(u3, u5, u7, u9):
    assert len(enumerate_FI(1)) == 2
    for u in (u3, u5, u7, u9):
        assert len(u) == KNOWN_COUNTS[u.n]


def test_rank_histograms(u3, u5, u7, u9):
    for u in (u3, u5, u7, u9):
        assert u.rank_histogram == KNOWN_HISTOGRAMS[u.n]
        by_decode = [0] * (u.n + 1)
        for f in u.members():
            by_decode[f.rank] += 1
        assert tuple(by_decode) == u.rank_histogram
        assert sum(u.rank_histogram) == len(u)


def test_extremal_layers(u3, u5, u7, u9):
    for u in (u3, u5, u7, u9):
        assert u.rank_histogram[0] == 1  # the empty map
        assert u.rank_histogram[-1] == 2  # identity and reflection
        top = [f for f in u.members() if f.rank == u.n]
        assert set(top) == {gamma(u.n), compose(gamma(u.n), gamma(u.n))}


def test_agrees_with_naive_filter():
    for n in (1, 3, 5, 7):
        assert enumerate_naive(n) == tuple(enumerate_FI(n).codes.tolist())


def test_fi9_codes_digest(u9):
    # beyond the naive filter's reach: the sorted codes as little-endian u64
    payload = np.asarray(u9.codes, dtype="<u8").tobytes()
    assert hashlib.sha256(payload).hexdigest() == (
        "2555e03ce4f5c57ac1581ef0d06a03f5d430a7660f478a01d40732a4d9e618d9")


def test_all_members_are_automorphisms(u5):
    for f in u5.members():
        assert is_partial_automorphism(f)


def test_no_automorphism_missing(u5):
    # independent sweep: every partial injection is in iff it passes the test
    n = 5
    codes = set(u5.codes.tolist())
    for code in range(6 ** 5):
        try:
            f = decode(n, code)
        except Exception:
            continue
        assert (code in codes) == is_partial_automorphism(f), code


def test_closed_under_inverse_and_composition(u7):
    rng = random.Random(7)
    pool = u7.codes.tolist()
    codes = set(pool)
    for _ in range(300):
        f = decode(7, rng.choice(pool))
        g = decode(7, rng.choice(pool))
        assert encode(inverse(f)) in codes
        assert encode(compose(f, g)) in codes


def test_rank_of_product_bounded(u5):
    members = list(u5.members())
    for f in members:
        for g in members:
            assert compose(f, g).rank <= min(f.rank, g.rank)


def test_composition_closure_all_pairs(u3, u5):
    for u in (u3, u5):
        members = list(u.members())
        codes = set(u.codes.tolist())
        for f in members:
            for g in members:
                assert encode(compose(f, g)) in codes


def test_predicate_agreement_sampled_n7(u7):
    # random partial injections are in the universe iff the predicate says so
    rng = random.Random(77)
    points = list(range(1, 8))
    codes = set(u7.codes.tolist())
    for _ in range(2000):
        dom = [x for x in points if rng.random() < 0.5]
        img = rng.sample(points, len(dom))
        f = PartialInjection.from_pairs(7, zip(dom, img))
        assert is_partial_automorphism(f) == (encode(f) in codes)


def test_associativity_sampled(u5):
    rng = random.Random(55)
    members = list(u5.members())
    for _ in range(500):
        f, g, h = (rng.choice(members) for _ in range(3))
        assert compose(compose(f, g), h) == compose(f, compose(g, h))


def test_convex_sets_map_to_convex_sets(u5, u7):
    for u in (u5, u7):
        for f in u.members():
            dom = set(f.domain)
            for a in range(1, u.n + 1):
                for b in range(a, u.n + 1):
                    window = set(range(a, b + 1))
                    if not window <= dom:
                        continue
                    image = [f.images[x - 1] for x in window]
                    assert max(image) - min(image) + 1 == len(image), (f, a, b)


def test_rank_one_maps_are_automorphisms():
    for x in range(1, 6):
        for y in range(1, 6):
            f = PartialInjection.from_pairs(5, [(x, y)])
            assert is_partial_automorphism(f)


def test_census_of_fi11_is_the_closure_of_g11():
    """Past the public cap, the search and the closure engine, which share
    no code, find the same 586,650 elements: ⟨G_11⟩ = FI_11."""
    codes = np.sort(_census_codes(11))
    assert len(codes) == 586650
    assert np.array_equal(codes, close(build_G(11)).member_codes)


def test_capacity_cap():
    with pytest.raises(CapacityError) as err:
        enumerate_FI(11)
    assert "closure" in str(err.value)


def test_save_load_roundtrip(tmp_path, u5):
    path = tmp_path / "u5.bin"
    u5.save(path)
    assert (tmp_path / "u5.bin.json").exists()
    loaded = ElementUniverse.load(path)
    assert loaded.n == 5
    assert np.array_equal(loaded.codes, u5.codes)
    assert loaded.rank_histogram == u5.rank_histogram
    side = tmp_path / "u5.bin.json"
    assert json.loads(side.read_text())["mode"] == "exhaustive"
    # no other mode is written, so any other is refused
    side.write_text(side.read_text().replace('"exhaustive"', '"closure-derived"'))
    with pytest.raises(ValueError):
        ElementUniverse.load(path)


def test_load_rejects_corruption(tmp_path, u3):
    path = tmp_path / "u3.bin"
    u3.save(path)
    raw = path.read_bytes()
    path.write_bytes(b"XXXX" + raw[4:])
    with pytest.raises(ValueError):
        ElementUniverse.load(path)
    path.write_bytes(raw[:-4])
    with pytest.raises(ValueError):
        ElementUniverse.load(path)


def test_load_rejects_every_flipped_byte(tmp_path, u3):
    path = tmp_path / "u3.bin"
    u3.save(path)
    for target in (path, tmp_path / "u3.bin.json"):
        raw = target.read_bytes()
        for pos in range(len(raw)):
            for mask in (0x01, 0xFF):
                damaged = bytearray(raw)
                damaged[pos] ^= mask
                target.write_bytes(bytes(damaged))
                with pytest.raises(ValueError):
                    ElementUniverse.load(path)
        target.write_bytes(raw)
    assert np.array_equal(ElementUniverse.load(path).codes, u3.codes)


def test_members_sorted_and_contains(u3):
    assert list(u3.codes) == sorted(u3.codes)
    codes = set(u3.codes.tolist())
    assert int(u3.codes[0]) in codes
    assert -1 not in codes


@pytest.mark.parametrize("n", [1, 3, 5, 7, 9])
def test_codes_are_one_sorted_read_only_int64_array(tmp_path, n):
    """Enumerated and loaded alike, the census is a strictly increasing,
    read-only int64 array, and the two copies are equal."""
    enumerated = enumerate_FI(n)
    path = tmp_path / f"u{n}.bin"
    enumerated.save(path)
    loaded = ElementUniverse.load(path)
    for codes in (enumerated.codes, loaded.codes):
        assert isinstance(codes, np.ndarray) and codes.dtype == np.int64
        assert (np.diff(codes) > 0).all()
        with pytest.raises(ValueError):
            codes[0] = -1
    assert np.array_equal(enumerated.codes, loaded.codes)


def _peak_bytes(call):
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_load_fi9_peak_memory(tmp_path, u9):
    """Loading keeps the one copy read_code_file makes: no Python-int tuple
    or list of the 34,164 codes."""
    path = tmp_path / "u9.bin"
    u9.save(path)
    peak = _peak_bytes(lambda: ElementUniverse.load(path))
    assert peak < 2_000_000, peak


def test_enumerate_fi9_peak_memory():
    """The level-wise search holds one array per field of a level, and its
    last level, the codes alone, becomes the census."""
    peak = _peak_bytes(lambda: enumerate_FI(9))
    assert peak < 1_000_000, peak


def test_census_fi11_peak_memory():
    """Each level's fields are held once: the 4.69 MB census of FI_11 and
    the level before it fit in 20 MB."""
    peak = _peak_bytes(lambda: _census_codes(11))
    assert peak < 20_000_000, peak


def test_census_words_fi11_peak_memory(u11):
    """The census derives its words and ranks in one pass, a piece of
    codes at a time: 4.69 MB of words and 0.59 MB of uint8 ranks peaked at
    5.48 MB, against 17.67 MB for the uint8 image matrix and int64 ranks
    that it held before."""
    universe = ElementUniverse(11, u11.codes)
    peak = _peak_bytes(lambda: universe.ranks)
    assert peak < 6_000_000, peak


def test_census_words_and_ranks_match_the_members(u7):
    """The census words, read-only u64, unpack to the members' image rows,
    and the read-only uint8 ranks are the members' ranks."""
    words, ranks = u7.words, u7.ranks
    assert words.dtype == np.uint64 and ranks.dtype == np.uint8
    assert len(words) == len(ranks) == len(u7)
    rows = _unpack(words, 7)
    members = list(u7.members())
    for row, rank, f in zip(rows[::97], ranks[::97], members[::97]):
        assert tuple(row.tolist()) == f.images and rank == f.rank
    for array in (words, ranks):
        with pytest.raises(ValueError):
            array[0] = 1
