"""Order relation, partial injections, composition, and codes."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from fenceinj import (
    CapacityError,
    MapFormatError,
    PartialInjection,
    comparable,
    compose,
    decode,
    encode,
    fence_less,
    format_map,
    inverse,
    is_convex,
    is_partial_automorphism,
    order_violation,
    parse_map,
    restrict_identity,
)
from fenceinj.fence import UNDEF, check_fence_size, code_powers


@st.composite
def partial_injections(draw):
    n = draw(st.sampled_from([1, 3, 5, 7, 9]))
    perm = draw(st.permutations(list(range(1, n + 1))))
    keep = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    images = tuple(p if k else UNDEF for p, k in zip(perm, keep))
    return PartialInjection(n, images)


def test_fence_relation_n5():
    expected_less = {(1, 2), (3, 2), (3, 4), (5, 4)}
    for x in range(1, 6):
        for y in range(1, 6):
            assert fence_less(5, x, y) == ((x, y) in expected_less)
            assert comparable(5, x, y) == (abs(x - y) <= 1)


def test_fence_less_is_odd_up_even():
    for x in range(1, 10):
        for y in range(1, 10):
            assert fence_less(9, x, y) == (x % 2 == 1 and y % 2 == 0
                                           and abs(x - y) == 1)
    with pytest.raises(ValueError):
        fence_less(5, 0, 1)
    with pytest.raises(ValueError):
        comparable(5, 1, 6)


@pytest.mark.parametrize("bad", [1.5, True, "2"])
def test_points_must_be_integers(bad):
    """A point that is not a Python or numpy integer is refused, where a
    float would compare as itself and True as 1."""
    uses = [lambda x: fence_less(5, x, 2), lambda x: comparable(5, x, 2),
            lambda x: restrict_identity(5, [x]),
            lambda x: PartialInjection.from_pairs(5, {x: 2}),
            lambda x: PartialInjection.identity(5)(x)]
    for use in uses:
        with pytest.raises(ValueError, match=r"point must be an integer, got "):
            use(bad)
    assert fence_less(5, np.int64(1), 2) and comparable(5, np.int64(3), 2)
    with pytest.raises(ValueError, match=r"^point 0 out of range 1\.\.5$"):
        comparable(5, 0, 2)


def test_check_fence_size():
    check_fence_size(1)
    check_fence_size(15)
    with pytest.raises(ValueError):
        check_fence_size(4)
    with pytest.raises(ValueError):
        check_fence_size(0)
    with pytest.raises(CapacityError):
        check_fence_size(17)


def test_is_convex():
    assert is_convex(())
    assert is_convex((3,))
    assert is_convex((2, 3, 4))
    assert is_convex((4, 2, 3))
    assert not is_convex((1, 3))


def test_constructors_and_accessors():
    ident = PartialInjection.identity(5)
    assert ident.images == (1, 2, 3, 4, 5)
    assert ident.rank == 5
    empty = PartialInjection.empty(5)
    assert empty.rank == 0 and empty.is_empty
    f = PartialInjection.from_pairs(5, [(1, 2), (4, 4)])
    assert f.domain == (1, 4)
    assert f.image_set == (2, 4)
    assert f(1) == 2 and f(4) == 4 and f(2) is None
    assert list(f.items()) == [(1, 2), (4, 4)]


def test_injectivity_enforced():
    with pytest.raises(ValueError):
        PartialInjection(3, (2, 2, UNDEF))
    with pytest.raises(ValueError):
        PartialInjection(3, (4, UNDEF, UNDEF))
    with pytest.raises(ValueError):
        PartialInjection(3, (1, 2))  # wrong length


def test_compose_left_to_right():
    f = PartialInjection.from_pairs(5, [(1, 2)])
    g = PartialInjection.from_pairs(5, [(2, 3)])
    assert compose(f, g) == PartialInjection.from_pairs(5, [(1, 3)])
    assert compose(g, f) == PartialInjection.empty(5)
    assert (f * g)(1) == 3


@given(partial_injections(), partial_injections(), partial_injections())
def test_compose_associative(f, g, h):
    if not (f.n == g.n == h.n):
        return
    assert compose(compose(f, g), h) == compose(f, compose(g, h))


@given(partial_injections())
def test_inverse_involution(f):
    assert inverse(inverse(f)) == f
    assert compose(compose(f, inverse(f)), f) == f


def test_composite_equals_validated_value(u5):
    elements = list(u5.members())
    for f in elements:
        for g in elements:
            h = compose(f, g)
            ref = PartialInjection(5, h.images)
            assert type(h.images) is tuple
            assert h == ref and hash(h) == hash(ref)
            assert (h.domain, h.image_set, h.rank) == (ref.domain, ref.image_set, ref.rank)
        h = inverse(f)
        ref = PartialInjection(5, h.images)
        assert h == ref and hash(h) == hash(ref)
        assert (h.domain, h.image_set, h.rank) == (ref.domain, ref.image_set, ref.rank)


def test_compose_rejects_size_mismatch():
    with pytest.raises(ValueError, match="size mismatch"):
        compose(PartialInjection.identity(3), PartialInjection.identity(5))
    with pytest.raises(ValueError, match="size mismatch"):
        PartialInjection.identity(5) * PartialInjection.empty(3)


def test_composite_builds_no_validated_object(monkeypatch):
    f = parse_map(9, "2,_,_,4,5,6,7,8,9")
    g = restrict_identity(9, range(2, 10))
    calls = []
    validate = PartialInjection.__post_init__

    def counting(self):
        calls.append(self.images)
        validate(self)

    monkeypatch.setattr(PartialInjection, "__post_init__", counting)
    PartialInjection.identity(9)
    assert len(calls) == 1  # the public constructor still validates
    calls.clear()
    compose(f, g)
    compose(g, f)
    f * g * f
    inverse(f)
    assert calls == []


def test_order_violation_examples():
    bad = PartialInjection.from_pairs(5, [(1, 1), (2, 3)])
    assert order_violation(bad) == (1, 2)
    assert not is_partial_automorphism(bad)
    good = PartialInjection.from_pairs(5, [(1, 1), (3, 3)])
    assert order_violation(good) is None
    assert is_partial_automorphism(good)
    # comparable points must stay comparable AND keep their direction
    flipped = PartialInjection.from_pairs(5, [(1, 2), (2, 1)])
    assert not is_partial_automorphism(flipped)
    shifted = PartialInjection.from_pairs(5, [(1, 3), (2, 4)])
    assert is_partial_automorphism(shifted)
    # incomparable points must not become comparable
    squeezed = PartialInjection.from_pairs(5, [(1, 1), (3, 2)])
    assert not is_partial_automorphism(squeezed)


def test_restrict_identity():
    f = restrict_identity(5, [2, 4, 5])
    assert f.images == (UNDEF, 2, UNDEF, 4, 5)
    assert is_partial_automorphism(f)


def test_code_powers():
    assert code_powers(3) == (1, 4, 16)
    assert code_powers(9)[1] == 10


def test_encode_known_values():
    assert encode(PartialInjection.empty(3)) == 0
    assert encode(PartialInjection.identity(3)) == 1 + 2 * 4 + 3 * 16


@given(partial_injections())
def test_encode_decode_roundtrip(f):
    assert decode(f.n, encode(f)) == f


def test_decode_rejects_bad_codes():
    with pytest.raises(MapFormatError):
        decode(3, 4 ** 3)  # beyond the largest 3-point code
    with pytest.raises(MapFormatError):
        decode(3, 1 + 1 * 4)  # digit collision: two points map to 1


def test_parse_and_format_map():
    f = parse_map(5, "2,_,_,4,5")
    assert f.images == (2, UNDEF, UNDEF, 4, 5)
    assert format_map(f) == "2,_,_,4,5"
    assert parse_map(5, " 2, _ , _ ,4,5 ") == f
    with pytest.raises(MapFormatError):
        parse_map(5, "2,_,_,4")  # wrong arity
    with pytest.raises(MapFormatError):
        parse_map(5, "2,x,_,4,5")
    with pytest.raises(MapFormatError):
        parse_map(5, "2,2,_,4,5")
    with pytest.raises(MapFormatError):
        parse_map(5, "6,_,_,4,5")
    assert parse_map(5, "02,_,_,004,5") == f
    for token in ("1_0", "+1", "\u0661"):  # the last is an Arabic-Indic one
        with pytest.raises(MapFormatError):
            parse_map(11, f"{token},_,_,_,_,_,_,_,_,_,_")


@given(partial_injections())
def test_format_parse_roundtrip(f):
    assert parse_map(f.n, format_map(f)) == f
