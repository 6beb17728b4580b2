"""Named generator families, G_n/J_n assembly, and the identity table."""

import pytest

from fenceinj import (
    GeneratorSet,
    PartialInjection,
    alpha,
    alpha_even,
    alpha_odd,
    alpha_pair,
    beta_even,
    beta_odd,
    build_G,
    build_J,
    compose,
    gamma,
    inverse,
    is_partial_automorphism,
    parity_points,
    restrict_identity,
)

ALL_N = (3, 5, 7, 9, 11, 13)


def test_gamma_is_reflection():
    g = gamma(5)
    assert g.images == (5, 4, 3, 2, 1)
    assert g.rank == 5
    assert compose(g, g) == PartialInjection.identity(5)
    assert gamma(3).images == (3, 2, 1)
    assert gamma(1) == PartialInjection.identity(1)


def test_alpha_odd_is_partial_identity():
    assert alpha_odd(5, 3) == restrict_identity(5, [1, 2, 4, 5])
    assert alpha(5, 3) == alpha_odd(5, 3)


def test_alpha_even_shape():
    # fixes below i, drops i, reflects the tail onto n+i+1−k
    assert alpha_even(5, 2).images == (1, 0, 5, 4, 3)
    assert alpha_even(9, 4).images == (1, 2, 3, 0, 9, 8, 7, 6, 5)
    assert alpha(9, 4) == alpha_even(9, 4)
    # degenerate tail at n=3: reversing {3} fixes it
    assert alpha_even(3, 2) == restrict_identity(3, [1, 3])


def test_alpha_pair_values():
    assert alpha_pair(5, 1, 5).images == (0, 4, 3, 2, 0)
    assert alpha_pair(9, 2, 6).images == (1, 0, 5, 4, 3, 0, 7, 8, 9)


def test_alpha_pair_validation():
    with pytest.raises(ValueError):
        alpha_pair(3, 1, 3)  # needs n >= 5
    with pytest.raises(ValueError):
        alpha_pair(5, 1, 4)  # mixed parity
    with pytest.raises(ValueError):
        alpha_pair(5, 3, 3)  # i < j required
    with pytest.raises(ValueError):
        alpha_pair(5, 2, 6)  # out of range


def test_beta_values():
    assert beta_odd(5, 2).images == (2, 0, 0, 4, 5)
    assert beta_even(5, 2).images == (0, 1, 0, 4, 5)
    assert beta_odd(7, 4).images == (4, 0, 1, 2, 0, 6, 7)
    # boundary form at i = n−1
    assert beta_even(5, 4).images == (3, 4, 0, 1, 0)
    assert beta_odd(5, 4).images == (4, 0, 1, 2, 0)
    # the boundary shapes i = 2 and i = n−1 at n = 3, 7 and 15
    assert beta_odd(3, 2).images == (2, 0, 0)
    assert beta_even(3, 2).images == (0, 1, 0)
    assert beta_odd(7, 6).images == (6, 0, 1, 2, 3, 4, 0)
    assert beta_even(7, 6).images == (3, 4, 5, 6, 0, 1, 0)
    assert beta_odd(15, 14).images == (14, 0) + tuple(range(1, 13)) + (0,)
    assert beta_even(15, 14).images == tuple(range(3, 15)) + (0, 1, 0)
    assert beta_odd(15, 2).images == (2, 0, 0) + tuple(range(4, 16))
    assert beta_even(15, 2).images == (0, 1, 0) + tuple(range(4, 16))


def test_beta_validation():
    with pytest.raises(ValueError):
        beta_odd(5, 3)  # i must be even
    with pytest.raises(ValueError):
        beta_even(5, 6)


def test_betas_are_mutually_inverse():
    for n in ALL_N:
        for i in range(2, n, 2):
            assert inverse(beta_odd(n, i)) == beta_even(n, i)


@pytest.mark.parametrize("n", ALL_N)
def test_all_generators_are_automorphisms(n):
    assert is_partial_automorphism(gamma(n))
    for i in range(1, n + 1):
        assert is_partial_automorphism(alpha(n, i)), ("alpha", i)
    for i in range(2, n, 2):
        assert is_partial_automorphism(beta_odd(n, i)), ("beta_odd", i)
        assert is_partial_automorphism(beta_even(n, i)), ("beta_even", i)
    if n >= 5:
        for i in range(1, n + 1):
            for j in range(i + 2, n + 1, 2):
                assert is_partial_automorphism(alpha_pair(n, i, j)), (i, j)


def test_beta_pair_identity():
    for n in ALL_N:
        for i in range(2, n, 2):
            left = compose(beta_even(n, i), beta_odd(n, i))
            expect = restrict_identity(
                n, [x for x in range(1, n + 1) if x not in (i - 1, i + 1)])
            assert left == expect, (n, i)


def test_alpha_squares():
    for n in ALL_N:
        for i in range(1, n + 1):
            expect = restrict_identity(
                n, [x for x in range(1, n + 1) if x != i])
            assert compose(alpha(n, i), alpha(n, i)) == expect, (n, i)


def test_alpha_pair_squares():
    for n in ALL_N[1:]:
        for i in range(1, n + 1):
            for j in range(i + 2, n + 1, 2):
                sq = compose(alpha_pair(n, i, j), alpha_pair(n, i, j))
                expect = restrict_identity(
                    n, [x for x in range(1, n + 1) if x not in (i, j)])
                assert sq == expect, (n, i, j)


def test_alpha_pair_full_span():
    for n in ALL_N[1:]:
        word = compose(compose(gamma(n), alpha(n, 1)), alpha(n, n))
        assert word == alpha_pair(n, 1, n), n


def test_alpha_pair_interior_factorization():
    # the middle index is the mirror complement n+1−(j−i)
    for n in ALL_N[1:]:
        for i in range(2, n, 2):
            for j in range(i + 2, n, 2):
                word = compose(compose(alpha(n, i), alpha(n, n + 1 - (j - i))),
                               alpha(n, i))
                assert word == alpha_pair(n, i, j), (n, i, j)


def test_alpha_pair_interior_naive_index_fails():
    # regression: using j−i itself as the middle index gives the wrong pair
    naive = compose(compose(alpha(9, 2), alpha(9, 4)), alpha(9, 2))
    assert naive == alpha_pair(9, 2, 8)
    assert naive != alpha_pair(9, 2, 6)


def test_beta_reduction_identities():
    for n in ALL_N[1:]:
        for a in range((n + 1) // 2 + 1, n):
            if a % 2:
                continue
            b = n - a + 1
            odd_word = compose(compose(alpha(n, 2), beta_odd(n, b)), gamma(n))
            assert odd_word == beta_odd(n, a), (n, a)
            even_word = compose(compose(gamma(n), beta_even(n, b)), alpha(n, 2))
            assert even_word == beta_even(n, a), (n, a)


def test_generator_set_validation():
    g = gamma(5)
    with pytest.raises(ValueError):
        GeneratorSet(5, (("g", g), ("g", alpha(5, 1))))  # duplicate label
    with pytest.raises(ValueError):
        GeneratorSet(5, (("g", g), ("a", gamma(7))))  # mixed n
    with pytest.raises(ValueError):
        GeneratorSet(
            5, (("bad", PartialInjection.from_pairs(5, [(1, 1), (2, 3)])),))


def test_generator_set_access_and_without():
    gens = build_G(5)
    assert gens["gamma"] == gamma(5)
    assert dict(gens.mapping())["alpha_2"] == alpha(5, 2)
    smaller = gens.without("gamma")
    assert len(smaller) == len(gens) - 1
    assert "gamma" not in smaller.labels
    with pytest.raises(KeyError):
        gens.without("nonexistent")


def test_generator_set_json_roundtrip(tmp_path):
    gens = build_G(7)
    path = tmp_path / "g7.json"
    gens.save(path)
    loaded = GeneratorSet.load(path)
    assert loaded == gens
    assert loaded.labels == gens.labels


def test_build_G_sizes():
    assert [len(build_G(n)) for n in (3, 5, 7, 9, 11, 13)] == [5, 6, 10, 14, 19, 24]


def test_build_G3_composition():
    assert set(build_G(3).labels) == {
        "gamma", "alpha_1", "alpha_2", "beta_2_odd", "beta_2_even"}


def test_build_G9_composition():
    assert set(build_G(9).labels) == {
        "gamma",
        "alpha_1", "alpha_3", "alpha_5",
        "alpha_2", "alpha_4", "alpha_6",
        "beta_2_odd", "beta_2_even", "beta_4_odd", "beta_4_even",
        "alpha_1_5", "alpha_1_7", "alpha_3_7",
    }


def test_build_J(u3, u5):
    j = build_J(5, u5)
    assert len(j) == 68
    for label, f in j:
        assert f.rank >= 3
        assert label == str(int(label))  # labels are decimal codes
    assert sum(1 for f in u5.members() if f.rank >= 3) == 68
    assert len(build_J(3, u3)) == 17  # everything but the empty map


def test_G_is_contained_in_J():
    # each named generator drops at most two points
    for n in ALL_N:
        for _, f in build_G(n):
            assert f.rank >= n - 2


def test_parity_points():
    f = PartialInjection.from_pairs(5, [(1, 2), (4, 4)])
    assert parity_points(f) == (1,)
    assert parity_points(beta_odd(5, 2)) == (1,)
    assert parity_points(beta_odd(9, 4)) == (1,)  # unique, at an endpoint
    assert parity_points(PartialInjection.identity(5)) == ()
    assert parity_points(gamma(5)) == ()  # n odd: reflection keeps parity


MEMOIZED_CALLS = [
    (gamma, (9,)), (alpha, (9, 3)), (alpha, (9, 4)), (alpha_pair, (9, 1, 5)),
    (alpha_pair, (9, 2, 6)), (beta_odd, (9, 4)), (beta_even, (9, 4)),
    (beta_odd, (3, 2)), (beta_even, (13, 12)),
]


@pytest.mark.parametrize("family, args", MEMOIZED_CALLS)
def test_memoized_families_return_one_shared_value(family, args):
    first, second = family(*args), family(*args)
    assert first == second and first is second
    assert is_partial_automorphism(first)


BAD_CALLS = [
    (gamma, (4,)), (gamma, (3.0,)), (gamma, (True,)), (gamma, (17,)),
    (alpha, (5, 6)), (alpha, (5, 0)), (alpha_pair, (3, 1, 3)),
    (alpha_pair, (9, 1, 4)), (alpha_pair, (9, 5, 3)), (beta_odd, (9, 3)),
    (beta_odd, (9, 10)), (beta_even, (9, 0)), (beta_even, (9.0, 4)),
]


@pytest.mark.parametrize("family, args", BAD_CALLS)
def test_memoized_families_raise_on_every_call(family, args):
    # valid neighbours are in the memo: equal-but-not-identical keys such as
    # 3.0 or True must not hit the entries of 3 or 1
    gamma(1), gamma(3), beta_even(9, 4)
    for _ in range(3):
        with pytest.raises(ValueError):
            family(*args)


def test_parity_points_matches_items_definition(u7):
    for f in u7.members():
        assert parity_points(f) == tuple(x for x, y in f.items() if (x - y) % 2)
