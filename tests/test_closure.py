"""Closure BFS: membership, witnesses, determinism, persistence."""

import json
import random
from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fenceinj import (
    ClosureResult,
    ElementUniverse,
    GeneratorSet,
    NotGeneratedError,
    PartialInjection,
    Word,
    beta_odd,
    build_G,
    close,
    close_excluding,
    compose,
    decode,
    encode,
    evaluate_word,
    factorize,
    gamma,
    generator_cache_key,
    verify_generates,
)
from fenceinj.analysis import r_class
from fenceinj.closure import TREE_MAGIC
from fenceinj.oracle import read_binary_file, write_binary_file, write_sidecar


def brute_force_words(gens):
    """Reference BFS: for each reachable code, the lexicographically least
    minimum-length word.  Quadratic and tiny-n only."""
    n = gens.n
    best = {}
    frontier = []
    for label in sorted(gens.labels):
        code = encode(gens[label])
        if code not in best:
            best[code] = (label,)
            frontier.append(code)
    while frontier:
        candidates = {}
        for code in frontier:
            f = decode(n, code)
            for label in sorted(gens.labels):
                product = encode(compose(f, gens[label]))
                if product in best:
                    continue
                word = best[code] + (label,)
                if product not in candidates or word < candidates[product]:
                    candidates[product] = word
        for code, word in candidates.items():
            best[code] = word
        frontier = sorted(candidates)
    return best


def test_word_basics():
    w = Word(("gamma", "alpha_1"))
    assert str(w) == "gamma·alpha_1"
    assert Word.parse("gamma·alpha_1") == w
    assert len(w) == 2
    with pytest.raises(ValueError):
        Word(())


def test_evaluate_word():
    gens = build_G(5)
    w = Word(("gamma", "gamma"))
    assert evaluate_word(w, gens) == PartialInjection.identity(5)
    with pytest.raises(KeyError):
        evaluate_word(Word(("nope",)), gens)


@pytest.mark.parametrize("n", [3, 5, 7])
def test_close_G_reaches_everything(n, u3, u5, u7):
    u = {3: u3, 5: u5, 7: u7}[n]
    result = close(build_G(n))
    assert result.members == u.code_set
    assert len(result) == len(u)


def test_close_level_profile(g9_closure):
    assert len(g9_closure) == 34164
    assert g9_closure.stats.level_sizes == (
        14, 125, 861, 4182, 10949, 12174, 5110, 722, 27)
    assert g9_closure.max_word_length == 9


def test_witnesses_reevaluate_exhaustive(g5_closure):
    gens = build_G(5)
    for code, word in g5_closure.witness_items():
        assert encode(evaluate_word(word, gens)) == code
        assert set(word.labels) <= set(gens.labels)


def test_witnesses_reevaluate_sampled(g9_closure):
    gens = build_G(9)
    rng = random.Random(9)
    for code in rng.sample(sorted(g9_closure.members), 250):
        word = g9_closure.witness(code)
        assert encode(evaluate_word(word, gens)) == code


def test_witnesses_minimal_and_lex_least():
    for n in (3, 5):
        gens = build_G(n)
        result = close(gens)
        reference = brute_force_words(gens)
        assert set(reference) == result.members
        for code, word in reference.items():
            assert result.witness(code).labels == word, (n, code)


def test_members_closed_under_composition(g5_closure):
    rng = random.Random(5)
    pool = sorted(g5_closure.members)
    for _ in range(400):
        f = decode(5, rng.choice(pool))
        g = decode(5, rng.choice(pool))
        assert encode(compose(f, g)) in g5_closure.members


def test_workers_determinism():
    a = close(build_G(7), workers=1)
    b = close(build_G(7), workers=4)
    assert a.members == b.members
    assert a.stats.level_sizes == b.stats.level_sizes
    assert list(a.member_codes) == list(b.member_codes)
    for code in a.members:
        assert a.witness(code) == b.witness(code)


@settings(max_examples=25, deadline=None)
@given(st.sets(st.sampled_from(sorted(build_G(5).labels)), min_size=1))
def test_closure_monotone_in_generators(labels):
    gens = build_G(5)
    drop = [lab for lab in gens.labels if lab not in labels]
    sub = gens.without(*drop) if drop else gens
    assert close(sub).members <= close(gens).members


def test_factorize_and_not_generated():
    gens = build_G(5).without(
        "alpha_1", "alpha_2", "alpha_3", "beta_2_odd", "beta_2_even")
    result = close(gens)  # gamma alone: just {gamma, id}
    assert len(result) == 2
    word = factorize(PartialInjection.identity(5), result)
    assert word == Word(("gamma", "gamma"))
    with pytest.raises(NotGeneratedError):
        factorize(PartialInjection.empty(5), result)


def test_verify_generates(u5):
    check = verify_generates(build_G(5), u5)
    assert check.generates and not check.missing and not check.extra
    partial = verify_generates(build_G(5).without("gamma"), u5)
    assert not partial.generates
    assert partial.missing
    assert not partial.extra
    lone = GeneratorSet(5, (("id", PartialInjection.identity(5)),))
    assert not verify_generates(lone, u5).generates


def test_close_excluding_complement(u5):
    cls = r_class(5, 1, u5)
    result = close_excluding(u5, cls.codes)
    assert result.members == u5.code_set - set(cls.codes)
    with pytest.raises(ValueError):
        close_excluding(u5, (10 ** 9,))


def test_close_excluding_nothing_is_identity_map(u5):
    # FI_n is closed, so excluding nothing reproduces the universe
    assert close_excluding(u5, ()).members == u5.code_set


def test_close_excluding_gamma_keeps_identity(u5):
    result = close_excluding(u5, (encode(gamma(5)),))
    assert encode(PartialInjection.identity(5)) in result.members
    assert encode(gamma(5)) not in result.members


def test_generators_have_length_one_witnesses(g9_closure):
    word = factorize(beta_odd(9, 4), g9_closure)
    assert word == Word(("beta_4_odd",))


def test_witnesses_reproduce_members_n7(g7_closure):
    gens = dict(build_G(7).mapping())
    for code in sorted(g7_closure.members):
        word = g7_closure.witness(code)
        assert encode(evaluate_word(word, gens)) == code


def test_save_load_roundtrip(tmp_path, g5_closure):
    code_path = tmp_path / "c.bin"
    tree_path = tmp_path / "c.tree"
    g5_closure.save(code_path, tree_path)
    loaded = ClosureResult.load(code_path, tree_path, build_G(5))
    assert loaded.n == 5
    assert loaded.members == g5_closure.members
    assert loaded.labels == g5_closure.labels
    assert loaded.stats.level_sizes == g5_closure.stats.level_sizes
    assert loaded.stats.products == g5_closure.stats.products
    for code in sorted(g5_closure.members):
        assert loaded.witness(code) == g5_closure.witness(code)
    # saving the loaded closure reproduces the files byte for byte
    loaded.save(tmp_path / "d.bin", tmp_path / "d.tree")
    for a, b in (("c.bin", "d.bin"), ("c.bin.json", "d.bin.json"),
                 ("c.tree", "d.tree")):
        assert (tmp_path / a).read_bytes() == (tmp_path / b).read_bytes()


def _rewrite_tree(tree_path, edit):
    """Apply ``edit(parents, genidx)`` and write a well-formed tree file."""
    n, count, payload = read_binary_file(tree_path, TREE_MAGIC, 8)
    tree = np.frombuffer(payload, dtype="<i4").copy()
    edit(tree[:count], tree[count:])
    write_binary_file(tree_path, TREE_MAGIC, n, count, tree.tobytes())


def test_load_rejects_mismatched_witnesses(tmp_path, g5_closure):
    gens = build_G(5)
    code_path = tmp_path / "c.bin"
    tree_path = tmp_path / "c.tree"
    g5_closure.save(code_path, tree_path)
    raw = tree_path.read_bytes()
    seeds = g5_closure.stats.level_sizes[0]

    def relabel_seed(parents, genidx):
        genidx[0] = genidx[1]  # two seeds now name the same generator

    def reparent(parents, genidx):
        parents[seeds] = -1  # a second-level node posing as a seed

    def last_letter(parents, genidx):
        genidx[-1] = (genidx[-1] + 1) % len(gens)

    for edit in (relabel_seed, reparent, last_letter):
        tree_path.write_bytes(raw)
        _rewrite_tree(tree_path, edit)
        with pytest.raises(ValueError):
            ClosureResult.load(code_path, tree_path, gens)
    tree_path.write_bytes(raw[:-4])
    with pytest.raises(ValueError):
        ClosureResult.load(code_path, tree_path, gens)
    # an intact tree is still refused for a different generating set
    tree_path.write_bytes(raw)
    with pytest.raises(ValueError):
        ClosureResult.load(code_path, tree_path, gens.without("gamma"))
    swapped = GeneratorSet(5, tuple(
        (label, gens["alpha_1"] if label == "alpha_3" else
         gens["alpha_3"] if label == "alpha_1" else element)
        for label, element in gens))
    with pytest.raises(ValueError):
        ClosureResult.load(code_path, tree_path, swapped)
    assert ClosureResult.load(code_path, tree_path, gens).members == g5_closure.members


def test_load_rejects_every_flipped_byte(tmp_path):
    gens = build_G(3)
    code_path = tmp_path / "c.bin"
    tree_path = tmp_path / "c.tree"
    close(gens).save(code_path, tree_path)
    for path in (code_path, tmp_path / "c.bin.json", tree_path):
        raw = path.read_bytes()
        for pos in range(len(raw)):
            for mask in (0x01, 0xFF):
                damaged = bytearray(raw)
                damaged[pos] ^= mask
                path.write_bytes(bytes(damaged))
                with pytest.raises(ValueError):
                    ClosureResult.load(code_path, tree_path, gens)
        path.write_bytes(raw)
    assert len(ClosureResult.load(code_path, tree_path, gens)) == 18


def test_load_rejects_wrongly_typed_sidecars(tmp_path, g5_closure, u5):
    """Hand-edited sidecars in the canonical layout, with values of the
    wrong JSON type, are refused like any other mismatch."""
    code_path, tree_path = tmp_path / "c.bin", tmp_path / "c.tree"
    g5_closure.save(code_path, tree_path)
    u5.save(tmp_path / "u.bin")
    cases = [(code_path, "level_sizes", 7), (code_path, "level_sizes", ["7"]),
             (code_path, "labels", 5), (tmp_path / "u.bin", "rank_histogram", 2)]
    for path, key, value in cases:
        side = path.with_name(path.name + ".json")
        raw = side.read_text()
        meta = json.loads(raw)
        meta[key] = value
        write_sidecar(path, meta)
        with pytest.raises(ValueError):
            if path == code_path:
                ClosureResult.load(code_path, tree_path, build_G(5))
            else:
                ElementUniverse.load(path)
        side.write_text(raw)


@pytest.mark.parametrize("n", [5, 7])
def test_min_rank_floor_keeps_rank_layers(n):
    gens = build_G(n)
    full = close(gens)
    for r in range(n + 1):
        floored = close(gens, min_rank=r)
        expected = {c for c in full.members if decode(n, c).rank >= r}
        assert floored.members == expected, r
        for code in expected:
            assert floored.witness(code) == full.witness(code), (r, code)
    assert len(close(gens, min_rank=n + 1)) == 0


def test_workers_must_be_positive():
    for workers in (0, -1):
        with pytest.raises(ValueError):
            close(build_G(5), workers=workers)


def test_generator_cache_key_canonical():
    gens = build_G(5)
    shuffled = GeneratorSet(5, tuple(reversed(gens.entries)))
    assert generator_cache_key(gens) == generator_cache_key(shuffled)
    assert generator_cache_key(gens) != generator_cache_key(build_G(7))
    assert generator_cache_key(gens) != generator_cache_key(
        gens.without("gamma"))
    assert len(generator_cache_key(gens)) == 16
