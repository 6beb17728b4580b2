"""Closure BFS: membership, witnesses, determinism, persistence."""

import json
import random
import tracemalloc
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
    build_J,
    close,
    close_excluding,
    compose,
    decode,
    encode,
    evaluate_word,
    gamma,
    generator_cache_key,
    verify_generates,
)
from fenceinj import closure as closure_module
from fenceinj.analysis import r_class
from fenceinj.closure import TREE_MAGIC
from fenceinj.fence import code_powers
from fenceinj.oracle import (
    read_binary_file,
    sidecar_path,
    write_binary_file,
    write_sidecar,
)


def brute_force_words(gens):
    """Reference BFS: for each reachable code, the lexicographically least
    minimum-length word.  Quadratic and tiny-n only."""
    n = gens.n
    by_label = gens.mapping()
    best = {}
    frontier = []
    for label in sorted(gens.labels):
        code = encode(by_label[label])
        if code not in best:
            best[code] = (label,)
            frontier.append(code)
    while frontier:
        candidates = {}
        for code in frontier:
            f = decode(n, code)
            for label in sorted(gens.labels):
                product = encode(compose(f, by_label[label]))
                if product in best:
                    continue
                word = best[code] + (label,)
                if product not in candidates or word < candidates[product]:
                    candidates[product] = word
        for code, word in candidates.items():
            best[code] = word
        frontier = sorted(candidates)
    return best


@pytest.mark.parametrize("n", [3, 5])
def test_canonical_words_are_suffix_closed(n):
    """The rule the engine prunes by, checked on the reference BFS: the word
    of an element without its first letter is the word of its own element."""
    gens = build_G(n)
    best = brute_force_words(gens)
    for word in best.values():
        if len(word) > 1:
            suffix = encode(evaluate_word(Word(word[1:]), gens))
            assert best[suffix] == word[1:], word


def test_word_basics():
    w = Word(("gamma", "alpha_1"))
    assert str(w) == "gamma·alpha_1"
    assert Word.parse("gamma·alpha_1") == w
    assert len(w) == 2
    with pytest.raises(ValueError):
        Word(())


def test_stream_words_behave_like_constructed_words(g5_closure):
    for _, word in g5_closure.witness_items():
        made = Word(word.labels)
        assert word == made and hash(word) == hash(made)
        assert str(word) == str(made) and len(word) == len(made) > 0


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
    assert np.array_equal(result.member_codes, u.codes)
    assert len(result) == len(u)


def test_pruned_product_counts(g5_closure, g7_closure, g9_closure):
    """Each node is multiplied only by the generators of its suffix's
    children, far fewer than all |G_n| of them."""
    assert close(build_G(3)).stats.products == 48
    assert g5_closure.stats.products == 371
    assert g7_closure.stats.products == 5738
    assert g9_closure.stats.products == 87343


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
    for code in rng.sample(g9_closure.member_codes.tolist(), 250):
        word = g9_closure.witness(code)
        assert encode(evaluate_word(word, gens)) == code


def test_witnesses_minimal_and_lex_least():
    for n in (3, 5):
        gens = build_G(n)
        result = close(gens)
        reference = brute_force_words(gens)
        assert sorted(reference) == result.member_codes.tolist()
        for code, word in reference.items():
            assert result.witness(code).labels == word, (n, code)


@pytest.mark.parametrize("block", [None, 64])
@pytest.mark.parametrize("n", [3, 5, 7])
def test_witness_stream_matches_brute_force_at_every_floor(n, block, monkeypatch):
    """The engine against the reference BFS, which shares none of its code.

    A 64-entry block splits every level into many chunks, each of which
    must see the codes found by the chunks before it."""
    if block is not None:
        monkeypatch.setattr(closure_module, "_BLOCK_ENTRIES", block)
    gens = build_G(n)
    reference = sorted(brute_force_words(gens).items())
    for r in range(n + 2):
        expected = [(code, Word(word)) for code, word in reference
                    if decode(n, code).rank >= r]
        result = close(gens, min_rank=r)
        assert list(result.witness_items()) == expected, (n, r)
        assert sum(result.stats.level_sizes) == len(expected)
    # r = n + 1 lies above every generator's rank: nothing is kept
    assert not expected and result.stats.level_sizes == ()


def test_witness_stream_matches_lookups_on_wide_generator_sets(u7):
    """J_7 has 166 generators and FI_7 ∖ R_1 has over 2000, so the tree names
    generator indices that no 8-bit dtype holds."""
    wide = close_excluding(u7, r_class(7, 1, u7).codes)
    assert wide._genidx.max() > 255
    for result in (close(build_J(7, u7)), wide):
        expected = [(int(c), result.witness(int(c))) for c in result.member_codes]
        assert list(result.witness_items()) == expected


def test_lookups_do_not_build_the_member_set(g7_closure):
    result = close(build_G(7))
    code = int(g7_closure.member_codes[100])
    assert code in result and PartialInjection.empty(7) in result
    assert -1 not in result and 10 ** 30 not in result
    assert result.witness(code) == g7_closure.witness(code)
    with pytest.raises(NotGeneratedError):
        result.witness(10 ** 30)
    # a map of another size is refused, not matched by its code
    small = PartialInjection(3, (1, 0, 0))
    assert encode(small) in result
    for lookup in (result.__contains__, result.witness):
        with pytest.raises(ValueError, match="size mismatch"):
            lookup(small)


def test_members_closed_under_composition(g5_closure):
    rng = random.Random(5)
    pool = g5_closure.member_codes.tolist()
    for _ in range(400):
        f = decode(5, rng.choice(pool))
        g = decode(5, rng.choice(pool))
        assert encode(compose(f, g)) in g5_closure


def test_workers_determinism():
    a = close(build_G(7), workers=1)
    b = close(build_G(7), workers=4)
    assert np.array_equal(a._order_codes, b._order_codes)
    assert a.stats.level_sizes == b.stats.level_sizes
    assert list(a.member_codes) == list(b.member_codes)
    for code in a.member_codes.tolist():
        assert a.witness(code) == b.witness(code)


def assert_same_tree(a, b):
    """Bit-identical BFS arrays, with int64 codes and an int32 tree."""
    assert a._order_codes.dtype == np.int64
    assert a._parents.dtype == a._genidx.dtype == np.int32
    for name in ("_order_codes", "_parents", "_genidx"):
        x, y = getattr(a, name), getattr(b, name)
        assert x.dtype == y.dtype and x.tobytes() == y.tobytes(), name
    assert a.stats.level_sizes == b.stats.level_sizes


def assert_sorted_members(result):
    """``member_codes`` is the BFS-order codes sorted, and read-only."""
    codes = result.member_codes
    assert not codes.flags.writeable
    assert codes.dtype == np.int64
    assert codes.tobytes() == np.sort(result._order_codes).tobytes()


@pytest.mark.parametrize("n, block", [(7, 128), (9, 1 << 14)])
def test_small_blocks_split_rows_identically(n, block, monkeypatch, tmp_path):
    """With small blocks a level's candidates span several blocks, each
    holding the candidates of a run of whole frontier nodes, and must still
    give the arrays and product count of the default block size; so must a
    replay of the saved tree, whose products are formed in blocks too."""
    gens = build_G(n)
    for floor in (0, n - 1):
        reference = close(gens, min_rank=floor)
        tree_path = tmp_path / f"floor{floor}.tree"
        reference.save(tree_path)
        with monkeypatch.context() as patch:
            patch.setattr(closure_module, "_BLOCK_ENTRIES", block)
            result = close(gens, min_rank=floor)
            loaded = ClosureResult.load(tree_path, gens)
        for copy in (reference, result, loaded):
            assert_same_tree(reference, copy)
            assert copy.stats.products == reference.stats.products
            assert_sorted_members(copy)


def test_blocks_smaller_than_one_node_split_rows_identically(u7, monkeypatch):
    """A seed of J_7 forms 166 candidates, so with 16-entry blocks a run of
    one frontier node outgrows its block, and several block multiples fall
    within one node."""
    gens = build_J(7, u7)
    reference = close(gens)
    with monkeypatch.context() as patch:
        patch.setattr(closure_module, "_BLOCK_ENTRIES", 16)
        result = close(gens)
    assert_same_tree(reference, result)
    assert result.stats.products == reference.stats.products
    assert_sorted_members(result)


@pytest.mark.parametrize("n, k, dtype", [
    (4, 51, np.uint8),        # 255 lookup entries
    (15, 16, np.uint16),      # 256
    (14, 4369, np.uint16),    # 65,535
    (15, 4096, np.uint32),    # 65,536
])
def test_product_kernel_at_index_dtype_boundaries(n, k, dtype):
    """The narrow gather of the product kernel equals an intp ``take`` on
    both sides of each switch of the offsets' dtype, down to the last
    lookup entry."""
    rng = np.random.default_rng(n * k)
    rows = rng.integers(0, n + 1, size=(k, n), dtype=np.uint8)
    lookup, bases = closure_module._lookup(n, rows)
    assert len(lookup) == k * (n + 1) and bases.dtype == dtype
    frontier = rng.integers(0, n + 1, size=(n, 300), dtype=np.uint8)
    frontier[:, -1] = n  # with the last generator, reaches the last entry
    cols = rng.integers(0, frontier.shape[1], size=2000)
    gens = rng.integers(0, k, size=len(cols))
    cols[-1], gens[-1] = frontier.shape[1] - 1, k - 1
    powers = np.asarray(code_powers(n), dtype=np.int64)
    images, codes = closure_module._products(
        lookup, frontier, cols, bases.take(gens), powers)
    index = frontier.take(cols, axis=1).astype(np.intp) + gens.astype(np.intp) * (n + 1)
    reference = lookup.take(index)
    assert index.max() == len(lookup) - 1
    assert images.dtype == np.uint8 and np.array_equal(images, reference)
    assert codes.dtype == np.int64
    assert np.array_equal(codes, powers @ reference.astype(np.int64))
    # the image of point a under generator g is that generator's row entry
    points = frontier.take(cols, axis=1).astype(np.intp)
    expect = np.where(points > 0, rows[gens, np.maximum(points - 1, 0)], 0)
    assert np.array_equal(images, expect)


def test_close_G11_peak_memory():
    """No n-wide int64 copy of a candidate block: the product step gathers
    through a narrow index and sums codes in buffered chunks.  No array
    grows with a level's candidates, and a block's arrays die with it."""
    gens = build_G(11)
    tracemalloc.start()
    try:
        result = close(gens)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(result) == 586650
    assert peak < 55_000_000, peak


@settings(max_examples=25, deadline=None)
@given(st.sets(st.sampled_from(sorted(build_G(5).labels)), min_size=1))
def test_closure_monotone_in_generators(labels):
    gens = build_G(5)
    drop = [lab for lab in gens.labels if lab not in labels]
    sub = gens.without(*drop) if drop else gens
    assert set(close(sub).member_codes.tolist()) <= set(close(gens).member_codes.tolist())


def test_factorize_and_not_generated():
    gens = build_G(5).without(
        "alpha_1", "alpha_2", "alpha_3", "beta_2_odd", "beta_2_even")
    result = close(gens)  # gamma alone: just {gamma, id}
    assert len(result) == 2
    word = result.witness(PartialInjection.identity(5))
    assert word == Word(("gamma", "gamma"))
    with pytest.raises(NotGeneratedError):
        result.witness(PartialInjection.empty(5))


def test_verify_generates(u5):
    check = verify_generates(build_G(5), u5)
    assert check.generates and not check.missing and not check.extra
    partial = verify_generates(build_G(5).without("gamma"), u5)
    assert not partial.generates
    missing = set(u5.codes.tolist()) - set(partial.closure.member_codes.tolist())
    assert partial.missing == tuple(sorted(missing))
    assert not partial.extra
    lone = GeneratorSet(5, (("id", PartialInjection.identity(5)),))
    assert not verify_generates(lone, u5).generates


def test_close_excluding_complement(u5):
    cls = r_class(5, 1, u5)
    result = close_excluding(u5, cls.codes)
    assert result.member_codes.tolist() == sorted(set(u5.codes.tolist()) - set(cls.codes))
    # a code past int64 is refused like any other stray code
    for stray in (10 ** 9, 2 ** 70):
        with pytest.raises(ValueError, match=rf"^excluded codes not in the universe: \[{stray}\]$"):
            close_excluding(u5, (stray,))


@pytest.mark.parametrize("bad", [1.5, "7", True])
def test_lookups_refuse_non_integer_codes(g5_closure, u5, bad):
    # int() would read 1.5 and True as code 1 and "7" as code 7
    with pytest.raises(ValueError, match="^code must be an integer"):
        bad in g5_closure
    with pytest.raises(ValueError, match="^code must be an integer"):
        g5_closure.witness(bad)
    with pytest.raises(ValueError, match="^excluded code must be an integer"):
        close_excluding(u5, (bad,))


def test_lookups_take_numpy_codes_and_refuse_elements(g5_closure, u5):
    code = int(g5_closure.member_codes[7])
    assert np.int64(code) in g5_closure
    assert g5_closure.witness(np.int64(code)) == g5_closure.witness(code)
    gam = encode(gamma(5))
    assert np.array_equal(close_excluding(u5, (np.int64(gam),)).member_codes,
                          close_excluding(u5, (gam,)).member_codes)
    # excluded elements are given by code only
    with pytest.raises(ValueError, match="^excluded code must be an integer"):
        close_excluding(u5, [gamma(5)])


def test_close_excluding_nothing_is_identity_map(u5):
    # FI_n is closed, so excluding nothing reproduces the universe
    assert np.array_equal(close_excluding(u5, ()).member_codes, u5.codes)


def test_close_excluding_gamma_keeps_identity(u5):
    result = close_excluding(u5, (encode(gamma(5)),))
    assert encode(PartialInjection.identity(5)) in result
    assert encode(gamma(5)) not in result


def test_generators_have_length_one_witnesses(g9_closure):
    word = g9_closure.witness(beta_odd(9, 4))
    assert word == Word(("beta_4_odd",))


def test_witnesses_reproduce_members_n7(g7_closure):
    gens = build_G(7)
    for code in g7_closure.member_codes.tolist():
        word = g7_closure.witness(code)
        assert encode(evaluate_word(word, gens)) == code


def test_save_load_roundtrip(tmp_path, g5_closure):
    tree_path = tmp_path / "c.tree"
    g5_closure.save(tree_path)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["c.tree", "c.tree.json"]
    loaded = ClosureResult.load(tree_path, build_G(5))
    assert loaded.n == 5
    assert np.array_equal(loaded.member_codes, g5_closure.member_codes)
    assert loaded.labels == g5_closure.labels
    assert loaded.stats.level_sizes == g5_closure.stats.level_sizes
    assert loaded.stats.products == g5_closure.stats.products
    assert_same_tree(g5_closure, loaded)
    for code in g5_closure.member_codes.tolist():
        assert loaded.witness(code) == g5_closure.witness(code)
    # saving the loaded closure reproduces the files byte for byte
    loaded.save(tmp_path / "d.tree")
    for a, b in (("c.tree", "d.tree"), ("c.tree.json", "d.tree.json")):
        assert (tmp_path / a).read_bytes() == (tmp_path / b).read_bytes()


def test_loaded_lookups_need_no_code_order(tmp_path, g7_closure):
    """A lookup on a loaded closure searches the sorted codes and scans the
    BFS-order codes once; only the witness stream argsorts every code."""
    tree_path = tmp_path / "c.tree"
    g7_closure.save(tree_path)
    loaded = ClosureResult.load(tree_path, build_G(7))
    codes = [int(c) for c in g7_closure.member_codes[::97]]
    assert all(code in loaded for code in codes)
    assert 10 ** 30 not in loaded
    words = [loaded.witness(code) for code in codes]
    assert "_code_order" not in loaded.__dict__
    assert words == [g7_closure.witness(code) for code in codes]
    assert list(loaded.witness_items()) == list(g7_closure.witness_items())


def test_loaded_closure_counts_products(tmp_path, g9_closure):
    tree_path = tmp_path / "c.tree"
    g9_closure.save(tree_path)
    loaded = ClosureResult.load(tree_path, build_G(9))
    assert loaded.stats.products == g9_closure.stats.products


@pytest.mark.parametrize("n", [5, 7])
def test_tree_product_count_matches_engine_at_every_floor(n, u7):
    """The replay rebuilds the engine's codes and counts its products, at
    every floor and, at n = 7, over J_7 and FI_7 ∖ R_1, whose tree names
    generator indices that no 8-bit dtype holds."""
    gens = build_G(n)
    cases = [(r, gens, close(gens, min_rank=r)) for r in range(n + 2)]
    if n == 7:
        wide = close_excluding(u7, r_class(7, 1, u7).codes)
        assert wide._genidx.max() > 255
        wide_gens = GeneratorSet(7, tuple(
            (label, decode(7, int(label))) for label in wide.labels))
        cases += [("J_7", build_J(7, u7), close(build_J(7, u7))),
                  ("FI_7 - R_1", wide_gens, wide)]
    for case, gens, result in cases:
        rows = closure_module._sorted_rows(gens)[1]
        codes, products = closure_module._replay_tree(
            n, rows, result._parents, result._genidx, result.stats.level_sizes)
        assert codes.tobytes() == result._order_codes.tobytes(), case
        assert products == result.stats.products, case


def test_tree_product_count_refuses_a_missing_suffix(g5_closure):
    """A tree whose node's suffix (its word without the first letter) is
    not a node is not one the engine builds."""
    parents, genidx = g5_closure._parents, g5_closure._genidx.copy()
    sizes = g5_closure.stats.level_sizes
    rows = closure_module._sorted_rows(build_G(5))[1]
    node = sizes[0] + sizes[1]  # the first node of the third level
    refused = 0
    for k in range(len(g5_closure.labels)):
        genidx[node] = k
        try:
            closure_module._replay_tree(5, rows, parents, genidx, sizes)
        except ValueError as error:
            assert "suffix" in str(error)
            refused += 1
    assert 0 < refused < len(g5_closure.labels)


def test_tree_replay_refuses_a_parent_outside_the_level_before(g5_closure):
    """A corrupt int32 parent is refused, not wrapped around into the
    level before."""
    sizes = g5_closure.stats.level_sizes
    rows = closure_module._sorted_rows(build_G(5))[1]
    node = sizes[0] + sizes[1]  # the first node of the third level
    for parent in (np.iinfo(np.int32).min, node):  # node: one past the level
        parents = g5_closure._parents.copy()
        parents[node] = parent
        with pytest.raises(ValueError, match="a node's parent is not in the level before"):
            closure_module._replay_tree(5, rows, parents, g5_closure._genidx, sizes)


def test_tree_save_holds_one_copy(tmp_path, g9_closure):
    """Saving a closure hashes and writes its tree from one array; the
    digest of the codes reads them in place."""
    payload = 8 * len(g9_closure)
    tracemalloc.start()
    try:
        g9_closure.save(tmp_path / "c.tree")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.25 * payload, (peak, payload)


def test_tree_read_holds_one_copy(tmp_path, g9_closure):
    """Reading a cache file allocates its bytes once; the payload is a view."""
    tree_path = tmp_path / "c.tree"
    g9_closure.save(tree_path)
    size = tree_path.stat().st_size
    tracemalloc.start()
    try:
        read_binary_file(tree_path, TREE_MAGIC, 8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.25 * size, (peak, size)


def _rewrite_tree(tree_path, edit):
    """Apply ``edit(parents, genidx)`` and write a well-formed tree file."""
    n, count, payload = read_binary_file(tree_path, TREE_MAGIC, 8)
    tree = np.frombuffer(payload, dtype="<i4").copy()
    edit(tree[:count], tree[count:])
    write_binary_file(tree_path, TREE_MAGIC, n, count, tree.tobytes())


def _resize_tree(tree_path, keep, level_sizes):
    """Keep the nodes ``keep`` (an index array) and write a well-formed tree
    file with a sidecar that agrees with it on ``count`` and ``level_sizes``
    but keeps the old digest of the codes."""
    n, count, payload = read_binary_file(tree_path, TREE_MAGIC, 8)
    tree = np.frombuffer(payload, dtype="<i4")
    parents, genidx = tree[:count][keep], tree[count:][keep]
    payload = np.concatenate([parents, genidx]).tobytes()
    write_binary_file(tree_path, TREE_MAGIC, n, len(keep), payload)
    meta = json.loads(sidecar_path(tree_path).read_text())
    meta["count"], meta["level_sizes"] = len(keep), list(level_sizes)
    write_sidecar(tree_path, meta)


def test_load_rejects_mismatched_witnesses(tmp_path, g5_closure):
    gens = build_G(5)
    tree_path = tmp_path / "c.tree"
    g5_closure.save(tree_path)
    raw = tree_path.read_bytes()
    side_raw = sidecar_path(tree_path).read_bytes()
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
            ClosureResult.load(tree_path, gens)
    tree_path.write_bytes(raw[:-4])
    with pytest.raises(ValueError):
        ClosureResult.load(tree_path, gens)
    # Trees that replay cleanly and agree with their sidecar's count and
    # level sizes, but rebuild other codes: only the digest of the codes
    # catches these.
    count, sizes = len(g5_closure), g5_closure.stats.level_sizes
    resized = [
        # the last BFS level dropped
        (np.arange(count - sizes[-1]), sizes[:-1]),
        # the last node duplicated, within its level
        (np.append(np.arange(count), count - 1), sizes[:-1] + (sizes[-1] + 1,)),
    ]
    for keep, level_sizes in resized:
        tree_path.write_bytes(raw)
        sidecar_path(tree_path).write_bytes(side_raw)
        _resize_tree(tree_path, keep, level_sizes)
        with pytest.raises(ValueError, match="does not rebuild"):
            ClosureResult.load(tree_path, gens)
    # an intact tree is still refused for a different generating set
    tree_path.write_bytes(raw)
    sidecar_path(tree_path).write_bytes(side_raw)
    with pytest.raises(ValueError):
        ClosureResult.load(tree_path, gens.without("gamma"))
    by_label = gens.mapping()
    swapped = GeneratorSet(5, tuple(
        (label, by_label["alpha_1"] if label == "alpha_3" else
         by_label["alpha_3"] if label == "alpha_1" else element)
        for label, element in gens))
    with pytest.raises(ValueError):
        ClosureResult.load(tree_path, swapped)
    assert np.array_equal(
        ClosureResult.load(tree_path, gens).member_codes, g5_closure.member_codes)


def test_load_rejects_every_flipped_byte(tmp_path):
    gens = build_G(3)
    tree_path = tmp_path / "c.tree"
    close(gens).save(tree_path)
    for path in (tree_path, sidecar_path(tree_path)):
        raw = path.read_bytes()
        for pos in range(len(raw)):
            for mask in (0x01, 0xFF):
                damaged = bytearray(raw)
                damaged[pos] ^= mask
                path.write_bytes(bytes(damaged))
                with pytest.raises(ValueError):
                    ClosureResult.load(tree_path, gens)
        path.write_bytes(raw)
    assert len(ClosureResult.load(tree_path, gens)) == 18


def test_load_rejects_wrongly_typed_sidecars(tmp_path, g5_closure, u5):
    """Hand-edited sidecars in the canonical layout, with values of the
    wrong JSON type, are refused like any other mismatch."""
    tree_path = tmp_path / "c.tree"
    g5_closure.save(tree_path)
    u5.save(tmp_path / "u.bin")
    cases = [(tree_path, "level_sizes", 7), (tree_path, "level_sizes", ["7"]),
             (tree_path, "labels", 5), (tree_path, "codes_sha256", 0),
             (tmp_path / "u.bin", "rank_histogram", 2)]
    for path, key, value in cases:
        side = sidecar_path(path)
        raw = side.read_text()
        meta = json.loads(raw)
        meta[key] = value
        write_sidecar(path, meta)
        with pytest.raises(ValueError):
            if path == tree_path:
                ClosureResult.load(tree_path, build_G(5))
            else:
                ElementUniverse.load(path)
        side.write_text(raw)


@pytest.mark.parametrize("n", [5, 7])
def test_min_rank_floor_keeps_rank_layers(n):
    gens = build_G(n)
    full = close(gens)
    for r in range(n + 1):
        floored = close(gens, min_rank=r)
        expected = [c for c in full.member_codes.tolist() if decode(n, c).rank >= r]
        assert floored.member_codes.tolist() == expected, r
        for code in expected:
            assert floored.witness(code) == full.witness(code), (r, code)
    assert len(close(gens, min_rank=n + 1)) == 0


@pytest.mark.parametrize("n", [5, 7, 9])
def test_floor_ignores_sub_floor_generators(n):
    """Generators below the floor change nothing: not the members, the
    witnesses, the products formed nor the level sizes."""
    gens = build_G(n)
    for r in (n - 1, n):
        below = [label for label, g in gens if g.rank < r]
        assert below, r
        floored = close(gens, min_rank=r)
        pruned = close(gens.without(*below), min_rank=r)
        assert np.array_equal(floored.member_codes, pruned.member_codes), r
        assert list(floored.witness_items()) == list(pruned.witness_items()), r
        assert floored.stats.products == pruned.stats.products, r
        assert floored.stats.level_sizes == pruned.stats.level_sizes, r


@pytest.mark.parametrize("n, r, below, count, sizes, products", [
    (13, 11, 0, 850, (24, 115, 263, 298, 131, 19), 3488),
    (13, 12, 14, 56, (10, 23, 18, 5), 226),
    (15, 13, 0, 1214, (30, 148, 362, 440, 203, 31), 5509),
    (15, 14, 19, 66, (11, 27, 22, 6), 286),
])
def test_floored_closures_past_enumeration(n, r, below, count, sizes, products):
    """Top layers of ⟨G_n⟩ past the enumeration cap, with ``below`` of the
    generators under the floor."""
    gens = build_G(n)
    assert sum(g.rank < r for _, g in gens) == below
    result = close(gens, min_rank=r)
    assert len(result) == count
    assert result.stats.level_sizes == sizes
    assert result.stats.products == products
    if (n, r) == (15, 13):
        ranks = [decode(n, c).rank for c in result.member_codes.tolist()]
        assert [ranks.count(k) for k in (15, 14, 13)] == [2, 64, 1148]


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
