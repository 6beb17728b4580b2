"""Closure BFS: membership, witnesses, determinism, persistence."""

import copy
import itertools
import json
import pickle
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
from fenceinj import fence as fence_module
from fenceinj.analysis import r_class
from fenceinj.closure import TREE_MAGIC, _generation_check
from fenceinj.oracle import (
    read_binary_file,
    sidecar_path,
    write_binary_file,
    write_sidecar,
)


def brute_force_words(gens, min_rank=0):
    """Reference BFS: for each reachable code of rank at least ``min_rank``,
    the lexicographically least minimum-length word.  The floor is exact,
    since rank never rises along a word.  Quadratic and tiny-n only."""
    n = gens.n
    by_label = gens.mapping()
    best = {}
    frontier = []
    for label in sorted(gens.labels):
        code = encode(by_label[label])
        if code not in best and by_label[label].rank >= min_rank:
            best[code] = (label,)
            frontier.append(code)
    while frontier:
        candidates = {}
        for code in frontier:
            f = decode(n, code)
            for label in sorted(gens.labels):
                g = compose(f, by_label[label])
                product = encode(g)
                if product in best or g.rank < min_rank:
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
    assert repr(w) == "Word(labels=('gamma', 'alpha_1'))"
    assert Word.parse("gamma·alpha_1") == w
    assert Word.parse("gamma") == Word(labels=("gamma",))
    assert len(w) == 2
    assert type(w.labels) is tuple and w.labels == ("gamma", "alpha_1")
    with pytest.raises(ValueError):
        Word(())
    same, other = Word(["gamma", "alpha_1"]), Word(("alpha_1", "gamma"))
    assert w == same and not w != same and hash(w) == hash(same)
    assert w != other and not w == other
    assert len({w, same, other}) == 2
    # never equal to a bare tuple of the same labels, from either side
    for labels in (w.labels, tuple(w)):
        assert w != labels and labels != w
        assert not w == labels and not labels == w
    for twin in (pickle.loads(pickle.dumps(w)), copy.copy(w), copy.deepcopy(w)):
        assert type(twin) is Word and twin == w and hash(twin) == hash(w)


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


def test_witness_stream_matches_lookups_on_wide_generator_sets(u7, monkeypatch):
    """J_7 has 166 generators and FI_7 ∖ R_1 has over 2000, so the tree names
    generator indices that no 8-bit dtype holds, and the product table's
    index is uint32.  With 64-entry blocks, each block of the stream holds
    words of only a few lengths."""
    excluded = r_class(7, 1, u7).codes
    for block in (None, 64):
        with monkeypatch.context() as patch:
            if block is not None:
                patch.setattr(closure_module, "_BLOCK_ENTRIES", block)
            wide = close_excluding(u7, excluded)
            # 257 generators or more pass a uint16 index (see the kernel test)
            assert wide._genidx.max() > 256
            for result in (close(build_J(7, u7)), wide):
                expected = [(int(c), result.witness(int(c)))
                            for c in result.member_codes]
                assert list(result.witness_items()) == expected, block


def test_more_than_255_generators_widen_their_indices(u9, tmp_path):
    """J_9 has 326 generators, so the engine keeps its generator indices in
    two bytes, not one, while it runs; the tree still holds int32 indices,
    replays from its file, and its witnesses evaluate to their codes."""
    gens = build_J(9, u9)
    assert len(gens) == 326
    result = close(gens)
    assert result._order_codes.dtype == np.int64
    assert result._parents.dtype == result._genidx.dtype == np.int32
    assert result._genidx.max() > 255
    assert _generation_check(result, u9).generates
    tree_path = tmp_path / "j9.tree"
    result.save(tree_path)
    loaded = ClosureResult.load(tree_path, gens)
    assert_same_tree(result, loaded)
    assert loaded.stats.products == result.stats.products
    rng = random.Random(9)
    for code in rng.sample(result.member_codes.tolist(), 300):
        assert encode(evaluate_word(loaded.witness(code), gens)) == code


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
    replay of the saved tree, whose products are formed in blocks too.
    Both run with the default ``_PIECE`` and with 64, in the engine and in
    ``fence``, so a node's candidates straddle the pieces its products,
    dedupe and codes are formed in, and a new row's node is still found
    from its first index alone."""
    gens = build_G(n)
    for floor in (0, n - 1):
        reference = close(gens, min_rank=floor)
        tree_path = tmp_path / f"floor{floor}.tree"
        reference.save(tree_path)
        for piece in (closure_module._PIECE, 64):
            with monkeypatch.context() as patch:
                patch.setattr(closure_module, "_BLOCK_ENTRIES", block)
                patch.setattr(closure_module, "_PIECE", piece)
                patch.setattr(fence_module, "_PIECE", piece)
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


def random_injection(rng, n):
    """A partial injection on {1..n}, not always a fence automorphism,
    with a random share of its points defined."""
    images = rng.permutation(n) + 1
    images[rng.random(n) >= rng.random()] = 0
    return PartialInjection(n, tuple(images.tolist()))


@pytest.mark.parametrize("n, k, dtype", [
    (3, 1, np.uint8),        # last table index 255
    (3, 2, np.uint16),       # 511
    (15, 256, np.uint16),    # 65,535
    (15, 257, np.uint32),    # 65,791
])
def test_product_kernel_at_index_dtype_boundaries(n, k, dtype, monkeypatch):
    """The byte-table kernel's products, formed over their factors' words
    in place, equal ``compose`` on both sides of each switch of the gather
    index's dtype, in one piece and in many, and its gather reaches the
    last table entry."""
    rng = np.random.default_rng(n * k)
    gens = [random_injection(rng, n) for _ in range(k)]
    rows = np.array([g.images for g in gens], dtype=np.uint8)
    table, offsets = closure_module._byte_table(rows)
    assert len(table) == k * 256 and offsets.dtype == dtype
    elements = [random_injection(rng, n) for _ in range(300)]
    frontier = fence_module._pack(
        np.array([f.images for f in elements], dtype=np.uint8))
    nodes = rng.integers(0, len(elements), size=2000)
    which = rng.integers(0, k, size=len(nodes))
    which[-1] = k - 1
    expected = [encode(compose(elements[i], gens[j]))
                for i, j in zip(nodes.tolist(), which.tolist())]
    tables = fence_module._sum_tables(n)
    for piece in (None, 64):
        if piece is not None:
            monkeypatch.setattr(closure_module, "_PIECE", piece)
            monkeypatch.setattr(fence_module, "_PIECE", piece)
        words = frontier.take(nodes)
        products = closure_module._times(table, offsets, words, which)
        assert products is words and products.dtype == np.dtype("<u8")
        codes = np.empty(len(products), dtype=np.int64)
        assert fence_module._write_codes(tables, products, codes) is codes
        assert codes.tolist() == expected
    # every nibble 15, which no map packs to, by the last generator: each
    # byte is table entry k·256 − 1
    full = np.array([closure_module._NO_WORD], dtype="<u8")
    last = closure_module._times(table, offsets, full, np.array([k - 1]))
    assert last.view(np.uint8).tolist() == [int(table[-1])] * 8
    assert table[-1] == (rows[-1, 14] if n == 15 else 0) * 17


def test_packed_words_convert_to_codes(u3, u5, u7, u9, u11):
    """``_decode_codes`` gives the words ``_pack`` makes of the image rows
    that ``decode`` gives, and the ranks ``PartialInjection.rank`` gives,
    on FI_3…FI_9, every 29th code of FI_11 and random maps at n = 11, 13
    and 15; none of these lengths is a multiple of ``_PIECE``.  The words
    unpack to the rows, counting their defined points gives the ranks too,
    and ``_write_codes`` gives back the codes, in pieces and written over
    the words themselves, also for the census words of the whole of FI_11;
    no packed word is the sentinel."""
    cases = [(u.n, u.codes[::29] if u.n == 11 else u.codes)
             for u in (u3, u5, u7, u9, u11)]
    cases = [(n, codes, [decode(n, c) for c in codes.tolist()])
             for n, codes in cases]
    rng = np.random.default_rng(15)
    for n in (11, 13, 15):
        maps = [PartialInjection.empty(n), PartialInjection.identity(n)]
        maps += [random_injection(rng, n) for _ in range(2000)]
        assert sum(15 in f.images for f in maps) > 100 or n < 15
        # image 15 in nibble 14, the last nibble a map fills
        assert any(f.images[-1] == 15 for f in maps) or n < 15
        cases.append((n, np.array([encode(f) for f in maps]), maps))
    for n, codes, maps in cases:
        assert len(codes) % fence_module._PIECE, n
        rows = np.array([f.images for f in maps], dtype=np.uint8)
        words, ranks = fence_module._decode_codes(codes, n)
        assert ranks.dtype == np.uint8, n
        assert ranks.tolist() == [f.rank for f in maps], n
        assert np.array_equal(words, fence_module._pack(rows)), n
        assert np.array_equal(fence_module._unpack(words, n), rows), n
        assert not np.any(words == closure_module._NO_WORD), n
        found = fence_module._nibble_bits(fence_module._defined(words))
        assert np.array_equal(found, ranks), n
        found = fence_module._write_codes(
            fence_module._sum_tables(n), words, words.view(np.int64))
        assert np.array_equal(found, codes), n
    codes = np.empty(len(u11), dtype=np.int64)
    fence_module._write_codes(fence_module._sum_tables(11), u11.words, codes)
    assert np.array_equal(codes, u11.codes)


@pytest.mark.parametrize("n", [1, 3, 13, 15])
def test_decode_codes_refuses_codes_out_of_range(n):
    """A code of n digits, up to (n+1)^n − 1, decodes; one past it, or one
    below 0, is no code of a map on {1..n}, in any piece."""
    top = (n + 1) ** n
    words, _ = fence_module._decode_codes(np.array([0, top - 1]), n)
    assert words.tolist() == [0, sum(n << 4 * k for k in range(n))]
    for bad in (top, top + 1, -1, -top):
        codes = np.zeros(3 * fence_module._PIECE, dtype=np.int64)
        codes[-1] = bad
        with pytest.raises(ValueError, match=f"code {bad} is out of range"):
            fence_module._decode_codes(codes, n)


def test_lowest_counts_the_nibbles_below_the_first_set_point():
    """``_lowest`` of a mask of nibble-low bits is x − 1 for its smallest
    point x, whatever points lie above it; an empty mask reads 0."""
    low = fence_module._NIBBLE_LOW
    masks, expected = [], []
    for x in range(1, 16):
        for above in (0, 1, 7, 2 ** 15 - 1):
            bits = (1 << (x - 1)) | (above << x) & (2 ** 15 - 1)
            masks.append(sum(1 << 4 * k for k in range(15) if bits >> k & 1))
            expected.append(x - 1)
    masks = np.array(masks, dtype=np.uint64)
    assert not np.any(masks & ~low)
    assert fence_module._lowest(masks).tolist() == expected
    assert fence_module._lowest(np.zeros(1, dtype=np.uint64)).tolist() == [0]


def test_merge_into_grows_the_array_in_place():
    """``_merge_into`` keeps the array object, keeps the sentinel last and
    equals a sort of the concatenation, with repeats and an empty ``more``."""
    rng = np.random.default_rng(3)
    for size, extra in [(0, 0), (0, 5), (7, 0), (300, 40), (40, 300)]:
        words = np.append(np.sort(rng.integers(0, 50, size=size, dtype=np.uint64)),
                          closure_module._NO_WORD)
        more = np.sort(rng.integers(0, 50, size=extra, dtype=np.uint64))
        expected = np.sort(np.concatenate([words, more]))
        merged = closure_module._merge_into(words, more)
        assert merged is words and words.dtype == np.uint64
        assert words[-1] == closure_module._NO_WORD
        assert np.array_equal(words, expected), (size, extra)


def spy_groupings(monkeypatch):
    """The names of the dedupe groupings that ``_first_new`` runs, in call
    order, filled in as it runs them."""
    ran = []
    for name in ("_groups_by_sort", "_groups_by_argsort"):
        def spy(*args, real=getattr(closure_module, name), name=name):
            ran.append(name)
            return real(*args)
        monkeypatch.setattr(closure_module, name, spy)
    return ran


def first_new_reference(words, seen, fresh, n, min_rank):
    """``_first_new`` by a scan in index order: the new words, their first
    indices and ``fresh`` once they are merged in, still ended by the
    sentinel."""
    known = set(seen.tolist()) | set(fresh.tolist())
    firsts = {}
    for i, word in enumerate(words.tolist()):
        rank = sum((word >> 4 * k) & 15 != 0 for k in range(n))
        if word not in known and word not in firsts and rank >= min_rank:
            firsts[word] = i
    merged = sorted(set(fresh.tolist()) | set(firsts))
    return list(firsts), list(firsts.values()), merged


def sentinel_ended(words):
    return np.append(np.unique(words), closure_module._NO_WORD)


@pytest.mark.parametrize("n", [5, 9, 11, 13])
def test_dedupe_paths_agree(n, monkeypatch):
    """The sort and the argsort dedupe of one block give the first indices,
    words and ``fresh``, merged in place, of a scan in index order, with
    words already in ``seen`` or ``fresh`` and words below the floor.  A
    block of at most 2^(64 − 4n) words takes the sort, so at n = 13 blocks
    of 2^12 and 2^12 + 1 words fall on the two sides of the switch.  A block
    of more than 16 words also takes the argsort when read as words of
    FI_15, whose ranks are the same; a one-entry block always takes the
    sort.  Both run with the default ``_PIECE`` and with 64, so keys and
    group starts are built across many pieces."""
    rng = np.random.default_rng(n)
    rows = rng.integers(0, n + 1, size=(60, n), dtype=np.uint8)
    rows[rng.random(rows.shape) < 0.3] = 0
    pool = fence_module._pack(rows)
    blocks = [pool[rng.integers(0, len(pool), size=size)] for size in (700, 40)]
    blocks.append(pool[:1])
    if n == 13:
        blocks += [pool[rng.integers(0, len(pool), size=size)]
                   for size in (1 << 12, (1 << 12) + 1)]
    ran = spy_groupings(monkeypatch)
    for words in blocks:
        for seen, fresh in [(pool[:0], pool[:0]), (pool[:10], pool[10:20]),
                            (words[:1], pool[:0])]:
            seen, fresh = sentinel_ended(seen), sentinel_ended(fresh)
            for floor in (0, n // 2, n + 1):
                expected = first_new_reference(words, seen, fresh, n, floor)
                sort = len(words) <= 1 << (64 - 4 * n)
                paths = [(n, sort)] + [(15, False)] * (len(words) > 16)
                for (width, by_sort), piece in itertools.product(
                        paths, (closure_module._PIECE, 64)):
                    monkeypatch.setattr(closure_module, "_PIECE", piece)
                    ran.clear()
                    block, merged = words.copy(), fresh.copy()
                    found, first = closure_module._first_new(
                        block, seen, merged, width, floor)
                    assert ran == ["_groups_by_sort" if by_sort
                                   else "_groups_by_argsort"]
                    assert (found.tolist(), first.tolist(), merged.tolist()) \
                        == expected, (len(words), width, floor, piece)


@pytest.mark.parametrize("n, r, grouping", [
    (13, 11, "_groups_by_sort"),
    (15, 13, "_groups_by_argsort"),
])
def test_floored_closures_match_brute_force(n, r, grouping, monkeypatch):
    """Past the enumeration cap, the codes and words of a floored closure
    are those of the floored reference BFS.  Every block of the n = 13 one
    takes the sort dedupe and every block of the n = 15 one the argsort."""
    gens = build_G(n)
    ran = spy_groupings(monkeypatch)
    result = close(gens, min_rank=r)
    assert set(ran) == {grouping}
    expected = [(code, Word(word))
                for code, word in sorted(brute_force_words(gens, r).items())]
    assert list(result.witness_items()) == expected


def traced_peak(call):
    """The value of ``call()`` and the peak of memory traced while it ran."""
    tracemalloc.start()
    try:
        value = call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return value, peak


@pytest.fixture(scope="module")
def g11_closure():
    return close(build_G(11))


def test_close_G11_peak_memory():
    """No n-wide int64 copy of a candidate block: the product step gathers
    through a narrow index and sums codes in buffered chunks.  No array
    grows with a level's candidates, and a block's arrays die with it, the
    child column before the dedupe starts; no candidate carries its node,
    the dedupe splits the block in its own memory, generator indices take
    one byte, and a level's codes are written over its words.  The peak
    was 22.1 MB on a 2-core host (Python 3.11, numpy 2.4), 29.8 MB with a
    node column per candidate, whole-block selections in the dedupe, int32
    generator indices and a block's codes formed beside its words."""
    result, peak = traced_peak(lambda: close(build_G(11)))
    assert len(result) == 586650
    assert peak < 24_300_000, peak


def test_G11_witness_stream_peak_memory(g11_closure):
    """The stream holds one block of 2^18 letters' words at a time, beside
    the nodes in code order, which the first block sorts: 7.9 MB of peak
    on the host above, 17.4 MB with blocks of 2^20 letters."""
    count, peak = traced_peak(lambda: sum(1 for _ in g11_closure.witness_items()))
    assert count == 586650
    assert peak < 8_700_000, peak


def test_G11_tree_load_peak_memory(tmp_path, g11_closure):
    """A load holds the file's 4.7 MB payload, the BFS-order codes and their
    sorted copy, and two levels' words, keys and suffixes; the replay looks
    suffixes up 2^16 nodes at a time: 18.6 MB of peak on the host above,
    19.2 MB with level-sized lookups."""
    tree_path = tmp_path / "c.tree"
    g11_closure.save(tree_path)
    loaded, peak = traced_peak(lambda: ClosureResult.load(tree_path, build_G(11)))
    assert loaded.stats.products == g11_closure.stats.products
    assert peak < 20_500_000, peak


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
    # a closure larger than the universe: the codes it adds are extra
    short = verify_generates(build_G(5), ElementUniverse(5, u5.codes[1:]))
    assert not short.generates and not short.missing
    assert short.extra == (u5.codes[0],)


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
def test_tree_product_count_matches_engine_at_every_floor(n, u7, monkeypatch):
    """The replay rebuilds the engine's codes and counts its products, at
    every floor and, at n = 7, over J_7 and FI_7 ∖ R_1, whose tree names
    generator indices that no 8-bit dtype holds.  It does so with the
    default ``_PIECE`` and with 64, in the replay and in ``fence``, which
    looks suffixes up 512 nodes at a time, so the levels of G_7 and the
    wide trees span several pieces."""
    gens = build_G(n)
    cases = [(r, gens, close(gens, min_rank=r)) for r in range(n + 2)]
    if n == 7:
        wide = close_excluding(u7, r_class(7, 1, u7).codes)
        assert wide._genidx.max() > 255
        wide_gens = GeneratorSet(7, tuple(
            (label, decode(7, int(label))) for label in wide.labels))
        cases += [("J_7", build_J(7, u7), close(build_J(7, u7))),
                  ("FI_7 - R_1", wide_gens, wide)]
    for (case, gens, result), piece in itertools.product(
            cases, (closure_module._PIECE, 64)):
        monkeypatch.setattr(closure_module, "_PIECE", piece)
        monkeypatch.setattr(fence_module, "_PIECE", piece)
        rows = closure_module._sorted_rows(gens)[1]
        codes, products = closure_module._replay_tree(
            n, rows, result._parents, result._genidx, result.stats.level_sizes)
        assert codes.tobytes() == result._order_codes.tobytes(), (case, piece)
        assert products == result.stats.products, (case, piece)


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


def test_tree_replay_refuses_a_missing_suffix_in_a_later_piece(g7_closure, monkeypatch):
    """With ``_PIECE`` at 64, suffixes are looked up 512 nodes at a time, so
    a node 700 places into the 803-node fourth level of G_7 lies in the
    level's second piece; a suffix planted missing there is refused too.
    The tree is cut after that level, so no later level's lookup can be
    the one that refuses it."""
    monkeypatch.setattr(closure_module, "_PIECE", 64)
    sizes = g7_closure.stats.level_sizes[:4]
    assert sizes[3] == 803
    parents = g7_closure._parents[:sum(sizes)]
    genidx = g7_closure._genidx[:sum(sizes)].copy()
    rows = closure_module._sorted_rows(build_G(7))[1]
    closure_module._replay_tree(7, rows, parents, genidx, sizes)
    node = sum(sizes[:3]) + 700
    refused = 0
    for k in range(len(g7_closure.labels)):
        genidx[node] = k
        try:
            closure_module._replay_tree(7, rows, parents, genidx, sizes)
        except ValueError as error:
            assert "suffix" in str(error)
            refused += 1
    assert 0 < refused < len(g7_closure.labels)


def test_tree_replay_refuses_a_suffix_past_the_last_key():
    """A looked-up suffix key above every key of the level before finds the
    sentinel that ends them and is refused, rather than read past the end.

    Over generators a, b, c (indices 0, 1, 2), the tree a, b, c | a·a, b·b |
    b·b·k has level-2 keys (local parent + 1) · 3 + generator = 3 and 7.
    The suffix of b·b·k is b·k, whose key (1 + 1) · 3 + k is 7 for k = b,
    the node b·b, and 8 for k = c, above both."""
    rows = np.array([[1, 2, 3], [2, 1, 3], [0, 1, 2]], dtype=np.uint8)
    parents = np.array([-1, -1, -1, 0, 1, 4], dtype=np.int32)
    sizes = (3, 2, 1)
    genidx = np.array([0, 1, 2, 0, 1, 1], dtype=np.int32)
    closure_module._replay_tree(3, rows, parents, genidx, sizes)
    genidx[-1] = 2
    with pytest.raises(ValueError, match="a node's suffix is not in the tree"):
        closure_module._replay_tree(3, rows, parents, genidx, sizes)


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


@pytest.mark.parametrize("name", ["workers", "min_rank"])
@pytest.mark.parametrize("value", [True, 1.5, 2.0, "2"])
def test_close_refuses_non_integer_arguments(name, value):
    """A bool, float or str is no count: ``min_rank=1.5`` would floor at 2
    and ``min_rank=True`` at 1 if they were read as numbers."""
    with pytest.raises(ValueError, match=f"{name} must be an integer"):
        close(build_G(5), **{name: value})
    assert len(close(build_G(5), **{name: np.int64(2)})) == (
        182 if name == "workers" else 156)


def test_generator_cache_key_canonical():
    gens = build_G(5)
    shuffled = GeneratorSet(5, tuple(reversed(gens.entries)))
    assert generator_cache_key(gens) == generator_cache_key(shuffled)
    assert generator_cache_key(gens) != generator_cache_key(build_G(7))
    assert generator_cache_key(gens) != generator_cache_key(
        gens.without("gamma"))
    assert len(generator_cache_key(gens)) == 16
