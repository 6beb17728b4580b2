"""Semigroup closure with factorization witnesses.

Given a labeled generator set, compute every element reachable by finite
left-to-right products, together with a shortest witness word for each
element (ties broken lexicographically by label).  The search is a
breadth-first sweep by word length: each level multiplies the newly found
elements by every generator on the right, which suffices for semigroup
closure and keeps witness words shortest.

The sweep is pruned by word suffixes (Froidure & Pin, 1997).  A node's
word is the shortest, lexicographically least word of its element, and
such words are closed under suffixes: if a·w·k is one, so is w·k.  So a
frontier node x with word a·w, whose suffix node u has word w, is
multiplied only by the generators k that label a child of u (for a seed, u
is the empty word, whose children are the seeds), and the suffix of x·k is
that child.  Every other product is either already visited or reached by a
lexicographically smaller word.  The rule also holds under the ``min_rank``
floor, since rank(a·w) ≤ rank(w).  The floor drops seeds and products
alike, and a generator below it is never a seed, so the suffix rule never
multiplies by it.  The engine keeps each frontier node's suffix (its
index in the level before) and the children of each node of the level
before, a run of that level's sorted parent column.  Candidates are the
pairs (x, child of u) in the order (x, k), the order a full frontier ×
generators sweep would visit them in, so the first occurrence of each code,
and with it every witness, is the one the full sweep picks.

The hot path is table-driven.  An element is held as its packed word (see
``fence``), whose helpers convert it to and from codes and image rows.  A
flat ``uint8`` table maps byte b of a word, two images, through generator
k, 0 sticky, at offset k·256 + b.  One product kernel, ``_times``, serves
both the closure and the replay of a saved tree: over an array of the
candidates' frontier words, it adds each one's generator offset to its
eight bytes and gathers the product's bytes from the table, in place.  The
offsets take the narrowest unsigned dtype that holds the table's last
index, and the gather runs in pieces of ``_PIECE`` products, so its index
and the intp copy that ``take`` makes stay small.  Each candidate block is
deduped on its words by array operations alone: the least index of each
group of equal words is its first occurrence, which keeps the lexicographic
tie-break.  A word fills 4n bits, so a block of at most 2^(64 − 4n)
candidates, every block of G_n for n ≤ 11, sorts the keys word << (64 − 4n)
| index in place, and each group's first key holds its first index; those
keys are moved to the front of the block's own array and split there, the
indices out to an array of their own and the words shifted down.  The new
words and their indices are moved to the fronts of the two, a piece at a
time, and one sort of (index << 4n) | word, packed back into the block's
array, puts them in index order.  A longer block, such as those of G_13,
takes an argsort and ``minimum.reduceat`` instead.  The sort is preferred
because an argsort of 2^20 words took 51–62 ms against 12–14 ms for a sort;
with it, and the codes written in pieces (``_write_codes``), close(G_11)
fell from 0.26–0.27 to 0.19 s, the fastest of 12 runs in each of three
processes (2-core host, Python 3.11, numpy 2.4).  The unique words are
looked up with ``searchsorted`` in two sorted arrays: ``seen``, the words
of the levels before, fixed within a level, and ``fresh``, the words this
level has found so far.  Both end in ``_NO_WORD``, 2^64 − 1, which no
packed word equals.  A unique word below the ``min_rank`` floor (its
defined points counted by ``_nibble_bits(_defined(...))``) is never new.  The
lookups and the floor fill a mask ``_PIECE`` words at a time.  One merge,
``_merge_into``, grows a sorted word array in its own memory by a realloc,
which the allocator often does in place, writes the sorted new words behind
it and merges the two sorted runs there by a stable sort, so no second copy
of the array is made.  Each block's new words are merged into ``fresh``
before the next block, so a later block of the same level sees them, and
``fresh`` is merged into ``seen`` the same way once the level ends; a
block's merge touches only the level's words, not every word.  Merging each
block straight into ``seen`` touches every word per block: when these
arrays held the codes, also 8 bytes each, a cold closure of G_13 then
peaked at 616 MB RSS against 588 MB, in the same time, on the same host.  A
new node's product is its frontier word, and its code is formed once, over
that word, one table gather per byte (``_write_codes``), when the next
level has formed its products.  At the end ``seen`` becomes the sorted
``member_codes`` in place.  ``stats.products`` counts the candidates
formed.

The engine runs in the calling thread.  A level's frontier is cut into runs
of whole nodes, one block each, at the nodes where the running count of
candidates passes a multiple of ``_BLOCK_ENTRIES``, and blocks are
deduplicated in order.  A block's candidates are its run's frontier words,
each repeated by its node's candidate count, and ``_times`` forms the
products over them in place, so no candidate carries its node: a new row's
node is found by a search of its first index in the run's cumulative
counts.  The block's one other column, each candidate's child (int32), dies
once the products exist, since a new row's child is formed again from its
node's first child.  The dedupe then works in the block's own memory beside
one array as long as the block's unique words, with no mask or boolean
index longer than a piece beyond the one of group heads, and the block dies
before the new rows' nodes are looked up.  So a block holds its words
(eight bytes per candidate), its child column (four) only while it forms
its products, and the mask of group heads (one), and the engine's memory
is one block plus the tree it builds and the two word arrays, never a
level's candidates.  Per node the tree holds two int32 columns, a generator
index in the narrowest unsigned dtype that holds the generators' count
(one byte for every G_n, widened to int32 once, at the end) and its code,
which takes the place of its word when the node leaves the frontier; a
level's child counts die once the next level's candidate counts exist.  The
tree's columns are joined one at a time at the end.  close(G_11) peaked at
22.1 MB under tracemalloc, against 29.8 MB with a node column per
candidate, whole-block selections in the dedupe, int32 generator indices
and a block's codes formed beside its words (2-core host, Python 3.11,
numpy 2.4).  Peak RSS follows the allocator's heap layout more than the
bytes freed, since a freed array stays resident until a later one fits in
its place, and that layout shifts with the interpreter's own early
allocations; so a step was kept only where the process's measured peak
fell under 20 environments of different sizes.  A cold ``closure --n 11``
process peaked at 59.7–61.4 MB RSS under them, against 65.5–68.4 MB
before these cuts; with the codes still formed block by block beside the
words it peaked at either 60.5 or 68.8 MB, by environment, and with a copy
of ``seen`` made at each level's end, at up to 63.4 MB.

Witnesses are kept as the BFS tree itself (Froidure & Pin, 1997): each node
stores its parent node and last generator (int32 each), and a word is read
off by walking to the root.  ``witness_items`` walks a block of nodes at a
time, grouped by word length, one vector gather per letter, and zips each
group's per-letter label columns into words of exactly that length, each
a ``Word``, a tuple subclass, made by ``tuple.__new__``; the blocks'
iterators are chained, so no Python frame runs per word.  A block holds
2^18 letters, a quarter of ``_BLOCK_ENTRIES``, since each letter is an
object slot of a label column: streaming G_11 peaked at 7.9 MB under
tracemalloc, against 17.4 MB with blocks of 2^20 letters, in the same time.
``ClosureResult.save`` writes that tree after a header of magic, version,
n, node count and payload SHA-256 (``write_binary_file``), with a JSON
sidecar holding a SHA-256 of the sorted codes.  ``load`` replays the tree
over the generators in one walk of its levels, which rebuilds the codes
``_PIECE`` nodes at a time, looks up and checks every node's suffix and
counts the products the engine formed 2^16 nodes at a time, and frees each
level's keys, suffixes and words once the next level has used them; it
accepts the tree only if the rebuilt codes match that digest.
"""

from __future__ import annotations

import hashlib
import json
import struct
import time
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, repeat
from pathlib import Path
from typing import Iterable, Iterator

import numpy as np

from .fence import (
    _PIECE,
    PartialInjection,
    _check_int,
    _defined,
    _nibble_bits,
    _pack,
    _sum_tables,
    _write_codes,
    compose,
    encode,
)
from .generators import GeneratorSet
from .oracle import ElementUniverse

# the candidates of one block, plus at most one node's, since a block is a
# run of whole frontier nodes; a candidate's temporaries are a few 4- and
# 8-byte scalars
_BLOCK_ENTRIES = 1 << 20

# no packed word has a nonzero top nibble, so this one ends the sorted word
# arrays ``seen`` and ``fresh``, above every word
_NO_WORD = np.uint64(2 ** 64 - 1)

# magic of the witness-tree file: parent indices, then generator indices
TREE_MAGIC = b"FTRE"
CACHE_VERSION = 2
# magic, version, n, item count, SHA-256 of the payload
_HEADER = struct.Struct("<4sIIQ32s")


class NotGeneratedError(Exception):
    """The target lies outside the generated subsemigroup.

    This is a meaningful mathematical answer (the element has no witness
    word), not a computation failure.
    """

    def __init__(self, n: int, code: int):
        self.n = n
        self.code = code
        super().__init__(
            f"element with code {code} is not in the generated subsemigroup")


class Word(tuple):
    """A non-empty sequence of generator labels, composed left to right.

    A tuple of its labels, so it iterates and indexes like one, but equal
    only to a ``Word`` with the same labels, never to a bare tuple.
    """

    __slots__ = ()

    def __new__(cls, labels: Iterable[str]) -> Word:
        word = super().__new__(cls, labels)
        if not word:
            raise ValueError("witness words are products of length >= 1")
        return word

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(self)

    def __eq__(self, other: object) -> bool:
        return type(other) is type(self) and tuple.__eq__(self, other)

    def __ne__(self, other: object) -> bool:
        return not self == other

    __hash__ = tuple.__hash__

    def __repr__(self) -> str:
        return f"Word(labels={self.labels!r})"

    def __str__(self) -> str:
        return "·".join(self)

    @classmethod
    def parse(cls, text: str) -> Word:
        return cls(text.split("·"))


def evaluate_word(word: Word, gens: GeneratorSet) -> PartialInjection:
    """Left-to-right product of the generators of ``gens`` the word names."""
    mapping = gens.mapping()
    result: PartialInjection | None = None
    for label in word.labels:
        try:
            g = mapping[label]
        except KeyError:
            raise KeyError(f"word uses unknown generator label {label!r}") from None
        result = g if result is None else compose(result, g)
    assert result is not None
    return result


@dataclass(frozen=True)
class ClosureStats:
    """Per-level new-element counts, total products formed, and wall time."""

    level_sizes: tuple[int, ...]
    products: int
    seconds: float


@dataclass(eq=False)
class ClosureResult:
    """The closure's members as a BFS tree of witnesses.

    Node k (in BFS order) is the element with code ``_order_codes[k]``; its
    witness is the witness of node ``_parents[k]`` followed by generator
    ``_genidx[k]``, or that generator alone when ``_parents[k]`` is -1.
    Levels are contiguous in BFS order, with ``stats.level_sizes`` nodes each.
    Codes are int64; parent and generator indices are int32, as in the tree
    file.  ``member_codes`` holds the same codes in ascending order,
    read-only.
    """

    n: int
    labels: tuple[str, ...]
    stats: ClosureStats
    _order_codes: np.ndarray
    _parents: np.ndarray
    _genidx: np.ndarray
    member_codes: np.ndarray

    def __len__(self) -> int:
        return len(self._order_codes)

    @cached_property
    def _code_order(self) -> np.ndarray:
        """Node indices in ascending code order; only ``_witness_blocks``
        needs them.  Where a code and a node index fit one int64, a sort of
        code << b | index gives them: 8 ms against 20 ms for an argsort of
        the codes of G_11."""
        shift = len(self).bit_length()
        if (self.n + 1) ** self.n > 1 << (63 - shift):
            return np.argsort(self._order_codes)
        keys = _sort_indexed(self._order_codes.copy(), shift)
        keys &= (1 << shift) - 1
        return keys

    def _node(self, target: int | PartialInjection) -> tuple[int, int]:
        """The target's code and its node index, or -1 if not a member.

        Membership is a binary search of the sorted codes; the node index of
        a member is one scan of the BFS-order codes, so a lookup needs no
        argsort of every code.  A ``PartialInjection`` of another size
        raises ValueError instead of matching whatever its code encodes, and
        so does a code that is not a Python or numpy integer.
        """
        if isinstance(target, PartialInjection):
            if target.n != self.n:
                raise ValueError(
                    f"size mismatch: target n={target.n}, closure n={self.n}")
            code = encode(target)
        else:
            code = _check_int(target, "code")
        codes = self.member_codes
        pos = int(np.searchsorted(codes, code))
        if pos < len(codes) and codes[pos] == code:
            return code, int(np.flatnonzero(self._order_codes == code)[0])
        return code, -1

    def __contains__(self, target: int | PartialInjection) -> bool:
        return self._node(target)[1] >= 0

    @property
    def max_word_length(self) -> int:
        return len(self.stats.level_sizes)

    def witness(self, target: int | PartialInjection) -> Word:
        code, k = self._node(target)
        if k < 0:
            raise NotGeneratedError(self.n, code)
        labels = []
        while k >= 0:
            labels.append(self.labels[self._genidx[k]])
            k = self._parents[k]
        return tuple.__new__(Word, reversed(labels))

    def witness_items(self) -> Iterator[tuple[int, Word]]:
        """(code, word) pairs in ascending code order.

        The pairs of each block of ``_witness_blocks`` are chained, so no
        Python frame runs per pair.
        """
        return chain.from_iterable(self._witness_blocks())

    def _witness_blocks(self) -> Iterator[Iterator[tuple[int, Word]]]:
        """The (code, word) pairs of ``witness_items``, an iterator per block.

        Nodes are taken in blocks of ascending code order.  A word's length is
        its level's number, so a block's nodes are grouped by length, and each
        group's words are read off together, one letter per step from the last
        back to the first: a vector gather of the nodes' generators, then of
        their parents, for exactly that many steps.  Zipping a group's label
        columns yields its words, made ``Word``s by ``tuple.__new__``, which
        skips the empty-word check a tree word never fails; ``map(next, ...)``
        over the block's lengths puts them back into code order.  Memory is
        bounded by the block.
        """
        width = self.max_word_length
        names = np.array(self.labels, dtype=object)
        level_ends = np.cumsum(self.stats.level_sizes)
        # a block of words holds 2^18 letters, a quarter as many as a
        # candidate block holds candidates: each letter is an object slot
        # in a label column
        step = max(1, (_BLOCK_ENTRIES >> 2) // max(width, 1))
        for start in range(0, len(self), step):
            k = self._code_order[start:start + step]
            codes = self.member_codes[start:start + step].tolist()
            # narrow, so that the stable argsort below is a radix sort
            lengths = (level_ends.searchsorted(k, side="right") + 1).astype(
                np.min_scalar_type(width))
            # the nodes grouped by length, code order kept within a group
            k = k[lengths.argsort(kind="stable")]
            bounds = np.bincount(lengths, minlength=width + 1).cumsum().tolist()
            groups = [None]  # no word has length 0
            for length in range(1, width + 1):
                nodes = k[bounds[length - 1]:bounds[length]]
                columns = []
                for _ in range(length):
                    columns.append(names.take(self._genidx.take(nodes)).tolist())
                    nodes = self._parents.take(nodes)
                groups.append(map(tuple.__new__, repeat(Word), zip(*reversed(columns))))
            yield zip(codes, map(next, map(groups.__getitem__, lengths.tolist())))

    def save(self, tree_path: str | Path) -> None:
        """The BFS tree, with a JSON sidecar holding a digest of the codes."""
        tree = np.concatenate([self._parents, self._genidx], dtype="<i4")
        write_binary_file(tree_path, TREE_MAGIC, self.n, len(self), tree)
        write_sidecar(tree_path, {
            "n": self.n,
            "count": len(self),
            "labels": list(self.labels),
            "level_sizes": list(self.stats.level_sizes),
            "codes_sha256": _codes_digest(self.member_codes),
        })

    @classmethod
    def load(cls, tree_path: str | Path, gens: GeneratorSet) -> ClosureResult:
        """Read a closure of ``gens`` saved as a tree file and its sidecar.

        One walk of the tree's levels, as the sidecar gives them, replays it
        over ``gens`` (``_replay_tree``), checks that every node's suffix is
        a node, as in every tree the engine builds, and counts
        ``stats.products``; ``stats.seconds`` is 0.0.  Beside the file's
        payload, the BFS-order codes and their sorted copy, the walk holds
        two levels' words, keys and suffixes at a time.  Raises ValueError
        unless the checks hold and the rebuilt codes match the sidecar's
        digest of the member codes.
        """
        meta = read_sidecar(
            tree_path, ("n", "count", "labels", "level_sizes", "codes_sha256"))
        n, count, payload = read_binary_file(tree_path, TREE_MAGIC, 8)
        labels, rows = _sorted_rows(gens)
        if (meta["n"] != n or gens.n != n or meta["count"] != count
                or meta["labels"] != list(labels)):
            raise ValueError(
                f"{tree_path} and its sidecar do not describe one closure of "
                f"the given generators")
        tree = np.frombuffer(payload, dtype="<i4").astype(np.int32, copy=False)
        parents, genidx = tree[:count], tree[count:]
        level_sizes = sidecar_ints(meta, "level_sizes")
        order, products = _replay_tree(n, rows, parents, genidx, level_sizes)
        member_codes = np.sort(order)
        # the saved codes were distinct, so a match also rules out duplicates
        if _codes_digest(member_codes) != meta["codes_sha256"]:
            raise ValueError(f"{tree_path} does not rebuild the recorded codes")
        member_codes.flags.writeable = False
        return cls(n, labels, ClosureStats(level_sizes, products, 0.0), order,
                   parents, genidx, member_codes)


def _codes_digest(codes: np.ndarray) -> str:
    """SHA-256 of sorted member codes as little-endian u64.

    Codes are non-negative, so their int64 bytes are their u64 bytes, and
    the digest reads them in place.
    """
    return hashlib.sha256(np.asarray(codes, dtype="<i8").view("<u8")).hexdigest()


def sidecar_path(path: str | Path) -> Path:
    path = Path(path)
    return path.with_name(path.name + ".json")


def _sidecar_text(meta: dict) -> str:
    return json.dumps(meta, indent=2) + "\n"


def write_sidecar(path: str | Path, meta: dict) -> None:
    """JSON metadata next to the binary file ``path``."""
    sidecar_path(path).write_text(_sidecar_text(meta))


def read_sidecar(path: str | Path, keys: tuple[str, ...]) -> dict:
    """The sidecar of ``path``; ValueError unless it holds exactly ``keys``
    in the canonical layout ``write_sidecar`` produces."""
    side = sidecar_path(path)
    text = side.read_text()
    meta = json.loads(text)
    if not isinstance(meta, dict) or tuple(meta) != keys or text != _sidecar_text(meta):
        raise ValueError(f"{side}: not a sidecar in the expected layout")
    return meta


def sidecar_ints(meta: dict, key: str) -> tuple[int, ...]:
    """``meta[key]`` as a tuple; ValueError unless it is a list of ints."""
    value = meta[key]
    if not isinstance(value, list) or not all(type(v) is int for v in value):
        raise ValueError(f"sidecar field {key!r} is not a list of integers")
    return tuple(value)


def write_binary_file(path: str | Path, magic: bytes, n: int, count: int,
                      payload: bytes | memoryview | np.ndarray) -> None:
    """Header (magic, version, n, count, SHA-256 of the payload) + payload.

    ``payload`` is any C-contiguous bytes-like object, such as an array; it
    is hashed and written in place, not copied.
    """
    digest = hashlib.sha256(payload).digest()
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(magic, CACHE_VERSION, n, count, digest))
        fh.write(payload)


def read_binary_file(path: str | Path, magic: bytes,
                     item_bytes: int) -> tuple[int, int, memoryview]:
    """(n, count, payload) of a file written by ``write_binary_file``.

    The payload is a view into the file's bytes, not a copy of them.  Raises
    ValueError unless the header is intact, the payload holds exactly
    ``count`` items of ``item_bytes`` bytes and its digest matches.
    """
    data = Path(path).read_bytes()
    if len(data) < _HEADER.size:
        raise ValueError(f"{path}: truncated header")
    found, version, n, count, digest = _HEADER.unpack_from(data)
    if found != magic:
        raise ValueError(f"{path}: bad magic {found!r}")
    if version != CACHE_VERSION:
        raise ValueError(f"{path}: unsupported version {version}")
    payload = memoryview(data)[_HEADER.size:]
    if len(payload) != item_bytes * count:
        raise ValueError(f"{path}: payload of {len(payload)} bytes, "
                         f"expected {item_bytes * count}")
    if hashlib.sha256(payload).digest() != digest:
        raise ValueError(f"{path}: payload digest mismatch")
    return n, count, payload


def _replay_tree(n: int, rows: np.ndarray, parents: np.ndarray,
                 genidx: np.ndarray,
                 level_sizes: tuple[int, ...]) -> tuple[np.ndarray, int]:
    """BFS-order codes of a witness tree over generator image rows, and the
    number of products ``_close_rows`` forms to build the tree.

    Each level's parents must lie in the level before; seeds have parent -1.
    Each node is multiplied by the generators of the children of its suffix
    node.  A seed's suffix is the empty word, whose children are the seeds.
    Any other node's suffix is the child of its parent's suffix by the
    node's own generator, a node of the level before; raises ValueError if
    it is not in the tree, which no tree of the engine lacks.

    A level's nodes are sorted by their keys (local parent + 1, generator),
    which end in a sentinel above every key, so a looked-up key past the
    last one finds the sentinel and is refused.  The lookup, its check and
    the product count run 2^16 nodes at a time, and the level before's
    keys, suffixes and words are freed as soon as the level has used them,
    so that no level-sized index or comparison array is made.
    """
    if any(size < 1 for size in level_sizes) or sum(level_sizes) != len(parents):
        raise ValueError(f"level sizes {level_sizes} do not cover the tree")
    if len(genidx) and (genidx.min() < 0 or genidx.max() >= len(rows)):
        raise ValueError("tree names a generator index out of range")
    table, gen_offsets = _byte_table(rows)
    code_tables = _sum_tables(n)
    order = np.empty(len(parents), dtype=np.int64)
    products = 0
    start = prev_start = 0
    for size in level_sizes:
        stop = start + size
        local = parents[start:stop]
        gen = genidx[start:stop]
        if not start:
            if np.any(local != -1):
                raise ValueError("a first-level node has a parent")
            level = _pack(rows).take(gen)
            # a seed's suffix is the empty word, -1, whose children are the seeds
            products += size * size
            found = local
        else:
            # checked on the int32 parents, so that no corrupt one wraps around
            if local.min() < prev_start or local.max() >= start:
                raise ValueError("a node's parent is not in the level before")
            local = local - prev_start
            # the children of the level before are this level's nodes
            children = np.bincount(local, minlength=len(keys) - 1)
            found = np.empty(size, dtype=np.int32)
            # suffixes are looked up and checked 2^16 nodes at a time
            piece = _PIECE << 3
            for lo in range(0, size, piece):
                hi = lo + piece
                want = np.multiply(suffix.take(local[lo:hi]) + 1, len(rows),
                                   dtype=np.int64)
                want += gen[lo:hi]
                # a want above every key finds the sentinel, which it is not
                at = keys.searchsorted(want)
                if np.any(keys.take(at) != want):
                    raise ValueError("a node's suffix is not in the tree")
                found[lo:hi] = at
                products += int(children.take(at).sum())
            # the level before is freed as soon as this one no longer needs
            # it: its keys and suffixes here, its words once they are
            # gathered, a piece at a time, for the products to be formed over
            del children, keys, suffix
            level = np.empty(size, dtype="<u8")
            for lo in range(0, size, _PIECE):
                level[lo:lo + _PIECE] = prev.take(local[lo:lo + _PIECE])
            del prev
            _times(table, gen_offsets, level, gen)
        _write_codes(code_tables, level, order[start:stop])
        # suffixes, local to the level before, and the keys the level is
        # sorted by, (local parent + 1, generator), which can pass int32,
        # ended by a sentinel above every key
        keys = np.empty(size + 1, dtype=np.int64)
        np.multiply(local + 1, len(rows), out=keys[:size], dtype=np.int64)
        keys[:size] += gen
        keys[size] = np.iinfo(np.int64).max
        suffix, prev, prev_start, start = found, level, start, stop
    return order, products


def _byte_table(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Flat product table of the generators' image rows, and each
    generator's offset into it.

    ``table[offsets[k] + b]`` is byte b of a packed word, the images of two
    points, mapped through generator k, 0 sticky.  The offsets take the
    narrowest unsigned dtype that holds the last index, so an offset plus a
    byte, a product's gather index, fits it too.
    """
    images = np.zeros((len(rows), 16), dtype=np.uint8)
    images[:, 1:rows.shape[1] + 1] = rows
    byte = np.arange(256)
    table = (images[:, byte & 15] | images[:, byte >> 4] << 4).ravel()
    offsets = np.arange(0, len(table), 256)
    return table, offsets.astype(np.min_scalar_type(len(table) - 1))


def _times(table: np.ndarray, offsets: np.ndarray, words: np.ndarray,
           gens: np.ndarray) -> np.ndarray:
    """The packed products words[j] · the generator at offset
    ``offsets[gens[j]]`` into ``table`` (see ``_byte_table``), written over
    ``words`` in place.

    The products are formed in pieces of ``_PIECE``, so the gather index,
    eight narrow entries per product, and its intp copy stay piece-sized.
    """
    data = words.view(np.uint8).reshape(-1, 8)
    for lo in range(0, len(words), _PIECE):
        hi = lo + _PIECE
        data[lo:hi] = table.take(data[lo:hi] + offsets.take(gens[lo:hi])[:, None])
    return words


def _sorted_rows(gens: GeneratorSet) -> tuple[tuple[str, ...], np.ndarray]:
    """Labels in sorted order and the matching uint8 image-row matrix."""
    entries = sorted(gens, key=lambda e: e[0])
    labels = tuple(label for label, _ in entries)
    rows = np.array([element.images for _, element in entries], dtype=np.uint8)
    return labels, rows


def _first_new(words: np.ndarray, seen: np.ndarray, fresh: np.ndarray, n: int,
               min_rank: int) -> tuple[np.ndarray, np.ndarray]:
    """The new words of a block of packed words and the indices of their
    first occurrences, as signed integers, both in ascending index order;
    the new words are merged into ``fresh``, and ``words`` may be
    overwritten.

    A word is new unless its rank is below ``min_rank`` or it lies in
    ``seen``, the words of the levels before, or in ``fresh``, the words
    this level has found so far; both are sorted and end in ``_NO_WORD``.
    A block of at most 2^(64 − 4n) words is deduped in its own memory
    (``_groups_by_sort``), which then holds the distinct words beside one
    array of their indices.  The new words and their indices are moved to
    the fronts of the two (``_keep_new``), and their (index, word) pairs
    are packed back into the block's memory for the sort that puts them in
    index order.  Only the new words and an int32 copy of their indices
    outlive the call, so the caller frees the block before it uses them.
    """
    bits = 4 * n
    if len(words) > 1 << (64 - bits):
        unique, first = _groups_by_argsort(words)
        kept = _keep_new(unique, first, seen, fresh, n, min_rank)
        _merge_into(fresh, unique[:kept])
        del unique
        first = first[:kept]
        first.sort()
        return words.take(first), first
    unique, first = _groups_by_sort(words, bits)
    kept = _keep_new(unique, first, seen, fresh, n, min_rank)
    _merge_into(fresh, unique[:kept])
    # a (first, word) pair fits one u64, so one sort puts both in index order
    keys = words[:kept]
    first = first[:kept]
    first <<= bits
    keys |= first
    del unique, first
    keys.sort()
    new = keys & np.uint64(2 ** bits - 1)
    keys >>= bits
    # signed, as the argsort's indices are, since a u64 mixed with a signed
    # int makes floats; a block is far shorter than 2^31 candidates
    return new, keys.astype(np.int32)


def _keep_new(unique: np.ndarray, first: np.ndarray, seen: np.ndarray,
              fresh: np.ndarray, n: int, min_rank: int) -> int:
    """The number of new words among the distinct words ``unique``, which
    are moved, with their indices in ``first``, to the fronts of the two
    arrays, in order (see ``_first_new``).  A word's rank is the count of
    its defined points.  The lookups, the floor and the move run ``_PIECE``
    words at a time, so that no mask or comparison outgrows a piece."""
    kept = 0
    for lo in range(0, len(unique), _PIECE):
        piece = unique[lo:lo + _PIECE]
        new = seen[seen.searchsorted(piece)] != piece
        new &= fresh[fresh.searchsorted(piece)] != piece
        if min_rank > 0:
            new &= _nibble_bits(_defined(piece)) >= min_rank
        kept = _to_front(new, lo, kept, unique, first)
    return kept


def _to_front(keep: np.ndarray, lo: int, at: int, *arrays: np.ndarray) -> int:
    """Moves the entries of each array's piece from ``lo`` on that the
    piece's mask ``keep`` marks to the array's place ``at``, and returns the
    place after them.  Moving a piece at a time from the front never
    overwrites an entry not yet read: a whole-array boolean index took four
    times as long, and a whole-array ``compress`` makes an index array."""
    for array in arrays:
        part = array[lo:lo + len(keep)].compress(keep)
        array[at:at + len(part)] = part
    return at + len(part)


def _groups_by_sort(keys: np.ndarray, bits: int) -> tuple[np.ndarray, np.ndarray]:
    """The distinct words among at most 2^(64 − bits) words of ``bits``
    bits, ascending, and the least index of each, by one sort of the keys
    word << (64 − bits) | index, built in place: of equal words, the least
    index sorts first.  The group heads' keys are moved to the front of
    ``keys`` and split in place: the indices go to a new array, and the
    words, shifted down, stay there, as a view."""
    spare = 64 - bits
    _sort_indexed(keys, spare)
    heads = _group_heads(keys, spare)
    at = 0
    for lo in range(0, len(keys), _PIECE):
        at = _to_front(heads[lo:lo + _PIECE], lo, at, keys)
    del heads
    unique = keys[:at]
    first = unique & np.uint64(2 ** spare - 1)
    unique >>= spare
    return unique, first


def _sort_indexed(keys: np.ndarray, shift: int) -> np.ndarray:
    """``keys``, non-negative integers, sorted in place as key << shift |
    index, with the index of each in the ``shift`` bits it frees; the
    caller makes sure that both fit."""
    keys <<= shift
    for lo in range(0, len(keys), _PIECE):
        piece = keys[lo:lo + _PIECE]
        piece |= np.arange(lo, lo + len(piece), dtype=keys.dtype)
    keys.sort()
    return keys


def _groups_by_argsort(words: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct words, ascending, and the least index of each, by an
    argsort and ``minimum.reduceat``; ``words`` is kept."""
    perm = words.argsort()
    ordered = words[perm]
    starts = np.flatnonzero(_group_heads(ordered, 0))
    unique = ordered[starts]
    del ordered
    return unique, np.minimum.reduceat(perm, starts)


def _group_heads(ordered: np.ndarray, shift: int) -> np.ndarray:
    """A mask of where the runs of equal values ``ordered >> shift`` start,
    compared a piece at a time, so that no shifted copy of ``ordered`` is
    made."""
    head = np.empty(len(ordered), dtype=bool)
    head[0] = True
    for lo in range(1, len(ordered), _PIECE):
        hi = min(lo + _PIECE, len(ordered))
        np.not_equal(ordered[lo:hi] >> shift, ordered[lo - 1:hi - 1] >> shift,
                     out=head[lo:hi])
    return head


def _merge_into(words: np.ndarray, more: np.ndarray) -> np.ndarray:
    """``words``, a sorted, sentinel-ended array with no view alive, grown
    by realloc to take the sorted ``more`` behind it; a stable sort of the
    two runs is a linear merge and leaves the sentinel last."""
    size = len(words)
    words.resize(size + len(more), refcheck=False)
    words[size:] = more
    words.sort(kind="stable")
    return words


def _drained(parts: list[np.ndarray]) -> np.ndarray:
    """The parts concatenated, and the list emptied, so that they are freed
    once the joined copy exists; a level of one block needs no copy."""
    joined = parts[0] if len(parts) == 1 else np.concatenate(parts)
    parts.clear()
    return joined


def _run_rows(
    table: np.ndarray,
    offsets: np.ndarray,
    n: int,
    min_rank: int,
    frontier: np.ndarray,
    lo: int,
    count: np.ndarray,
    first_child: np.ndarray,
    seen: np.ndarray,
    fresh: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The new rows that a run of whole frontier nodes forms.

    Node lo + i of the run is multiplied by the generators of ``count[i]``
    frontier children, from ``first_child[i]`` on; ``offsets`` holds each
    child's generator offset into ``table``.  The candidates' words are the
    run's frontier words, each repeated by its count, and ``_times`` forms
    the products over them in place, so no candidate's node is kept: a new
    row's node is the one whose candidates span its first index, found by a
    search of the run's cumulative counts.  Products of rank below
    ``min_rank`` are never new.  Returns the new rows' words, nodes and
    suffixes (their children), in candidate order, and merges their words
    into ``fresh``.  Every other array of the run is freed on return.
    """
    ends = count.cumsum(dtype=np.int32)
    # candidate p of the run multiplies its owner's word by the generator of
    # child[p], the owner's first child plus p's place among the owner's
    # candidates: base[owner] + p, where base is the first child less the
    # owner's first candidate
    base = first_child + count
    base -= ends
    child = base.repeat(count)
    child += np.arange(len(child), dtype=np.int32)
    words = frontier[lo:lo + len(count)].repeat(count)
    _times(table, offsets, words, child)
    # the new rows' children are formed again from their owners, so the
    # block's own column dies before the dedupe's temporaries are made
    del child
    words, first = _first_new(words, seen, fresh, n, min_rank)
    owner = ends.searchsorted(first, side="right")
    children = base.take(owner)
    children += first
    return words, np.add(owner, lo, dtype=np.int32), children


def _close_rows(
    n: int,
    labels: tuple[str, ...],
    rows: np.ndarray,
    min_rank: int,
) -> ClosureResult:
    """BFS closure over image-row matrices.  ``labels`` must be sorted.

    Seeds and products of rank below ``min_rank`` are dropped.  A
    generator below it is then no seed, so the suffix rule never
    multiplies by it.
    """
    started = time.perf_counter()
    table, gen_offsets = _byte_table(rows)
    code_tables = _sum_tables(n)

    # no words: the sentinel alone; the seeds are the first words seen
    seen, fresh = np.array([_NO_WORD]), np.array([_NO_WORD])
    frontier, first = _first_new(_pack(rows), seen, fresh, n, min_rank)
    seen, fresh = fresh, seen
    # a level's codes, formed once, over its words, when it stops being the
    # frontier
    order_codes = []
    # generator indices in the narrowest dtype that holds them, one byte
    # for every G_n, widened to int32 once the tree is built
    frontier_gens = first.astype(np.min_scalar_type(len(rows) - 1))
    parents = [np.full(len(first), -1, dtype=np.int32)]
    genidx = [frontier_gens]
    level_sizes = [len(first)] if len(first) else []
    products = 0
    frontier_start = 0
    # every seed's suffix is the empty word, whose children are the seeds
    suffix = np.zeros(len(first), dtype=np.int32)
    child_start = np.zeros(1, dtype=np.int32)
    child_count = np.array([len(first)], dtype=np.int32)
    # a level's new rows block by block, drained as the level ends
    new_words, new_parents, new_suffix = [], [], []
    while len(suffix):
        # frontier node x is multiplied by the generators of the children
        # of its suffix, in order: count[x] candidates
        count = child_count[suffix]
        del child_count
        ends = count.cumsum()
        total = int(ends[-1])
        if not total:
            break
        products += total
        # runs of whole nodes, cut after the last node that ends by each
        # multiple of the block size, so the candidates keep the (x, k)
        # order of a full sweep, and with it every first occurrence; a node
        # that spans a whole block makes two cuts equal, and the set drops
        # the empty run between them
        cuts = ends.searchsorted(
            np.arange(_BLOCK_ENTRIES, total, _BLOCK_ENTRIES), side="right")
        edges = sorted({0, len(count), *cuts.tolist()})
        del ends
        offsets = gen_offsets.take(frontier_gens)
        for lo, hi in zip(edges, edges[1:]):
            words, nodes, children = _run_rows(
                table, offsets, n, min_rank, frontier, lo,
                count[lo:hi], child_start[suffix[lo:hi]], seen, fresh)
            new_words.append(words)
            new_parents.append(nodes)
            new_suffix.append(children)
        local = _drained(new_parents)
        if not len(local):
            break
        suffix = _drained(new_suffix)
        # a node's last generator is that of the child it was formed for
        frontier_gens = frontier_gens[suffix]
        parents.append(np.add(local, frontier_start, dtype=np.int32))
        genidx.append(frontier_gens)
        level_sizes.append(len(local))
        # the children of each frontier node, a run of the sorted parents
        width = len(frontier)
        child_count = np.bincount(local, minlength=width).astype(np.int32)
        child_start = child_count.cumsum(dtype=np.int32)
        child_start -= child_count
        frontier_start += width
        # the next frontier and the words seen are joined last, once this
        # level's arrays are freed; the frontier's products are all formed,
        # so its words become its codes in place
        del count, offsets, words, nodes, children
        order_codes.append(
            _write_codes(code_tables, frontier, frontier.view(np.int64)))
        frontier = _drained(new_words)
        # no view of seen outlives a block, so fresh is merged into its
        # own memory
        _merge_into(seen, fresh[:-1])
        fresh = np.array([_NO_WORD])

    order_codes.append(
        _write_codes(code_tables, frontier, frontier.view(np.int64)))
    del frontier
    stats = ClosureStats(tuple(level_sizes), products,
                         time.perf_counter() - started)
    # the sorted words become the sorted codes in place, since a word's code
    # rises with the word
    member_codes = seen[:-1].view(np.int64)
    _write_codes(code_tables, seen[:-1], member_codes)
    member_codes.flags.writeable = False
    # the tree's columns are joined one at a time, the generator indices
    # widened to int32 as they are
    return ClosureResult(n, labels, stats, _drained(order_codes),
                         _drained(parents),
                         np.concatenate(genidx, dtype=np.int32), member_codes)


def close(gens: GeneratorSet, workers: int = 1, min_rank: int = 0) -> ClosureResult:
    """Semigroup closure ⟨gens⟩ with shortest, lexicographically least witnesses.

    With ``min_rank`` > 0 only the members of rank ≥ ``min_rank`` are kept.
    This is exact, witnesses included: rank(fg) ≤ min(rank f, rank g), so
    every prefix of a word landing at rank ≥ ``min_rank`` stays there too,
    and dropping the other nodes leaves the BFS order of the kept ones.

    ``workers`` (at least 1) has no effect: the closure runs in one thread.
    Both must be integers: a bool, float or str raises ValueError.
    """
    if len(gens) == 0:
        raise ValueError("closure needs a non-empty generator set")
    if _check_int(workers, "workers") < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")
    labels, rows = _sorted_rows(gens)
    return _close_rows(gens.n, labels, rows, _check_int(min_rank, "min_rank"))


def close_excluding(
    universe: ElementUniverse,
    excluded: Iterable[int],
) -> ClosureResult:
    """Closure of (universe ∖ excluded), elements labeled by decimal code
    (``GeneratorSet.from_codes``).  ValueError unless each excluded value
    is an integer code of a universe member.

    No claim runner calls it; the tests use it as the honest reference for
    acceptance criterion 7, a closure of the whole complement of each R_i,
    and as the engine side of the n = 3 minimal-rank cross-check.
    """
    excluded_codes = sorted({_check_int(e, "excluded code") for e in excluded})
    codes = universe.codes
    # a code past int64 turns the search into one over Python ints
    pos = codes.searchsorted(excluded_codes).tolist()
    stray = [c for c, p in zip(excluded_codes, pos) if codes[min(p, len(codes) - 1)] != c]
    if stray:
        raise ValueError(f"excluded codes not in the universe: {stray[:5]}")
    return close(GeneratorSet.from_codes(universe.n, np.delete(codes, pos).tolist()))


@dataclass(eq=False)
class GenerationCheck:
    """Outcome of comparing a closure against the enumerated universe."""

    n: int
    generates: bool
    missing: tuple[int, ...]
    extra: tuple[int, ...]
    closure: ClosureResult


def verify_generates(gens: GeneratorSet, universe: ElementUniverse) -> GenerationCheck:
    """Does ⟨gens⟩ equal the universe?  Reports code-level differences,
    from one ``close(gens)``, whose result rides along in ``closure``: a
    caller that keeps only the counts lets the tree go."""
    if gens.n != universe.n:
        raise ValueError(f"size mismatch: gens n={gens.n}, universe n={universe.n}")
    result = close(gens)
    codes = universe.codes
    if np.array_equal(codes, result.member_codes):  # both sorted
        return GenerationCheck(result.n, True, (), (), result)
    missing = tuple(np.setdiff1d(codes, result.member_codes, assume_unique=True).tolist())
    extra = tuple(np.setdiff1d(result.member_codes, codes, assume_unique=True).tolist())
    return GenerationCheck(result.n, not missing and not extra, missing, extra, result)


def generator_cache_key(gens: GeneratorSet) -> str:
    """Content hash identifying (n, sorted labels, generator maps)."""
    from .fence import format_map

    doc = {
        "n": gens.n,
        "entries": sorted(
            [label, format_map(element)] for label, element in gens),
    }
    digest = hashlib.sha256(json.dumps(doc, separators=(",", ":")).encode())
    return digest.hexdigest()[:16]
