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
floor, since rank(a·w) ≤ rank(w).  The floor is a single mask on seeds and
products alike, and a generator below it is never a seed, so the suffix rule
never multiplies by it.  The engine keeps each frontier node's suffix (its
index in the level before) and the children of each node of the level
before, a run of that level's sorted parent column.  Candidates are the
pairs (x, child of u) in the order (x, k), the order a full frontier ×
generators sweep would visit them in, so the first occurrence of each code,
and with it every witness, is the one the full sweep picks.

The hot path is table-driven.  A frontier is an n × m ``uint8`` image
matrix (column j holds the images of points 1..n under element j, 0 for
undefined), and a flat ``uint8`` lookup holds the image of each point a
under each generator k, 0 sticky, at offset k·(n+1) + a.  One product
kernel, ``_products``, serves both the closure and the replay of a saved
tree.  It gathers a block's frontier columns, adds each candidate's
generator offset, and fancy-indexes the lookup with the sum.  The offsets
take the smallest unsigned dtype that holds the lookup's length, so the
n-wide index stays narrow, and numpy casts it to intp in buffered chunks;
``einsum`` sums the codes, casting the images in chunks too.  So no n-wide
int64 temporary is made.  Each candidate block is deduped by array
operations alone: an argsort groups equal codes, and the least flat index
of each group is its first occurrence, which keeps the lexicographic
tie-break.  The unique codes are looked up with ``searchsorted`` in two
sorted arrays: ``seen``, the codes of the levels before, fixed within a
level, and ``fresh``, the codes this level has found so far.  The new codes
are merged into ``fresh`` before the next block, so a later block of the
same level sees them, and ``fresh`` is folded into ``seen`` once the level
ends; a block's merge copies only the level's codes, not every code.
Merging each block straight into ``seen`` copies every code per block: a
cold closure of G_13 then peaked at 616 MB RSS against 588 MB, in the same
time (2-core host, Python 3.11, numpy 2.4).  The final ``seen`` is the
sorted ``member_codes``.  The next frontier is the images of the new
candidates, already computed.  ``stats.products`` counts the candidates
formed.

The engine runs in the calling thread.  A level's frontier is cut into runs
of whole nodes, one block each, at the nodes where the running count of
candidates passes a multiple of ``_BLOCK_ENTRIES``, and blocks are
deduplicated in order.  A block builds its own candidate index (each
candidate's node and child) and frees every temporary when it returns its
new rows: n-wide matrices of one byte per entry (gathered frontier, images)
or one to four (gather index), and a handful of int32 and int64 vectors
(the candidate index, the codes and the arrays that dedupe them).  The
candidates' images are freed before the dedupe, and the new rows' products
are formed again after it, so the two never peak together.  So the
engine's memory is one block plus the tree it builds, its per-node int32
arrays and the two code arrays, never a level's candidates.  The tree's
columns are joined one at a time at the end, after the last frontier is
freed.

Witnesses are kept as the BFS tree itself (Froidure & Pin, 1997): each node
stores its parent node and last generator (int32 each), and a word is read
off by walking to the root.  ``witness_items`` walks a block of nodes at a
time, one vector gather per letter, and zips the block's per-letter label
columns into words.  ``ClosureResult.save`` writes that tree, with a sidecar
holding a SHA-256 of the sorted codes.  ``load`` replays the tree over the
generators in one walk of its levels, which rebuilds the codes in blocks
of ``_BLOCK_ENTRIES`` nodes, checks that every node's suffix is a node and
counts the products the engine formed; it accepts the tree only if the
rebuilt codes match that digest.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Iterable, Iterator

import numpy as np

from .fence import PartialInjection, _check_int, code_powers, compose, encode
from .generators import GeneratorSet
from .oracle import (
    ElementUniverse,
    read_binary_file,
    read_sidecar,
    sidecar_ints,
    write_binary_file,
    write_sidecar,
)

# the candidates of one block, plus at most one node's, since a block is a
# run of whole frontier nodes (a replay block holds this many nodes); a
# candidate's temporaries are its n image bytes, n narrow gather indices
# and a few int64 scalars
_BLOCK_ENTRIES = 1 << 20

# sentinel that ends the sorted code arrays ``seen`` and ``fresh``, above
# every code
_NO_CODE = np.iinfo(np.int64).max

# magic of the witness-tree file: parent indices, then generator indices
TREE_MAGIC = b"FTRE"


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


@dataclass(frozen=True, slots=True)
class Word:
    """A non-empty sequence of generator labels, composed left to right."""

    labels: tuple[str, ...]

    def __post_init__(self) -> None:
        if not self.labels:
            raise ValueError("witness words are products of length >= 1")

    def __len__(self) -> int:
        return len(self.labels)

    def __str__(self) -> str:
        return "·".join(self.labels)

    @classmethod
    def parse(cls, text: str) -> Word:
        return cls(tuple(text.split("·")))


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
        """Node indices in ascending code order; only ``witness_items``
        needs them."""
        return np.argsort(self._order_codes)

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
        return Word(tuple(reversed(labels)))

    def witness_items(self) -> Iterator[tuple[int, Word]]:
        """(code, word) pairs in ascending code order.

        Nodes are taken in blocks of that order.  A block's words are read
        off together, one letter per step from the last back to the first:
        a vector gather of the nodes' generators, then of their parents, for
        at most ``max_word_length`` steps.  Each step's letters become one
        list of label strings, and zipping those columns yields every word
        of the block as a tuple, left-padded with blanks that are sliced
        off.  Memory is bounded by the block.
        """
        width = self.max_word_length
        blank = len(self.labels)  # pads words shorter than ``width`` on the left
        names = np.array(self.labels + ("",), dtype=object)
        # a block of words holds as many letters as a candidate block holds
        # candidates, each letter a Python object slot
        step = max(1, _BLOCK_ENTRIES // max(width, 1))
        # a tree word is never empty, so it skips ``Word``'s check
        new_word, set_labels = object.__new__, Word.labels.__set__
        for start in range(0, len(self), step):
            k = self._code_order[start:start + step]
            codes = self.member_codes[start:start + step].tolist()
            letters = np.empty((width, len(k)), dtype=np.int32)
            for col in range(width - 1, -1, -1):
                live = k >= 0
                letters[col] = np.where(live, self._genidx[k], blank)
                k = np.where(live, self._parents[k], -1)
            skips = np.count_nonzero(letters == blank, axis=0).tolist()
            columns = [names[row].tolist() for row in letters]
            for code, word, skip in zip(codes, zip(*columns), skips):
                item = new_word(Word)
                set_labels(item, word[skip:])
                yield code, item

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
        over ``gens``, checks that every node's suffix is a node, as in every
        tree the engine builds, and counts ``stats.products``;
        ``stats.seconds`` is 0.0.  Raises ValueError unless the checks hold
        and the rebuilt codes match the sidecar's digest of the member codes.
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
    """
    if any(size < 1 for size in level_sizes) or sum(level_sizes) != len(parents):
        raise ValueError(f"level sizes {level_sizes} do not cover the tree")
    if len(genidx) and (genidx.min() < 0 or genidx.max() >= len(rows)):
        raise ValueError("tree names a generator index out of range")
    powers = np.asarray(code_powers(n), dtype=np.int64)
    lookup, bases = _lookup(n, rows)
    order = np.empty(len(parents), dtype=np.int64)
    products = 0
    start, prev_start, prev = 0, 0, None
    for size in level_sizes:
        stop = start + size
        local = parents[start:stop]
        gen = genidx[start:stop]
        if prev is None:
            if np.any(local != -1):
                raise ValueError("a first-level node has a parent")
            level = rows.T.take(gen, axis=1)
            order[start:stop] = _codes(powers, level)
            # a seed's suffix is the empty word, -1, whose children are the seeds
            products += size * size
            found = local
        else:
            # checked on the int32 parents, so that no corrupt one wraps around
            if np.any((local < prev_start) | (local >= start)):
                raise ValueError("a node's parent is not in the level before")
            local = local - prev_start
            want = np.multiply(suffix[local] + 1, len(rows), dtype=np.int64) + gen
            found = keys.searchsorted(want).clip(max=len(keys) - 1)
            if np.any(keys[found] != want):
                raise ValueError("a node's suffix is not in the tree")
            del want
            found = found.astype(np.int32)
            # the children of the level before are this level's nodes
            products += int(np.bincount(local, minlength=len(keys))[found].sum())
            # a block of nodes at a time, so that the gather index and the
            # images stay block-sized, written into the level's arrays
            level = np.empty((n, size), dtype=np.uint8)
            for lo in range(0, size, _BLOCK_ENTRIES):
                hi = min(lo + _BLOCK_ENTRIES, size)
                images, codes = _products(
                    lookup, prev, local[lo:hi], bases.take(gen[lo:hi]), powers)
                level[:, lo:hi] = images
                order[start + lo:start + hi] = codes
            del images, codes
        # suffixes, local to the level before, and the keys the level is
        # sorted by, (local parent + 1, generator), which can pass int32
        suffix, keys = found, np.multiply(local + 1, len(rows), dtype=np.int64) + gen
        prev, prev_start, start = level, start, stop
    return order, products


def _lookup(n: int, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Flat composition lookup and each generator's offset into it.

    ``lookup[bases[k] + a]`` is the image of point a under generator k, 0
    sticky (a = 0 stands for undefined).  The offsets take the smallest
    unsigned dtype that holds the length of ``lookup``, so an offset plus an
    image, a block's gather index, fits it too.
    """
    table = np.zeros((len(rows), n + 1), dtype=np.uint8)
    table[:, 1:] = rows
    lookup = table.ravel()
    bases = np.arange(len(rows)) * (n + 1)
    return lookup, bases.astype(np.min_scalar_type(len(lookup)))


def _codes(powers: np.ndarray, images: np.ndarray) -> np.ndarray:
    """Codes of the columns of a uint8 image matrix, as int64.

    ``einsum`` casts the images to int64 in buffered chunks, so no n-wide
    int64 copy of the matrix is made.
    """
    return np.einsum("v,vb->b", powers, images)


def _products(lookup: np.ndarray, frontier: np.ndarray, cols: np.ndarray,
              offsets: np.ndarray, powers: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Images and codes of the products frontier[:, cols[j]] · generator j.

    Generator j is given by its offset ``offsets[j]`` into ``lookup`` (see
    ``_lookup``).  The gather index keeps the offsets' narrow dtype; fancy
    indexing casts it to intp in buffered chunks, where ``take`` would copy
    the whole index first.  Returns the n × len(cols) uint8 image matrix and
    the int64 codes.
    """
    images = lookup[frontier.take(cols, axis=1) + offsets]
    return images, _codes(powers, images)


def _sorted_rows(gens: GeneratorSet) -> tuple[tuple[str, ...], np.ndarray]:
    """Labels in sorted order and the matching uint8 image-row matrix."""
    entries = sorted(gens, key=lambda e: e[0])
    labels = tuple(label for label, _ in entries)
    rows = np.array([element.images for _, element in entries], dtype=np.uint8)
    return labels, rows


def _first_new(flat: np.ndarray, seen: np.ndarray,
               fresh: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Ascending flat indices of the first occurrence of each new code.

    A code is new unless it is a floor mark (-1), lies in ``seen``, the
    codes of the levels before, or lies in ``fresh``, the codes this level
    has found so far; both are sorted and end in a sentinel above every
    code.  Also returns ``fresh`` with the new codes merged in.

    The least index of each group of equal codes is its first occurrence.
    ``np.unique(..., return_index=True)``, or a stable argsort and the
    index at each group's start, give the same indices, but took 0.26-0.33 s
    over close(G_11)'s 1.67 M candidates against 0.11-0.17 s for this.
    """
    # each block-sized array is freed once it is used
    perm = flat.argsort()
    ordered = flat[perm]
    head = np.empty(len(ordered), dtype=bool)
    head[0] = True
    np.not_equal(ordered[1:], ordered[:-1], out=head[1:])
    starts = head.nonzero()[0]
    del head
    unique = ordered[starts]
    del ordered
    first = np.minimum.reduceat(perm, starts)
    del perm
    new = ((unique >= 0) & (seen[seen.searchsorted(unique)] != unique)
           & (fresh[fresh.searchsorted(unique)] != unique))
    unique = unique[new]
    first = first[new]
    first.sort()
    return first, _merged(fresh, unique)


def _merged(codes: np.ndarray, more: np.ndarray) -> np.ndarray:
    """A sorted, sentinel-ended code array with the sorted ``more`` merged
    in; a stable sort of two sorted runs is a linear merge."""
    merged = np.concatenate((codes, more))
    merged.sort(kind="stable")
    return merged


def _drained(parts: list[np.ndarray], axis: int = 0) -> np.ndarray:
    """The parts concatenated, and the list emptied, so that they are freed
    once the joined copy exists; a level of one block needs no copy."""
    joined = parts[0] if len(parts) == 1 else np.concatenate(parts, axis=axis)
    parts.clear()
    return joined


def _run_rows(
    lookup: np.ndarray,
    powers: np.ndarray,
    min_rank: int,
    frontier: np.ndarray,
    bases: np.ndarray,
    lo: int,
    count: np.ndarray,
    first_child: np.ndarray,
    seen: np.ndarray,
    fresh: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The new rows that a run of whole frontier nodes forms.

    Node lo + i of the run is multiplied by the generators of ``count[i]``
    frontier children, from ``first_child[i]`` on; ``bases`` holds each
    child's generator offset.  Returns the new rows' codes, images, nodes
    and suffixes (their children), in candidate order, and ``fresh`` with
    their codes merged in.  Every other array of the run is freed on
    return.
    """
    x = np.repeat(np.arange(lo, lo + len(count), dtype=np.int32), count)
    # candidate p of the run multiplies x[p] by the generator of child[p],
    # its owner's first child plus p's place among the owner's candidates
    child = np.repeat(first_child - (count.cumsum(dtype=np.int32) - count), count)
    child += np.arange(len(child), dtype=np.int32)
    images, codes = _products(lookup, frontier, x, bases.take(child), powers)
    if min_rank > 0:
        codes[np.count_nonzero(images, axis=0) < min_rank] = -1
    # the new rows' products are formed again below, so that no candidate's
    # images are held through the dedupe; slicing the new columns out of the
    # kept images raised close(G_11)'s tracemalloc peak from 38.0 to 44.8 MB
    # and saved no time
    del images
    first, fresh = _first_new(codes, seen, fresh)
    del codes
    x, child = x[first], child[first]
    images, codes = _products(lookup, frontier, x, bases.take(child), powers)
    return codes, images, x, child, fresh


def _close_rows(
    n: int,
    labels: tuple[str, ...],
    rows: np.ndarray,
    min_rank: int,
) -> ClosureResult:
    """BFS closure over image-row matrices.  ``labels`` must be sorted.

    Seeds and products of rank below ``min_rank`` are marked -1 and dropped.
    A generator below it is then no seed, so the suffix rule never
    multiplies by it.
    """
    started = time.perf_counter()
    powers = np.asarray(code_powers(n), dtype=np.int64)
    lookup, gen_bases = _lookup(n, rows)

    empty = np.array([_NO_CODE])  # no codes: the sentinel alone
    seed_codes = _codes(powers, rows.T)
    if min_rank > 0:
        seed_codes[np.count_nonzero(rows, axis=1) < min_rank] = -1
    first, seen = _first_new(seed_codes, empty, empty)
    order_codes = [seed_codes[first]]
    frontier_gens = first.astype(np.int32)
    parents = [np.full(len(first), -1, dtype=np.int32)]
    genidx = [frontier_gens]
    level_sizes = [len(first)] if len(first) else []
    products = 0
    frontier = rows.T.take(first, axis=1)
    frontier_start = 0
    # every seed's suffix is the empty word, whose children are the seeds
    suffix = np.zeros(len(first), dtype=np.int32)
    child_start = np.zeros(1, dtype=np.int32)
    child_count = np.array([len(first)], dtype=np.int32)
    # a level's new codes, and its new rows block by block, drained as the
    # level ends
    fresh, new_images, new_parents, new_suffix = empty, [], [], []
    while len(suffix):
        # frontier node x is multiplied by the generators of the children
        # of its suffix, in order: count[x] candidates
        count = child_count[suffix]
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
        bases = gen_bases.take(frontier_gens)
        for lo, hi in zip(edges, edges[1:]):
            codes, images, nodes, children, fresh = _run_rows(
                lookup, powers, min_rank, frontier, bases, lo, count[lo:hi],
                child_start[suffix[lo:hi]], seen, fresh)
            order_codes.append(codes)
            new_images.append(images)
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
        width = frontier.shape[1]
        child_count = np.bincount(local, minlength=width).astype(np.int32)
        child_start = child_count.cumsum(dtype=np.int32)
        child_start -= child_count
        frontier_start += width
        # the next frontier and the codes seen are joined last, once this
        # level's arrays are freed
        del count, bases, frontier, codes, images, nodes, children
        frontier = _drained(new_images, axis=1)
        seen, fresh = _merged(seen[:-1], fresh), empty

    stats = ClosureStats(tuple(level_sizes), products,
                         time.perf_counter() - started)
    # the tree's columns are joined one at a time, once the frontier is freed
    del frontier
    member_codes = seen[:-1]
    member_codes.flags.writeable = False
    return ClosureResult(n, labels, stats, _drained(order_codes),
                         _drained(parents), _drained(genidx), member_codes)


def close(gens: GeneratorSet, workers: int = 1, min_rank: int = 0) -> ClosureResult:
    """Semigroup closure ⟨gens⟩ with shortest, lexicographically least witnesses.

    With ``min_rank`` > 0 only the members of rank ≥ ``min_rank`` are kept.
    This is exact, witnesses included: rank(fg) ≤ min(rank f, rank g), so
    every prefix of a word landing at rank ≥ ``min_rank`` stays there too,
    and dropping the other nodes leaves the BFS order of the kept ones.

    ``workers`` (at least 1) has no effect: the closure runs in one thread.
    """
    if len(gens) == 0:
        raise ValueError("closure needs a non-empty generator set")
    if workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")
    labels, rows = _sorted_rows(gens)
    return _close_rows(gens.n, labels, rows, min_rank)


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
    """Does ⟨gens⟩ equal the universe?  Reports code-level differences."""
    if gens.n != universe.n:
        raise ValueError(f"size mismatch: gens n={gens.n}, universe n={universe.n}")
    result = close(gens)
    codes = universe.codes
    missing = tuple(np.setdiff1d(codes, result.member_codes, assume_unique=True).tolist())
    extra = tuple(np.setdiff1d(result.member_codes, codes, assume_unique=True).tolist())
    return GenerationCheck(gens.n, not missing and not extra, missing, extra, result)


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
