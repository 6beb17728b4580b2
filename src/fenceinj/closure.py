"""Semigroup closure with factorization witnesses.

Given a labeled generator set, compute every element reachable by finite
left-to-right products, together with a shortest witness word for each
element (ties broken lexicographically by label).  The search is a
breadth-first sweep by word length: each level multiplies the newly found
elements by every generator on the right, which suffices for semigroup
closure and keeps witness words shortest.

The hot path is table-driven.  A frontier is an n × m ``uint8`` image
matrix (column j holds the images of points 1..n under element j, 0 for
undefined), and ``table[a, k]`` is the image of a under generator k, 0
sticky.  One int64 table per call, ``weights[v, a, k] = (n+1)^v ·
table[a, k]``, turns an image of point v+1 into that point's code digit in
the product with generator k, so a block's row-major candidate matrix
(rows × generators) is ``Σ_v weights[v].take(frontier[v])``: n row gathers
from a small table, each sum exactly the product's code.  The ``min_rank``
floor sums a ``uint8`` table of ``table[a, k] != 0`` the same way.  Each
candidate block is deduped by array operations alone: an argsort groups
equal codes, and the least flat index of each group is its first
occurrence, which keeps the lexicographic tie-break.  The unique codes are
looked up in a sorted ``visited`` array with ``searchsorted``, and the new
ones are merged into it before the next block, so a later block of the same
level sees them.  The next frontier is ``table[frontier[:, parents], gens]``.

The engine runs in the calling thread.  Each candidate block is filled in
row slices of 1/256 of the block, which keeps each gather's temporary
small, and blocks are deduplicated in order.

Witnesses are kept as the BFS tree itself (Froidure & Pin, 1997): each node
stores its parent node and last generator (int32 each), and a word is read
off by walking to the root.  ``witness_items`` walks a block of nodes at a
time, one vector gather per letter, and zips the block's per-letter label
columns into words.  ``ClosureResult.save`` writes that tree, with a sidecar
holding a SHA-256 of the sorted codes; ``load`` replays the tree over the
generators and accepts it only if the rebuilt codes match that digest.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Iterable, Iterator, Mapping

import numpy as np

from .fence import PartialInjection, code_powers, compose, encode
from .generators import GeneratorSet
from .oracle import (
    ElementUniverse,
    read_binary_file,
    read_sidecar,
    sidecar_ints,
    write_binary_file,
    write_sidecar,
)

# cap on entries of one frontier-by-generators candidate block (int64)
_BLOCK_ENTRIES = 1 << 24

# sentinel that ends the sorted ``visited`` array, above every code
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


@dataclass(frozen=True)
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


def evaluate_word(word: Word, gens: GeneratorSet | Mapping[str, PartialInjection]) -> PartialInjection:
    """Left-to-right product of the word's generators."""
    mapping = gens.mapping() if isinstance(gens, GeneratorSet) else gens
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
    file.
    """

    n: int
    labels: tuple[str, ...]
    stats: ClosureStats
    _order_codes: np.ndarray
    _parents: np.ndarray
    _genidx: np.ndarray

    def __len__(self) -> int:
        return len(self._order_codes)

    @cached_property
    def _code_order(self) -> np.ndarray:
        """Node indices in ascending code order."""
        return np.argsort(self._order_codes)

    @cached_property
    def member_codes(self) -> np.ndarray:
        return self._order_codes[self._code_order]

    @cached_property
    def members(self) -> frozenset[int]:
        return frozenset(self.member_codes.tolist())

    def _node(self, target: int | PartialInjection) -> tuple[int, int]:
        """The target's code and its node index, or -1 if not a member."""
        code = encode(target) if isinstance(target, PartialInjection) else int(target)
        codes = self.member_codes
        pos = int(np.searchsorted(codes, code))
        if pos < len(codes) and codes[pos] == code:
            return code, int(self._code_order[pos])
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
        # a letter becomes several Python object slots, not one int64, so a
        # block of words holds a sixteenth of a candidate block's entries
        step = max(1, (_BLOCK_ENTRIES >> 4) // max(width, 1))
        for start in range(0, len(self), step):
            k = self._code_order[start:start + step]
            letters = np.empty((width, len(k)), dtype=np.int32)
            for col in range(width - 1, -1, -1):
                live = k >= 0
                letters[col] = np.where(live, self._genidx[k], blank)
                k = np.where(live, self._parents[k], -1)
            skips = np.count_nonzero(letters == blank, axis=0).tolist()
            columns = [names[row].tolist() for row in letters]
            codes = self.member_codes[start:start + step].tolist()
            for code, word, skip in zip(codes, zip(*columns), skips):
                yield code, Word(word[skip:])

    def save(self, tree_path: str | Path) -> None:
        """The BFS tree, with a JSON sidecar holding a digest of the codes."""
        tree = np.concatenate([self._parents, self._genidx]).astype("<i4")
        write_binary_file(tree_path, TREE_MAGIC, self.n, len(self), tree.tobytes())
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

        The tree is replayed over ``gens``; raises ValueError unless the codes
        it yields, level by level as the sidecar says, match the sidecar's
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
        order = _replay_tree(n, rows, parents, genidx, level_sizes)
        # every member is multiplied by every generator exactly once
        stats = ClosureStats(level_sizes, len(labels) * count, 0.0)
        result = cls(n, labels, stats, order, parents, genidx)
        # the saved codes were distinct, so a match also rules out duplicates
        if _codes_digest(result.member_codes) != meta["codes_sha256"]:
            raise ValueError(f"{tree_path} does not rebuild the recorded codes")
        return result


def _codes_digest(codes: np.ndarray) -> str:
    """SHA-256 of sorted member codes as little-endian u64."""
    return hashlib.sha256(codes.astype("<u8")).hexdigest()


def _replay_tree(n: int, rows: np.ndarray, parents: np.ndarray,
                 genidx: np.ndarray, level_sizes: tuple[int, ...]) -> np.ndarray:
    """BFS-order codes of a witness tree over generator image rows.

    Each level's parents must lie in the level before; seeds have parent -1.
    """
    if any(size < 1 for size in level_sizes) or sum(level_sizes) != len(parents):
        raise ValueError(f"level sizes {level_sizes} do not cover the tree")
    if len(genidx) and (genidx.min() < 0 or genidx.max() >= len(rows)):
        raise ValueError("tree names a generator index out of range")
    powers = np.asarray(code_powers(n), dtype=np.int64)
    table = _image_table(n, rows)
    order = np.empty(len(parents), dtype=np.int64)
    start, prev_start, prev = 0, -1, None
    for size in level_sizes:
        stop = start + size
        parent, gen = parents[start:stop], genidx[start:stop]
        if prev is None:
            if np.any(parent != -1):
                raise ValueError("a first-level node has a parent")
            level = table[1:, gen]
        else:
            # in int64, so that no corrupt int32 parent can wrap around
            local = parent.astype(np.int64) - prev_start
            if np.any((local < 0) | (local >= prev.shape[1])):
                raise ValueError("a node's parent is not in the level before")
            level = table[prev[:, local], gen]
        order[start:stop] = powers @ level
        prev, prev_start, start = level, start, stop
    return order


def _image_table(n: int, rows: np.ndarray) -> np.ndarray:
    """Composition lookup: table[a, k] = image of a under generator k, 0 sticky.

    Column j of an image matrix ``images`` (n × m, uint8) holds the images of
    points 1..n under element j; ``table[images, k]`` composes every element
    with generator k.
    """
    table = np.zeros((n + 1, len(rows)), dtype=np.uint8)
    table[1:] = rows.T
    return table


def _sorted_rows(gens: GeneratorSet) -> tuple[tuple[str, ...], np.ndarray]:
    """Labels in sorted order and the matching image-row matrix."""
    entries = sorted(gens, key=lambda e: e[0])
    labels = tuple(label for label, _ in entries)
    rows = np.array([element.images for _, element in entries], dtype=np.int64)
    return labels, rows


def _first_new(flat: np.ndarray, visited: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Ascending flat indices of the first occurrence of each new code.

    A code is new unless it is a floor mark (-1) or lies in ``visited``, a
    sorted array that ends in a sentinel above every code.  Also returns
    ``visited`` with the new codes merged in.
    """
    if not len(flat):
        return np.empty(0, dtype=np.int64), visited
    perm = flat.argsort()
    ordered = flat[perm]
    head = np.empty(len(ordered), dtype=bool)
    head[0] = True
    np.not_equal(ordered[1:], ordered[:-1], out=head[1:])
    starts = head.nonzero()[0]
    unique = ordered[starts]
    first = np.minimum.reduceat(perm, starts)
    new = (visited[visited.searchsorted(unique)] != unique) & (unique >= 0)
    unique = unique[new]
    # a stable sort of two sorted runs is a linear merge
    visited = np.concatenate((visited, unique))
    visited.sort(kind="stable")
    first = first[new]
    first.sort()
    return first, visited


def _close_rows(
    n: int,
    labels: tuple[str, ...],
    rows: np.ndarray,
    min_rank: int = 0,
) -> ClosureResult:
    """BFS closure over image-row matrices.  ``labels`` must be sorted.

    Seeds and products of rank below ``min_rank`` are dropped, and so are the
    generators below it, whose products always are.
    """
    started = time.perf_counter()
    powers = np.asarray(code_powers(n), dtype=np.int64)
    kept = np.flatnonzero(np.count_nonzero(rows, axis=1) >= min_rank)
    g = len(kept)
    table = _image_table(n, rows[kept])
    # weights[v, a, k] = (n+1)^v · table[a, k]: point v+1's digit of a product
    weights = powers[:, None, None] * table
    nonzero = (table != 0).view(np.uint8) if min_rank > 0 else None

    visited = np.array([_NO_CODE])
    seed_codes = rows[kept] @ powers
    first, visited = _first_new(seed_codes, visited)
    order_codes = [seed_codes[first]]
    parents = [np.full(len(first), -1, dtype=np.int32)]
    genidx = [kept[first].astype(np.int32)]
    level_sizes = [len(first)] if len(first) else []
    products = 0
    frontier = table[1:, first]
    frontier_start = 0
    chunk_rows = max(1, _BLOCK_ENTRIES // max(g, 1))
    # 1/256 of a block per gather, which keeps its temporary small
    slice_rows = max(1, chunk_rows >> 8)
    while True:
        # an empty part, so that a frontier without seeds concatenates
        new_parents: list[np.ndarray] = [np.empty(0, dtype=np.int64)]
        new_gens: list[np.ndarray] = [np.empty(0, dtype=np.int64)]
        for offset in range(0, frontier.shape[1], chunk_rows):
            block = frontier[:, offset:offset + chunk_rows]
            codes = np.empty((block.shape[1], g), dtype=np.int64)
            for r0 in range(0, block.shape[1], slice_rows):
                images = block[:, r0:r0 + slice_rows].astype(np.intp)
                out = codes[r0:r0 + slice_rows]
                weights[0].take(images[0], axis=0, out=out)
                for v in range(1, n):
                    out += weights[v].take(images[v], axis=0)
                if nonzero is not None:
                    rank = nonzero.take(images[0], axis=0)
                    for v in range(1, n):
                        rank += nonzero.take(images[v], axis=0)
                    out[rank < min_rank] = -1
            products += codes.size
            flat = codes.ravel()
            first, visited = _first_new(flat, visited)
            order_codes.append(flat[first])
            new_parents.append(frontier_start + offset + first // g)
            new_gens.append(first % g)
        level_parents = np.concatenate(new_parents)
        if not len(level_parents):
            break
        gsel = np.concatenate(new_gens)
        parents.append(level_parents.astype(np.int32))
        genidx.append(kept[gsel].astype(np.int32))
        level_sizes.append(len(level_parents))
        local = level_parents - frontier_start
        frontier_start += frontier.shape[1]
        frontier = table[frontier[:, local], gsel]

    stats = ClosureStats(tuple(level_sizes), products,
                         time.perf_counter() - started)
    return ClosureResult(
        n,
        labels,
        stats,
        np.concatenate(order_codes),
        np.concatenate(parents),
        np.concatenate(genidx),
    )


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
    excluded: Iterable[int] | Iterable[PartialInjection],
) -> ClosureResult:
    """Closure of (universe ∖ excluded), elements labeled by decimal code."""
    excluded_codes = {
        encode(e) if isinstance(e, PartialInjection) else int(e) for e in excluded}
    stray = excluded_codes - universe.code_set
    if stray:
        raise ValueError(
            f"excluded codes not in the universe: {sorted(stray)[:5]}")
    keep = [k for k, code in enumerate(universe.codes) if code not in excluded_codes]
    if not keep:
        raise ValueError("closure needs a non-empty generator set")
    labeled = sorted((str(universe.codes[k]), k) for k in keep)
    labels = tuple(label for label, _ in labeled)
    rows = universe.images_matrix[[k for _, k in labeled]]
    return _close_rows(universe.n, labels, rows)


def factorize(target: PartialInjection, result: ClosureResult) -> Word:
    """Witness word for the target; raises NotGeneratedError when absent."""
    if target.n != result.n:
        raise ValueError(f"size mismatch: target n={target.n}, closure n={result.n}")
    return result.witness(target)


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
    codes = universe.codes_array
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
