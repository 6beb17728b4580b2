"""Semigroup closure with factorization witnesses.

Given a labeled generator set, compute every element reachable by finite
left-to-right products, together with a shortest witness word for each
element (ties broken lexicographically by label).  The search is a
breadth-first sweep by word length: each level multiplies the newly found
elements by every generator on the right, which suffices for semigroup
closure and keeps witness words shortest.

The hot path works on integer code vectors: a generator is a padded lookup
row ``pad[v] = image of v`` (0 sticky), so composing a batch of elements
with one generator is a fancy-index gather followed by a dot product with
the positional weights.  Frontier × generator candidate blocks are deduped
with ``np.unique`` (first occurrence wins, preserving the lexicographic
tie-break) before consulting the visited table.

Worker threads split each candidate block by generator columns and write
disjoint slices of one preallocated matrix; deduplication happens after the
join, in block order, so results are identical for every worker count.

Witnesses are kept as the BFS tree itself (Froidure & Pin, 1997): each node
stores its parent node and last generator, and a word is read off by walking
to the root.  ``ClosureResult.save`` persists the sorted codes and that tree
as two binary files; ``load`` replays the tree over the generators and
accepts it only if it rebuilds exactly the saved codes.
"""

from __future__ import annotations

import hashlib
import json
import time
from concurrent.futures import ThreadPoolExecutor
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
    read_code_file,
    read_sidecar,
    sidecar_ints,
    write_binary_file,
    write_code_file,
    write_sidecar,
)

# cap on entries of one frontier-by-generators candidate block (int64)
_BLOCK_ENTRIES = 1 << 24

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
    def member_codes(self) -> np.ndarray:
        return np.sort(self._order_codes)

    @cached_property
    def members(self) -> frozenset[int]:
        return frozenset(int(c) for c in self.member_codes)

    def __contains__(self, target: int | PartialInjection) -> bool:
        code = encode(target) if isinstance(target, PartialInjection) else int(target)
        return code in self.members

    @property
    def max_word_length(self) -> int:
        return len(self.stats.level_sizes)

    @cached_property
    def _position(self) -> dict[int, int]:
        return {int(c): k for k, c in enumerate(self._order_codes)}

    def witness(self, target: int | PartialInjection) -> Word:
        code = encode(target) if isinstance(target, PartialInjection) else int(target)
        if code not in self.members:
            raise NotGeneratedError(self.n, code)
        labels = []
        k = self._position[code]
        while k >= 0:
            labels.append(self.labels[self._genidx[k]])
            k = self._parents[k]
        return Word(tuple(reversed(labels)))

    def witness_items(self) -> Iterator[tuple[int, Word]]:
        """(code, word) pairs in ascending code order."""
        for code in self.member_codes:
            yield int(code), self.witness(int(code))

    def save(self, code_path: str | Path, tree_path: str | Path) -> None:
        """Sorted member codes (with a JSON sidecar) and the BFS tree."""
        write_code_file(code_path, self.n, self.member_codes)
        write_sidecar(code_path, {
            "n": self.n,
            "count": len(self),
            "labels": list(self.labels),
            "level_sizes": list(self.stats.level_sizes),
        })
        tree = np.concatenate([self._parents, self._genidx]).astype("<i4")
        write_binary_file(tree_path, TREE_MAGIC, self.n, len(self), tree.tobytes())

    @classmethod
    def load(cls, code_path: str | Path, tree_path: str | Path,
             gens: GeneratorSet) -> ClosureResult:
        """Read a saved closure of ``gens``, replaying its tree.

        Raises ValueError unless the codes the tree yields over ``gens`` are
        exactly the saved member codes, level by level as the sidecar says.
        """
        n, codes = read_code_file(code_path)
        meta = read_sidecar(code_path, ("n", "count", "labels", "level_sizes"))
        tree_n, count, payload = read_binary_file(tree_path, TREE_MAGIC, 8)
        labels, rows = _sorted_rows(gens)
        if (meta["n"] != n or tree_n != n or gens.n != n
                or meta["count"] != len(codes) or count != len(codes)
                or meta["labels"] != list(labels)):
            raise ValueError(
                f"{code_path}, its sidecar and {tree_path} do not describe "
                f"one closure of the given generators")
        tree = np.frombuffer(payload, dtype="<i4").astype(np.int64)
        parents, genidx = tree[:count], tree[count:]
        level_sizes = sidecar_ints(meta, "level_sizes")
        order = _replay_tree(n, rows, parents, genidx, level_sizes)
        if np.any(np.diff(codes) <= 0) or not np.array_equal(np.sort(order), codes):
            raise ValueError(f"{tree_path} does not rebuild the codes of {code_path}")
        # every member is multiplied by every generator exactly once
        stats = ClosureStats(level_sizes, len(labels) * count, 0.0)
        return cls(n, labels, stats, order, parents, genidx)


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
    pad = _pad_rows(n, rows)
    order = np.empty(len(parents), dtype=np.int64)
    start, prev_start, prev = 0, -1, None
    for size in level_sizes:
        stop = start + size
        parent, gen = parents[start:stop], genidx[start:stop]
        if prev is None:
            if np.any(parent != -1):
                raise ValueError("a first-level node has a parent")
            level = rows[gen]
        else:
            local = parent - prev_start
            if np.any((local < 0) | (local >= len(prev))):
                raise ValueError("a node's parent is not in the level before")
            level = pad[gen[:, None], prev[local]]
        order[start:stop] = level @ powers
        prev, prev_start, start = level, start, stop
    return order


def _pad_rows(n: int, rows: np.ndarray) -> np.ndarray:
    """Composition lookup: pad[k][v] = image of v under generator k, pad[k][0] = 0."""
    pad = np.zeros((len(rows), n + 1), dtype=np.int64)
    pad[:, 1:] = rows
    return pad


def _sorted_rows(gens: GeneratorSet) -> tuple[tuple[str, ...], np.ndarray]:
    """Labels in sorted order and the matching image-row matrix."""
    entries = sorted(gens, key=lambda e: e[0])
    labels = tuple(label for label, _ in entries)
    rows = np.array([element.images for _, element in entries], dtype=np.int64)
    return labels, rows


def _close_rows(
    n: int,
    labels: tuple[str, ...],
    rows: np.ndarray,
    workers: int,
    min_rank: int = 0,
) -> ClosureResult:
    """BFS closure over image-row matrices.  ``labels`` must be sorted.

    Seeds and products of rank below ``min_rank`` are dropped, and so are the
    generators below it, whose products always are.
    """
    if workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")
    started = time.perf_counter()
    powers = np.asarray(code_powers(n), dtype=np.int64)
    kept = np.flatnonzero(np.count_nonzero(rows, axis=1) >= min_rank)
    g = len(kept)
    pad = _pad_rows(n, rows[kept])

    visited: dict[int, int] = {}
    order_codes: list[int] = []
    parents: list[int] = []
    genidx: list[int] = []
    seed_rows: list[np.ndarray] = []
    seed_codes = rows @ powers
    for k in kept:
        code = int(seed_codes[k])
        if code not in visited:
            visited[code] = len(order_codes)
            order_codes.append(code)
            parents.append(-1)
            genidx.append(int(k))
            seed_rows.append(rows[k])

    level_sizes = [len(order_codes)] if order_codes else []
    products = 0
    frontier = np.array(seed_rows, dtype=np.int64).reshape(-1, n)
    frontier_start = 0
    pool = ThreadPoolExecutor(max_workers=workers) if workers > 1 else None
    try:
        while True:
            chunk_rows = max(1, _BLOCK_ENTRIES // max(g, 1))
            new_codes: list[int] = []
            new_parents: list[int] = []
            new_genidx: list[int] = []
            for offset in range(0, len(frontier), chunk_rows):
                chunk = frontier[offset:offset + chunk_rows]
                codes = np.empty((len(chunk), g), dtype=np.int64)

                def fill(k0: int, k1: int, chunk=chunk, codes=codes) -> None:
                    for k in range(k0, k1):
                        images = pad[k][chunk]
                        codes[:, k] = images @ powers
                        if min_rank > 0:
                            low = np.count_nonzero(images, axis=1) < min_rank
                            codes[low, k] = -1

                if pool is None or g < 2:
                    fill(0, g)
                else:
                    step = -(-g // workers)
                    bounds = range(0, g, step)
                    list(pool.map(lambda k0: fill(k0, min(k0 + step, g)), bounds))
                products += codes.size
                flat = codes.ravel()
                unique, first = np.unique(flat, return_index=True)
                if len(unique) and unique[0] < 0:
                    first = first[1:]
                for idx in np.sort(first):
                    code = int(flat[idx])
                    if code in visited:
                        continue
                    visited[code] = len(order_codes)
                    order_codes.append(code)
                    new_codes.append(code)
                    new_parents.append(frontier_start + offset + int(idx) // g)
                    new_genidx.append(int(idx) % g)
            if not new_codes:
                break
            parents.extend(new_parents)
            gsel = np.asarray(new_genidx, dtype=np.int64)
            genidx.extend(kept[gsel].tolist())
            level_sizes.append(len(new_codes))
            parent_imgs = frontier[np.asarray(new_parents) - frontier_start]
            frontier_start += len(frontier)
            frontier = pad[gsel[:, None], parent_imgs]
    finally:
        if pool is not None:
            pool.shutdown()

    stats = ClosureStats(tuple(level_sizes), products,
                         time.perf_counter() - started)
    return ClosureResult(
        n,
        labels,
        stats,
        np.asarray(order_codes, dtype=np.int64),
        np.asarray(parents, dtype=np.int64),
        np.asarray(genidx, dtype=np.int64),
    )


def close(gens: GeneratorSet, workers: int = 1, min_rank: int = 0) -> ClosureResult:
    """Semigroup closure ⟨gens⟩ with shortest, lexicographically least witnesses.

    With ``min_rank`` > 0 only the members of rank ≥ ``min_rank`` are kept.
    This is exact, witnesses included: rank(fg) ≤ min(rank f, rank g), so
    every prefix of a word landing at rank ≥ ``min_rank`` stays there too,
    and dropping the other nodes leaves the BFS order of the kept ones.
    """
    if len(gens) == 0:
        raise ValueError("closure needs a non-empty generator set")
    labels, rows = _sorted_rows(gens)
    return _close_rows(gens.n, labels, rows, workers, min_rank)


def close_excluding(
    universe: ElementUniverse,
    excluded: Iterable[int] | Iterable[PartialInjection],
    workers: int = 1,
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
    return _close_rows(universe.n, labels, rows, workers)


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


def verify_generates(
    gens: GeneratorSet, universe: ElementUniverse, workers: int = 1
) -> GenerationCheck:
    """Does ⟨gens⟩ equal the universe?  Reports code-level differences."""
    if gens.n != universe.n:
        raise ValueError(f"size mismatch: gens n={gens.n}, universe n={universe.n}")
    result = close(gens, workers=workers)
    missing = tuple(sorted(universe.code_set - result.members))
    extra = tuple(sorted(result.members - universe.code_set))
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
