"""Exhaustive enumeration of FI_n — the ground-truth oracle for small n.

Enumeration walks domain subsets of {1..n} and, within each subset, assigns
images point by point in ascending order, pruning any partial assignment that
already violates the order biconditional.  Because points are visited in
ascending order, the only comparable earlier point of the current point d is
d−1, so the pruning state is cheap to maintain: a direction check against the
image of d−1 (when d−1 is in the subset) plus "banned windows" forbidding
images within distance 1 of the images of all non-adjacent earlier points.

The exhaustive mode is capped at n = 9 (the raw space at n = 11 exceeds
10^9 partial injections); larger universes are obtained as closures of G_n
and marked "closure-derived".
"""

from __future__ import annotations

import hashlib
import json
import struct
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Iterator

import numpy as np

from .fence import (
    CapacityError,
    PartialInjection,
    check_fence_size,
    code_powers,
    decode,
    is_partial_automorphism,
)

ENUMERATION_CAP = 9

CACHE_MAGIC = b"FENC"
CACHE_VERSION = 2
# magic, version, n, item count, SHA-256 of the payload
_HEADER = struct.Struct("<4sIIQ32s")

MODE_EXHAUSTIVE = "exhaustive"
MODE_CLOSURE_DERIVED = "closure-derived"


def _subset_assignments(n: int, points: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
    """All order-compatible injective image assignments for one domain subset.

    Yields full length-n image tuples (zeros off the subset) in ascending
    DFS order of the assigned values.
    """
    k = len(points)
    if k == 0:
        yield (0,) * n
        return
    images = [0] * n
    vals = [0] * k
    used = [False] * (n + 1)
    # banned[v] > 0 while v lies within distance 1 of the image of some
    # earlier, non-adjacent point
    banned = [0] * (n + 2)

    def window(v: int, d: int) -> None:
        for u in (v - 1, v, v + 1):
            if 1 <= u <= n:
                banned[u] += d

    def rec(t: int, covered: int) -> Iterator[tuple[int, ...]]:
        if t == k:
            yield tuple(images)
            return
        d = points[t]
        fresh = 0
        while covered + fresh < t and points[covered + fresh] <= d - 2:
            window(vals[covered + fresh], +1)
            fresh += 1
        covered += fresh
        if t >= 1 and points[t - 1] == d - 1:
            u = vals[t - 1]
            # adjacent predecessor: the image must be a fence neighbor of u
            # on the correct side (d−1 odd means d−1 ≺ d, so u must be odd;
            # d−1 even means d ≺ d−1, so u must be even)
            if u % 2 == (d - 1) % 2:
                candidates: tuple[int, ...] = tuple(
                    v for v in (u - 1, u + 1) if 1 <= v <= n)
            else:
                candidates = ()
        else:
            candidates = range(1, n + 1)  # type: ignore[assignment]
        for v in candidates:
            if used[v] or banned[v]:
                continue
            used[v] = True
            vals[t] = v
            images[d - 1] = v
            yield from rec(t + 1, covered)
            images[d - 1] = 0
            used[v] = False
        for s in range(covered - fresh, covered):
            window(vals[s], -1)

    yield from rec(0, 0)


def _subset_points(n: int, mask: int) -> tuple[int, ...]:
    return tuple(k + 1 for k in range(n) if mask >> k & 1)


def enumeration_strategy(n: int) -> Iterator[PartialInjection]:
    """All elements of FI_n, domain subset by domain subset, no duplicates."""
    check_fence_size(n)
    for mask in range(1 << n):
        for images in _subset_assignments(n, _subset_points(n, mask)):
            yield PartialInjection(n, images)


def _enumerate_mask_range(n: int, lo: int, hi: int) -> tuple[list[int], list[int]]:
    """Codes and per-rank counts for domain subsets with mask in [lo, hi)."""
    powers = code_powers(n)
    codes: list[int] = []
    hist = [0] * (n + 1)
    for mask in range(lo, hi):
        points = _subset_points(n, mask)
        r = len(points)
        for images in _subset_assignments(n, points):
            codes.append(sum(v * p for v, p in zip(images, powers)))
            hist[r] += 1
    return codes, hist


@dataclass(frozen=True)
class ElementUniverse:
    """The complete, sorted code list of FI_n plus its rank histogram."""

    n: int
    codes: tuple[int, ...]
    rank_histogram: tuple[int, ...]
    mode: str = MODE_EXHAUSTIVE

    def __len__(self) -> int:
        return len(self.codes)

    @cached_property
    def code_set(self) -> frozenset[int]:
        return frozenset(self.codes)

    @cached_property
    def codes_array(self) -> np.ndarray:
        return np.asarray(self.codes, dtype=np.int64)

    @cached_property
    def images_matrix(self) -> np.ndarray:
        """Row k = image tuple of codes[k]; shape (count, n), zeros undefined."""
        base = self.n + 1
        digits = np.empty((len(self.codes), self.n), dtype=np.int64)
        c = self.codes_array.copy()
        for k in range(self.n):
            c, digits[:, k] = np.divmod(c, base)
        return digits

    @cached_property
    def ranks(self) -> np.ndarray:
        return np.count_nonzero(self.images_matrix, axis=1)

    def contains_code(self, code: int) -> bool:
        return code in self.code_set

    def members(self) -> Iterator[PartialInjection]:
        for code in self.codes:
            yield decode(self.n, code)

    def save(self, path: str | Path) -> None:
        write_code_file(path, self.n, self.codes_array)
        write_sidecar(path, {
            "n": self.n,
            "count": len(self.codes),
            "rank_histogram": list(self.rank_histogram),
            "mode": self.mode,
        })

    @classmethod
    def load(cls, path: str | Path) -> ElementUniverse:
        """Read a saved universe; ValueError unless every field agrees."""
        n, codes = read_code_file(path)
        meta = read_sidecar(path, ("n", "count", "rank_histogram", "mode"))
        if meta["n"] != n or meta["count"] != len(codes) or meta["mode"] not in (
                MODE_EXHAUSTIVE, MODE_CLOSURE_DERIVED):
            raise ValueError(f"sidecar of {path} disagrees with the binary header")
        universe = cls(n, tuple(int(c) for c in codes),
                       sidecar_ints(meta, "rank_histogram"), meta["mode"])
        if count_by_rank(universe) != universe.rank_histogram:
            raise ValueError(f"sidecar of {path} has the wrong rank histogram")
        return universe


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
                      payload: bytes) -> None:
    """Header (magic, version, n, count, SHA-256 of the payload) + payload."""
    digest = hashlib.sha256(payload).digest()
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(magic, CACHE_VERSION, n, count, digest))
        fh.write(payload)


def read_binary_file(path: str | Path, magic: bytes,
                     item_bytes: int) -> tuple[int, int, bytes]:
    """(n, count, payload) of a file written by ``write_binary_file``.

    Raises ValueError unless the header is intact, the payload holds exactly
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
    payload = data[_HEADER.size:]
    if len(payload) != item_bytes * count:
        raise ValueError(f"{path}: payload of {len(payload)} bytes, "
                         f"expected {item_bytes * count}")
    if hashlib.sha256(payload).digest() != digest:
        raise ValueError(f"{path}: payload digest mismatch")
    return n, count, payload


def write_code_file(path: str | Path, n: int, codes: np.ndarray) -> None:
    """Binary code list: the sorted codes as u64 after the common header."""
    arr = np.asarray(codes, dtype="<u8")
    write_binary_file(path, CACHE_MAGIC, n, len(arr), arr.tobytes())


def read_code_file(path: str | Path) -> tuple[int, np.ndarray]:
    n, _, payload = read_binary_file(path, CACHE_MAGIC, 8)
    return n, np.frombuffer(payload, dtype="<u8").astype(np.int64)


def enumerate_FI(n: int, workers: int = 1) -> ElementUniverse:
    """Enumerate FI_n exhaustively (n ≤ 9), returning sorted codes."""
    check_fence_size(n)
    if workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")
    if n > ENUMERATION_CAP:
        raise CapacityError(
            f"exhaustive enumeration is capped at n = {ENUMERATION_CAP}; "
            f"obtain FI_{n} as the closure of build_G({n}) instead")
    total = 1 << n
    if workers == 1 or total < 64:
        parts = [_enumerate_mask_range(n, 0, total)]
    else:
        bounds = np.linspace(0, total, workers * 4 + 1).astype(int)
        with ProcessPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(_enumerate_mask_range,
                                  [n] * (len(bounds) - 1), bounds[:-1], bounds[1:]))
    codes: list[int] = []
    hist = [0] * (n + 1)
    for part_codes, part_hist in parts:
        codes.extend(part_codes)
        for r, c in enumerate(part_hist):
            hist[r] += c
    codes.sort()
    return ElementUniverse(n, tuple(codes), tuple(hist))


def count_by_rank(universe: ElementUniverse) -> tuple[int, ...]:
    """Recompute the rank histogram from the codes (cross-check path)."""
    hist = [0] * (universe.n + 1)
    for r in universe.ranks:
        hist[r] += 1
    return tuple(hist)


def enumerate_naive(n: int) -> tuple[int, ...]:
    """Filter all partial injections by the automorphism predicate.

    Quadratic-in-|I_n| reference path used to cross-check the pruned
    search at small n; impractical beyond n = 5.
    """
    check_fence_size(n)
    if n > 7:
        raise CapacityError(f"naive filter is impractical for n = {n}")
    from itertools import combinations, permutations

    powers = code_powers(n)
    codes = []
    points = range(1, n + 1)
    for k in range(n + 1):
        for dom in combinations(points, k):
            for img in permutations(points, k):
                images = [0] * n
                for x, y in zip(dom, img):
                    images[x - 1] = y
                f = PartialInjection(n, tuple(images))
                if is_partial_automorphism(f):
                    codes.append(sum(v * p for v, p in zip(images, powers)))
    codes.sort()
    return tuple(codes)


def universe_from_codes(n: int, codes, mode: str = MODE_CLOSURE_DERIVED) -> ElementUniverse:
    """Wrap an externally computed sorted code list as a universe."""
    check_fence_size(n)
    codes = tuple(int(c) for c in codes)
    hist = [0] * (n + 1)
    for code in codes:
        hist[decode(n, code).rank] += 1
    return ElementUniverse(n, codes, tuple(hist), mode)
