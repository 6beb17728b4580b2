"""Exhaustive enumeration of FI_n — the ground-truth oracle for small n.

Enumeration is one depth-first pass over the points 1..n: each point is
left undefined or given an image, and a partial assignment that already
violates the order biconditional is pruned.  Because points are decided in
ascending order, the only comparable earlier point of the current point d
is d−1, so the pruning state is two integers: the image of d−1, which fixes
the side on which d's image must lie, and a bitmask of the images within
distance 1 of the images of the earlier, non-adjacent points.

Every node of the pruned search is a prefix of an element of FI_n, so its
cost grows with |FI_n|: the 586,650 elements of FI_11 take about 0.7 s on
one Xeon core, but FI_13 has 11,333,302.  The exhaustive mode is capped at
n = 9; ``enumerate_FI`` refuses larger n, which the closure of G_n covers
instead.
"""

from __future__ import annotations

import hashlib
import json
import struct
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


def _assignments(n: int) -> list[int]:
    """The code of every element of FI_n, in depth-first order.

    Points 1..n are decided in turn: first undefined, then each legal image
    in ascending order.  ``banned`` is a bitmask of the images within
    distance 1 of the images of the defined points ≤ d−2, and ``u`` is the
    image of d−1 (0 when undefined).  A new image is either u ± 1 or at
    distance ≥ 2 from every earlier image, so the maps are injective.
    """
    powers = code_powers(n)
    codes: list[int] = []

    def rec(d: int, banned: int, u: int, code: int) -> None:
        if d > n:
            codes.append(code)
            return
        below = banned | (7 << u >> 1) if u else banned
        rec(d + 1, below, 0, code)
        if not u:
            candidates: tuple[int, ...] | range = range(1, n + 1)
        elif u % 2 == (d - 1) % 2:
            # d−1 odd means d−1 ≺ d, so u must be odd; d−1 even means
            # d ≺ d−1, so u must be even; either way d maps next to u
            candidates = (u - 1, u + 1)
        else:
            candidates = ()
        for v in candidates:
            if 1 <= v <= n and not banned >> v & 1:
                rec(d + 1, below, v, code + v * powers[d - 1])

    rec(1, 0, 0, 0)
    return codes


@dataclass(frozen=True)
class ElementUniverse:
    """The complete, sorted code list of FI_n."""

    n: int
    codes: tuple[int, ...]

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
        """Row k = image tuple of codes[k]; shape (count, n), zeros undefined.

        The entries are uint8: an image is at most n ≤ 15.
        """
        base = self.n + 1
        digits = np.empty((len(self.codes), self.n), dtype=np.uint8)
        c = self.codes_array.copy()
        digit = np.empty_like(c)
        for k in range(self.n):
            np.divmod(c, base, out=(c, digit))
            digits[:, k] = digit
        return digits

    @cached_property
    def ranks(self) -> np.ndarray:
        return np.count_nonzero(self.images_matrix, axis=1)

    @cached_property
    def rank_histogram(self) -> tuple[int, ...]:
        """Element counts for ranks 0..n, counted from the codes."""
        return tuple(np.bincount(self.ranks, minlength=self.n + 1).tolist())

    def members(self) -> Iterator[PartialInjection]:
        for code in self.codes:
            yield decode(self.n, code)

    def save(self, path: str | Path) -> None:
        write_code_file(path, self.n, self.codes_array)
        write_sidecar(path, {
            "n": self.n,
            "count": len(self.codes),
            "rank_histogram": list(self.rank_histogram),
            "mode": MODE_EXHAUSTIVE,
        })

    @classmethod
    def load(cls, path: str | Path) -> ElementUniverse:
        """Read a saved universe; ValueError unless every field agrees."""
        n, codes = read_code_file(path)
        meta = read_sidecar(path, ("n", "count", "rank_histogram", "mode"))
        if (meta["n"] != n or meta["count"] != len(codes)
                or meta["mode"] != MODE_EXHAUSTIVE):
            raise ValueError(f"sidecar of {path} disagrees with the binary header")
        universe = cls(n, tuple(codes.tolist()))
        if sidecar_ints(meta, "rank_histogram") != universe.rank_histogram:
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


def write_code_file(path: str | Path, n: int, codes: np.ndarray) -> None:
    """Binary code list: the sorted codes as u64 after the common header."""
    arr = np.asarray(codes, dtype="<u8")
    write_binary_file(path, CACHE_MAGIC, n, len(arr), arr)


def read_code_file(path: str | Path) -> tuple[int, np.ndarray]:
    n, _, payload = read_binary_file(path, CACHE_MAGIC, 8)
    return n, np.frombuffer(payload, dtype="<u8").astype(np.int64)


def enumerate_FI(n: int) -> ElementUniverse:
    """Enumerate FI_n exhaustively (n ≤ 9), returning sorted codes."""
    check_fence_size(n)
    if n > ENUMERATION_CAP:
        raise CapacityError(
            f"exhaustive enumeration is capped at n = {ENUMERATION_CAP}; "
            f"obtain FI_{n} as the closure of build_G({n}) instead")
    codes = _assignments(n)
    codes.sort()
    return ElementUniverse(n, tuple(codes))


def enumerate_naive(n: int) -> tuple[int, ...]:
    """Filter all partial injections by the automorphism predicate.

    One pass over I_n, used to cross-check the pruned search at small n;
    refuses n > 7 (n = 7 takes about a second).
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
