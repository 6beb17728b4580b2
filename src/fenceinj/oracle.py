"""Exhaustive enumeration of FI_n — the ground-truth oracle for small n.

Enumeration is a pruned search over the points 1..n, run one level at a
time in numpy: level d holds every prefix that decides the points < d, and
a prefix that already violates the order biconditional is never formed.
Because points are decided in ascending order, the only comparable earlier
point of the current point d is d−1, so a prefix's pruning state is the
image of d−1, which fixes the side on which d's image must lie, and a
bitmask of the images within distance 1 of the images of the earlier,
non-adjacent points.  The search shares no code with the closure engine.

The census is one sorted, read-only int64 array: ``enumerate_FI`` sorts the
search's last level in place, and the census derives the packed words and
the ranks from it in one pass (``fence._decode_codes``).  Every prefix
extends to an element of FI_n, so the cost grows with |FI_n|: on one 2-core
Xeon host, FI_9 takes about 2.5 ms, the 586,650 elements of FI_11 about
30 ms and the 11,333,302 of FI_13 about 0.6 s.  ``enumerate_FI`` is capped
at n = 9 and refuses larger n, which the closure of G_n covers instead;
tests check the uncapped search against it.
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
    _decode_codes,
    check_fence_size,
    code_powers,
    decode,
)

ENUMERATION_CAP = 9

CACHE_MAGIC = b"FENC"
CACHE_VERSION = 2
# magic, version, n, item count, SHA-256 of the payload
_HEADER = struct.Struct("<4sIIQ32s")

MODE_EXHAUSTIVE = "exhaustive"


def _census_codes(n: int) -> np.ndarray:
    """The code of every element of FI_n, unsorted, for any valid fence size.

    Level d holds one entry per prefix that decides the points < d: its
    ``code``, the bitmask ``banned`` of the images within distance 1 of the
    images of the defined points ≤ d−2, and ``u``, the image of d−1.  The
    prefixes that leave d−1 undefined come first, so ``u`` covers only the
    rest.  Each prefix leaves d undefined, and gives it each image outside
    ``banned`` when d−1 is undefined, or u ± 1 when u has the parity of d−1
    (d−1 odd means d−1 ≺ d, so u must be odd; d−1 even means d ≺ d−1, so u
    must be even) and that image is not banned.  A new image is thus u ± 1
    or at distance ≥ 2 from every earlier one, so the maps are injective;
    bits 0 and n+1 are banned from the start, so u ± 1 stays in 1..n.  A
    level counts its children before it fills one array per field, and the
    last level fills only the codes.
    """
    check_fence_size(n)
    code = np.zeros(1, np.int64)
    banned = np.full(1, 1 | 1 << n + 1, np.int32)
    u = np.zeros(0, np.int8)
    for d, p in enumerate(code_powers(n), 1):
        parents = len(code)
        head = parents - len(u)
        side = u % 2 == (d - 1) % 2
        kids = [(0, banned[:head] & 1 << v == 0, v) for v in range(1, n + 1)]
        kids += [(head, side & (banned[head:] >> (u + step) & 1 == 0), step)
                 for step in (-1, 1)]
        counts = [np.count_nonzero(m) for _, m, _ in kids]
        size = parents + sum(counts)
        code_out = np.empty(size, np.int64)
        code_out[:parents] = code  # d undefined
        if d < n:
            # a child's ``banned`` is its parent's, widened by the
            # neighbours of u: the undefined children, first, hold it
            banned_out = np.empty(size, np.int32)
            banned_out[:parents] = banned
            banned_out[head:parents] |= 7 << u.astype(np.int32) >> 1
            u_out = np.empty(size - parents, np.int8)
        o = parents
        for (start, m, v), k in zip(kids, counts):
            rows = slice(start, start + len(m))
            if start:  # a step from u, widened so that v * p cannot overflow
                v = u[m] + np.int64(v)
            np.add(code[rows][m], v * p, out=code_out[o:o + k])
            if d < n:
                banned_out[o:o + k] = banned_out[rows][m]
                u_out[o - parents:o - parents + k] = v
            o += k
        code = code_out
        if d < n:
            banned, u = banned_out, u_out
    return code


@dataclass(frozen=True, eq=False)  # an array has no value equality or hash
class ElementUniverse:
    """The census of FI_n: ``codes`` is one sorted, read-only int64 array,
    and the other properties are derived from it."""

    n: int
    codes: np.ndarray

    def __len__(self) -> int:
        return len(self.codes)

    @cached_property
    def _decoded(self) -> tuple[np.ndarray, np.ndarray]:
        words, ranks = _decode_codes(self.codes, self.n)
        words.flags.writeable = ranks.flags.writeable = False
        return words, ranks

    @property
    def words(self) -> np.ndarray:
        """The packed word of each code, read-only; sorted, as the codes are."""
        return self._decoded[0]

    @property
    def ranks(self) -> np.ndarray:
        """The rank of each code, its count of nonzero digits, as uint8."""
        return self._decoded[1]

    @cached_property
    def rank_histogram(self) -> tuple[int, ...]:
        """Element counts for ranks 0..n, counted from the codes."""
        return tuple(np.bincount(self.ranks, minlength=self.n + 1).tolist())

    def members(self) -> Iterator[PartialInjection]:
        for code in self.codes.tolist():
            yield decode(self.n, code)

    def save(self, path: str | Path) -> None:
        write_code_file(path, self.n, self.codes)
        write_sidecar(path, {
            "n": self.n,
            "count": len(self.codes),
            "rank_histogram": list(self.rank_histogram),
            "mode": MODE_EXHAUSTIVE,
        })

    @classmethod
    def load(cls, path: str | Path) -> ElementUniverse:
        """Read a saved universe; ValueError unless every field agrees, n
        is a fence size and the codes are strictly increasing codes of maps
        on {1..n}."""
        n, codes = read_code_file(path)
        check_fence_size(n)
        meta = read_sidecar(path, ("n", "count", "rank_histogram", "mode"))
        if (meta["n"] != n or meta["count"] != len(codes)
                or meta["mode"] != MODE_EXHAUSTIVE):
            raise ValueError(f"sidecar of {path} disagrees with the binary header")
        if np.any(codes[1:] <= codes[:-1]):
            raise ValueError(f"codes of {path} are not strictly increasing")
        codes.flags.writeable = False
        universe = cls(n, codes)
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
    """Enumerate FI_n exhaustively (n ≤ 9) by the level-wise search, sorting
    its codes in place into the census."""
    check_fence_size(n)
    if n > ENUMERATION_CAP:
        raise CapacityError(
            f"exhaustive enumeration is capped at n = {ENUMERATION_CAP}; "
            f"obtain FI_{n} as the closure of build_G({n}) instead")
    codes = _census_codes(n)
    codes.sort()
    codes.flags.writeable = False
    return ElementUniverse(n, codes)
