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
tests check the uncapped search against it.  The census is never written
to disk: each caller enumerates it on demand, which at n = 9 costs a few
milliseconds, so no stale or damaged census file can stand in for it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
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
