"""Executable decompositions: parity reduction and convex-domain extension.

Parity reduction strips parity-changing points off an element one at a time.
If x ∈ dom δ is odd with xδ even, then xδ±1 are outside im δ (x is minimal,
so nothing below it maps below xδ), hence δ = (δ·β_{xδ}^even)·β_{xδ}^odd and
the inner factor has strictly fewer parity-changing points.  Symmetrically,
if x is even then x±1 are outside dom δ and δ = β_x^even·(β_x^odd·δ).
Iterating yields δ = l_1⋯l_p · core · r_1⋯r_p with every l/r factor either
id_{n̄} or a β-family element and the core parity-preserving.

The reduction runs as one batch kernel, ``_reduce_words``, over packed
words (one nibble per point, so n ≤ 15), which it reads through the nibble
toolkit of ``fence``.  Each pass takes every live word's smallest
parity-changing point x and records one signed int8 step: +i for an odd x
with image i, core ← core·β_i^even; −x for an even x, core ← β_x^odd·core.
Both products are one gather per word through a table of per-byte shares
(``_product_table``), ORed over its ⌈n/2⌉ bytes: a right product through
value tables, which map a byte's two images through β, a left product
through position tables, which move a byte's two nibbles to the points β
sends onto them.  The changing points (``_changing``), the smallest x and
the counts of changing points are bit operations on whole words.  A word
leaves the batch after its last step: of the 10,000 words of the n = 9
sweep, 5,721 need one step and 150 need four.  ``_recompose_words``
multiplies the recorded β_i^odd / β_x^even factors back on, each pass over
only the words with a step in it.  ``parity_reduce`` runs the same kernel
on δ's one word, its steps spelled out as factors and labels.

Convex extension grows a convex-domain element of rank ≤ n−3 by one point:
pick w with w−1, w, w+1 all outside dom δ and x likewise outside im δ (both
exist because the complement of an interval of length ≤ n−3 inside {0..n+1}
contains a run of three points centred in {1..n}); then δ ∪ {w↦x} is again
a partial automorphism and id_{n̄∖{w}} · (δ ∪ {w↦x}) = δ.  The smallest
such w and x of every row of an image matrix are picked at once
(``_extend_rows``: the first centre of three unused points, one mask of
the domain and one of the image, widened by 0 and n+1); ``convex_extend``
runs that rule on δ's one row, so the registry's sweep and the single
extension share it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

import numpy as np

from .fence import (
    _ODD_POINTS,
    _ONE,
    _PIECE,
    PartialInjection,
    _defined,
    _image_at,
    _lowest,
    _nibble_bits,
    _pack,
    _unpack,
    compose,
    is_convex,
    is_partial_automorphism,
    restrict_identity,
)
from .generators import beta_even, beta_odd

IDENTITY_LABEL = "id"


@cache
def _identity(n: int) -> PartialInjection:
    """id_{n̄}, one shared value per n (n is an already validated size)."""
    return PartialInjection.identity(n)


@cache
def _beta_rows(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The β^even and β^odd tables: row i is (0, 1β_i, …, nβ_i) for even i,
    with 0 for an undefined point; row 0 is the identity (0, 1, …, n), and
    the rows of odd i > 0 are all 0.

    The kernel reads them through ``_word_tables``.  The tables are
    read-only: every caller shares them.
    """
    tables = []
    for family in (beta_even, beta_odd):
        table = np.zeros((n + 1, n + 1), dtype=np.uint8)
        table[0] = np.arange(n + 1)
        for i in range(2, n, 2):
            table[i, 1:] = family(n, i).images
        table.flags.writeable = False
        tables.append(table)
    return tables[0], tables[1]


# the entry of byte q, value b, in a block of a product table is 256q + b
_BYTE_OFFSETS = np.arange(0, 8 * 256, 256, dtype=np.intp)[:, None]


def _changing(words: np.ndarray) -> np.ndarray:
    """The parity-changing points of packed words: bit 4(x−1) is set iff
    y = xδ > 0 and x − y is odd, and no other bit is.  That bit of a word
    is the low bit of y, and of ``_ODD_POINTS`` the low bit of x."""
    return (words ^ _ODD_POINTS) & _defined(words)


def _product_table(right: np.ndarray, left: np.ndarray) -> np.ndarray:
    """The flat u64 product table of two β tables laid out as ``_beta_rows``.

    Block s, row q, entry b is the share of byte q, value b, of a packed
    word in its product by step s's factor; the product is the OR of its
    ⌈n/2⌉ shares.  The first (n−1)/2 blocks, steps +2, +4, …, are value
    tables: byte b's two images go through right[i] and stay at byte q.
    The others, steps −2, −4, …, are position tables: byte b's nibbles,
    the images of points 2q+1 and 2q+2, move to the points that left[x]
    sends onto 2q+1 and 2q+2, or drop out.
    """
    n = len(right) - 1
    half, blocks = (n + 1) // 2, (n - 1) // 2
    byte = np.arange(256, dtype=np.uint64)
    low, high = byte & 15, byte >> np.uint64(4)
    values = np.zeros((blocks, 16), dtype=np.uint64)
    values[:, :n + 1] = right[2:n:2]
    places = np.arange(0, 8 * half, 8, dtype=np.uint64)[:, None]
    by_value = (values[:, low] | values[:, high] << np.uint64(4))[:, None] << places
    # units[s, t] = 16^(p−1), the unit of point p's nibble, where p·left[x] = t
    units = np.zeros((blocks, 17), dtype=np.uint64)
    units[np.arange(blocks)[:, None], left[2:n:2, 1:]] = (
        np.uint64(16) ** np.arange(n, dtype=np.uint64))
    by_position = (low * units[:, 1::2][:, :half, None]
                   | high * units[:, 2::2][:, :half, None])
    return np.concatenate([by_value, by_position]).ravel()


@cache
def _derived_tables(n: int, evens: bytes,
                    odds: bytes) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    evens, odds = (np.frombuffer(t, dtype=np.uint8).reshape(n + 1, n + 1)
                   for t in (evens, odds))
    steps = np.arange(2, n, 2)
    blocks = np.zeros(32, dtype=np.intp)
    blocks[steps] = steps // 2 - 1
    blocks[-steps] = steps // 2 - 1 + len(steps)
    blocks *= 256 * ((n + 1) // 2)
    tables = _product_table(evens, odds), _product_table(odds, evens), blocks
    for table in tables:
        table.flags.writeable = False
    return tables


def _word_tables(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The reduce table (β^even values, β^odd positions), the recompose
    table (β^odd values, β^even positions) and each signed step's block
    offset in both, at index step mod 32.  Derived once per distinct pair
    of ``_beta_rows(n)`` tables, keyed by their bytes."""
    evens, odds = _beta_rows(n)
    return _derived_tables(n, evens.tobytes(), odds.tobytes())


def _times(table: np.ndarray, blocks: np.ndarray, words: np.ndarray,
           steps: np.ndarray, half: int) -> np.ndarray:
    """Each packed word times its nonzero step's factor: one gather of the
    shares of its ``half`` = ⌈n/2⌉ low bytes, laid out byte by byte, and
    their OR.  The words are taken ``_PIECE`` at a time, as in the closure
    engine, so the gather's intp index and its u64 shares stay piece-sized."""
    out = np.empty(len(words), dtype=np.uint64)
    data = words.view(np.uint8).reshape(-1, 8)
    for lo in range(0, len(words), _PIECE):
        hi = lo + _PIECE
        index = blocks.take(steps[lo:hi]) + _BYTE_OFFSETS[:half]
        index += data[lo:hi, :half].T
        np.bitwise_or.reduce(table.take(index), axis=0, out=out[lo:hi])
    return out


def _reduce_words(words: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Parity-reduce every packed word of FI_n (n ≤ 15) at once.

    Returns the parity-preserving cores' words and the steps (m × p int8,
    p the largest step count): +i where core ← core·β_i^even, −x where
    core ← β_x^odd·core, 0 after a word's last step.  Only the live words,
    those with a changing point left, take a pass.  A pass that fails to
    shrink a live word's parity-changing set raises RuntimeError.  With
    the β tables of ``_beta_rows`` every step removes the chosen point and
    moves no other point across parity, so the check guards the tables and
    the step rule, and bounds the passes by n.
    """
    table, _, blocks = _word_tables(n)
    cores = words.copy()
    # each pass removes at least one of the ≤ n changing points of a word
    steps = np.zeros((len(words), n), dtype=np.int8)
    mask = _changing(words)
    counts = _nibble_bits(mask)
    live = np.flatnonzero(counts)
    core, mask, counts = words.take(live), mask.take(live), counts.take(live)
    passes = 0
    while len(live):
        # x − 1, the number of nibbles below the lowest changing point
        below = _lowest(mask)
        image = _image_at(core, below)
        # an odd x has an even image i: step +i; an even x: step −x, which
        # is ~(x − 1) in int8
        step = np.where(below & _ONE, ~below, image).astype(np.int8)
        core = _times(table, blocks, core, step, (n + 1) // 2)
        mask = _changing(core)
        remaining = _nibble_bits(mask)
        stuck = remaining >= counts
        if stuck.any():
            r = stuck.argmax()
            raise RuntimeError(
                f"parity reduction failed to shrink at point {int(below[r]) + 1}: "
                f"{counts[r]} -> {remaining[r]} changing points")
        steps[live, passes] = step
        passes += 1
        # a word that stays live is written again after its last pass
        cores[live] = core
        keep = np.flatnonzero(remaining)
        if not len(keep):
            break
        if len(keep) < len(live):
            live, core, mask, remaining = (
                a.take(keep) for a in (live, core, mask, remaining))
        counts = remaining
    return cores, steps[:, :passes]


def _recompose_words(cores: np.ndarray, steps: np.ndarray, n: int) -> np.ndarray:
    """Multiply the factors recorded by ``_reduce_words`` back onto copies
    of the cores' words, last step first: ·β_i^odd for a step +i, β_x^even·
    for a step −x.  Each pass multiplies only the words whose step in it is
    nonzero."""
    _, table, blocks = _word_tables(n)
    words = cores.copy()
    for step in steps.T[::-1]:
        live = np.flatnonzero(step)
        words[live] = _times(table, blocks, words.take(live), step.take(live),
                             (n + 1) // 2)
    return words


@dataclass(frozen=True)
class ParityDecomposition:
    """δ = left factors · core · right factors, core parity-preserving."""

    target: PartialInjection
    left: tuple[PartialInjection, ...]
    core: PartialInjection
    right: tuple[PartialInjection, ...]
    left_labels: tuple[str, ...]
    right_labels: tuple[str, ...]

    @property
    def steps(self) -> int:
        return len(self.left)

    def recompose(self) -> PartialInjection:
        result = self.core
        for f in reversed(self.left):
            result = compose(f, result)
        for f in self.right:
            result = compose(result, f)
        return result


def parity_reduce(delta: PartialInjection) -> ParityDecomposition:
    """Peel parity-changing points off δ, smallest domain point first.

    The batch kernel ``_reduce_words`` on δ's one packed word; step k
    becomes the left factor l_k and the right factor r_k, so the right
    factors run from the last step to the first.  Each step removes at
    least the chosen point from the parity-changing set; the step count is
    bounded by |dom δ|.  A step that fails to shrink the set raises
    RuntimeError.
    """
    n = delta.n
    ident = _identity(n)
    cores, steps = _reduce_words(_pack(np.array([delta.images], dtype=np.uint8)), n)
    left: list[PartialInjection] = []
    right: list[PartialInjection] = []
    left_labels: list[str] = []
    right_labels: list[str] = []
    for step in steps[0].tolist():
        if step > 0:
            left.append(ident)
            left_labels.append(IDENTITY_LABEL)
            right.append(beta_odd(n, step))
            right_labels.append(f"beta_{step}_odd")
        else:
            left.append(beta_even(n, -step))
            left_labels.append(f"beta_{-step}_even")
            right.append(ident)
            right_labels.append(IDENTITY_LABEL)
    core = PartialInjection(n, tuple(_unpack(cores, n)[0].tolist()))
    return ParityDecomposition(
        delta, tuple(left), core, tuple(reversed(right)),
        tuple(left_labels), tuple(reversed(right_labels)))


@dataclass(frozen=True)
class ConvexExtension:
    """input = dropper · extended, with rank(extended) = rank(input) + 1."""

    target: PartialInjection
    dropper: PartialInjection
    extended: PartialInjection
    w: int
    x: int

    def recompose(self) -> PartialInjection:
        return compose(self.dropper, self.extended)


def _first_free(used: np.ndarray) -> np.ndarray:
    """Per row of ``used`` (m × (n+2), column p for point p = 0, …, n+1),
    the smallest p ∈ 1..n with p−1, p and p+1 all unused, or 1 if none is."""
    free = ~(used[:, :-2] | used[:, 1:-1] | used[:, 2:])
    return free.argmax(axis=1) + 1


def _extend_rows(images: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The convex extension's new point of every row of an m × n uint8
    image matrix: the smallest w with w−1, w, w+1 outside the domain and
    the smallest x with x−1, x, x+1 outside the image, as two int arrays.

    Both exist for a convex-domain row of rank ≤ n−3 (see the module
    docstring).  On any other row a missing w or x reads 1, which the
    callers' checks of the extension refuse.
    """
    m, n = images.shape
    in_domain = np.zeros((m, n + 2), dtype=bool)
    in_domain[:, 1:-1] = images != 0
    in_image = np.zeros((m, n + 2), dtype=bool)
    in_image[np.arange(m)[:, None], images] = True
    in_image[:, 0] = False  # 0 marks an undefined point, not an image
    return _first_free(in_domain), _first_free(in_image)


def convex_extend(delta: PartialInjection) -> ConvexExtension:
    """Extend a convex-domain element of rank ≤ n−3 by one isolated point.

    Chooses the smallest legal w, then the smallest legal x, by the batch
    rule ``_extend_rows`` on δ's one image row; determinism matters for
    reproducible witnesses, existence is guaranteed by the rank bound.
    """
    n = delta.n
    dom = delta.domain
    if not is_convex(dom):
        raise ValueError(f"domain {dom} is not convex")
    if delta.rank > n - 3:
        raise ValueError(
            f"rank {delta.rank} exceeds n-3 = {n - 3}; no room to extend")
    (w,), (x,) = _extend_rows(np.array([delta.images], dtype=np.uint8))
    w, x = int(w), int(x)
    images = list(delta.images)
    images[w - 1] = x
    extended = PartialInjection(n, tuple(images))
    if not is_partial_automorphism(extended):
        raise RuntimeError(
            f"extension by {w}->{x} left the automorphism class; "
            f"input was likely not a partial automorphism")
    dropper = restrict_identity(n, (p for p in range(1, n + 1) if p != w))
    return ConvexExtension(delta, dropper, extended, w, x)
