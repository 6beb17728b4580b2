"""The odd fence poset and its partial automorphisms.

The fence on {1..n} (n odd) is the zig-zag order 1 ≺ 2 ≻ 3 ≺ 4 ≻ ⋯ ≺ n−1 ≻ n:
odd points are minimal, even points are maximal, and x ≺ y holds exactly when
x is odd, y is even, and |x − y| = 1.  Two points are comparable iff they are
equal or adjacent.

A partial injection α on {1..n} is a partial automorphism of the fence when
a ⪯ b ⇔ aα ⪯ bα for all a, b ∈ dom α (both directions).  The set FI_n of all
partial automorphisms is an inverse semigroup under composition; composition
is written left to right throughout: x(fg) = (xf)g.

Elements are stored as length-n image tuples with 0 marking an undefined
point.  Each element admits a canonical integer code in base n+1:

    code(α) = Σ_k d_k (n+1)^(k−1),   d_k = kα if defined else 0,

which fits in 64 bits for n ≤ 15.

Arrays of elements take a second form, the packed word: a little-endian
u64 with the image of point k, 0 for undefined, in nibble k−1; the top
nibble is always 0.  A word rises with its code, since both read the images
from point n down, so a sorted array of codes and the array of their words
are in the same order.  This module alone converts element arrays between
codes, uint8 image rows and words: ``_pack`` and ``_unpack`` between rows
and words, ``_decode_codes`` from codes to words and ranks, one divmod pass
over the digits, and ``_write_codes`` from words to codes, one table gather
per byte (``_sum_tables``).  Both run ``_PIECE`` entries at a time, so
their temporaries stay piece-sized.  The nibble toolkit reads a word as
bit sets: ``_defined`` marks the defined points, ``_nibble_bits`` counts
marked points, ``_lowest`` finds the first and ``_image_at`` reads the
image there.  The closure engine, the parity kernel and the registry's
claims all read words through these helpers; only the product kernels of
the engine and of the parity kernel read a word's bytes themselves.

Every public way to build an element validates it in full:
``PartialInjection(...)``, ``from_pairs``, ``restrict_identity``, ``decode``
and ``parse_map``.  Composites and inverses do not: a composite or inverse
of partial injections on {1..n} is again one, so ``compose`` and ``inverse``
build their result through ``_unchecked`` instead of re-proving it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from numbers import Integral
from typing import Iterable, Iterator

import numpy as np

MAX_N = 15

UNDEF = 0


class CapacityError(ValueError):
    """A request exceeds the size limits of an exhaustive computation."""


class MapFormatError(ValueError):
    """Malformed textual or coded representation of a partial injection."""


def check_fence_size(n: int) -> int:
    if not isinstance(n, int) or isinstance(n, bool):
        raise ValueError(f"fence size must be an integer, got {n!r}")
    if n < 1 or n % 2 == 0:
        raise ValueError(f"fence size must be a positive odd integer, got {n}")
    if n > MAX_N:
        raise CapacityError(
            f"fence size {n} exceeds the cap {MAX_N} (codes must fit in 64 bits)")
    return n


def _check_int(value: int, name: str, error: type[ValueError] = ValueError) -> int:
    """``value`` as an int.  Python and numpy integers pass; bool, float,
    str and every other type raise ``error`` naming ``name``, where
    ``int()`` would truncate or parse them."""
    # an exact int, the common case, skips the slower ABC check
    if type(value) is int or (isinstance(value, Integral) and type(value) is not bool):
        return int(value)
    raise error(f"{name} must be an integer, got {value!r}")


def _check_point(n: int, x: int, name: str = "point") -> None:
    if not 1 <= _check_int(x, name) <= n:
        raise ValueError(f"{name} {x} out of range 1..{n}")


def fence_less(n: int, x: int, y: int) -> bool:
    """x ≺ y in the fence: x odd, y even, adjacent."""
    check_fence_size(n)
    _check_point(n, x)
    _check_point(n, y)
    return x % 2 == 1 and y % 2 == 0 and abs(x - y) == 1


def comparable(n: int, x: int, y: int) -> bool:
    """x ⪯ y or y ⪯ x; holds iff x ∈ {y−1, y, y+1}."""
    check_fence_size(n)
    _check_point(n, x)
    _check_point(n, y)
    return abs(x - y) <= 1


def is_convex(points: Iterable[int]) -> bool:
    """True iff the points form a (possibly empty) interval of integers."""
    pts = sorted(points)
    return not pts or pts[-1] - pts[0] + 1 == len(pts)


_POWERS: dict[int, tuple[int, ...]] = {}

# the entries one conversion of an element array handles at a time, and the
# products one gather of a product kernel forms; a gather's index holds
# eight entries per product
_PIECE = 1 << 13

# bit 0 of every nibble of a packed word, and of the nibbles of the odd
# points 1, 3, …, 15 (nibble x−1 holds the image of point x)
_NIBBLE_LOW = np.uint64(0x1111_1111_1111_1111)
_ODD_POINTS = np.uint64(0x0101_0101_0101_0101)
_ONE = np.uint64(1)


def code_powers(n: int) -> tuple[int, ...]:
    """Positional weights (n+1)^0 .. (n+1)^(n−1) of the canonical code."""
    if n not in _POWERS:
        _POWERS[n] = tuple((n + 1) ** k for k in range(n))
    return _POWERS[n]


@dataclass(frozen=True)
class PartialInjection:
    """A partial injective self-map of {1..n}.

    ``images[k-1]`` is the image of point k, or 0 if k is undefined.  The
    constructor validates injectivity and ranges; instances are immutable
    and hashable.
    """

    n: int
    images: tuple[int, ...]

    def __post_init__(self) -> None:
        check_fence_size(self.n)
        if not isinstance(self.images, tuple):
            object.__setattr__(self, "images", tuple(self.images))
        if len(self.images) != self.n:
            raise ValueError(
                f"expected {self.n} image entries, got {len(self.images)}")
        seen = 0
        for v in self.images:
            if type(v) is not int:  # refuse bool, float, str; numpy ints become int
                object.__setattr__(self, "images", tuple(
                    _check_int(w, "image value") for w in self.images))
                return self.__post_init__()
            if v == UNDEF:
                continue
            if not 1 <= v <= self.n:
                raise ValueError(f"image value {v} out of range 1..{self.n}")
            bit = 1 << v
            if seen & bit:
                raise ValueError(f"image value {v} repeated: not injective")
            seen |= bit

    @classmethod
    def identity(cls, n: int) -> PartialInjection:
        return cls(n, tuple(range(1, n + 1)))

    @classmethod
    def empty(cls, n: int) -> PartialInjection:
        return cls(n, (UNDEF,) * n)

    @classmethod
    def from_pairs(
        cls, n: int, pairs: dict[int, int] | Iterable[tuple[int, int]]
    ) -> PartialInjection:
        images = [UNDEF] * n
        items = pairs.items() if isinstance(pairs, dict) else pairs
        for x, y in items:
            _check_point(n, x, "domain point")
            images[x - 1] = y
        return cls(n, tuple(images))

    def __call__(self, x: int) -> int | None:
        _check_point(self.n, x)
        v = self.images[x - 1]
        return v if v != UNDEF else None

    @cached_property
    def domain(self) -> tuple[int, ...]:
        return tuple(k + 1 for k, v in enumerate(self.images) if v != UNDEF)

    @cached_property
    def image_set(self) -> tuple[int, ...]:
        return tuple(sorted(v for v in self.images if v != UNDEF))

    @property
    def rank(self) -> int:
        return len(self.domain)

    @property
    def is_empty(self) -> bool:
        return self.rank == 0

    def __mul__(self, other: PartialInjection) -> PartialInjection:
        return compose(self, other)

    def items(self) -> Iterator[tuple[int, int]]:
        for k, v in enumerate(self.images):
            if v != UNDEF:
                yield k + 1, v

    def __repr__(self) -> str:
        return f"PartialInjection({self.n}, {format_map(self)!r})"


def _unchecked(n: int, images: tuple[int, ...]) -> PartialInjection:
    """The element with these fields, built without ``__post_init__``.

    Only for values that are valid by construction; the result is equal to,
    and hashes like, ``PartialInjection(n, images)``.
    """
    f = object.__new__(PartialInjection)
    fields = f.__dict__
    fields["n"] = n
    fields["images"] = images
    return f


def compose(f: PartialInjection, g: PartialInjection) -> PartialInjection:
    """Left-to-right composition: x(fg) = (xf)g.

    The composite skips validation: both factors are partial injections on
    {1..n}, so their composite is one too (its images are g's images, each
    used at most once because f is injective).  Indexing g's images behind a
    leading 0 maps an undefined point of f to 0 without a branch.
    """
    if f.n != g.n:
        raise ValueError(f"size mismatch: {f.n} vs {g.n}")
    gi = (UNDEF,) + g.images
    return _unchecked(f.n, tuple([gi[v] for v in f.images]))


def inverse(f: PartialInjection) -> PartialInjection:
    """The inverse partial injection: dom f⁻¹ = im f, (xf)f⁻¹ = x.

    Like a composite, the inverse of a partial injection needs no validation.
    """
    images = [UNDEF] * f.n
    for x, y in f.items():
        images[y - 1] = x
    return _unchecked(f.n, tuple(images))


def order_violation(f: PartialInjection) -> tuple[int, int] | None:
    """First domain pair (a, b) breaking a ⪯ b ⇔ af ⪯ bf, or None.

    Only adjacent pairs need checking for the ≺ direction, but the converse
    direction (images comparable while arguments are not) requires the full
    pairwise sweep.
    """
    n = f.n
    dom = f.domain
    for ai in range(len(dom)):
        a = dom[ai]
        fa = f.images[a - 1]
        for bi in range(ai + 1, len(dom)):
            b = dom[bi]
            fb = f.images[b - 1]
            if (b - a <= 1) != (abs(fa - fb) <= 1):
                return (a, b)
            if b - a == 1:
                # adjacent pair: the order direction must be preserved
                lt_ab = a % 2 == 1  # a ≺ b iff the smaller point is odd
                lt_im = fa % 2 == 1 and fb % 2 == 0 and abs(fa - fb) == 1
                if lt_ab != lt_im:
                    return (a, b)
    return None


def is_partial_automorphism(f: PartialInjection) -> bool:
    """True iff f preserves and reflects the fence order on its domain."""
    return order_violation(f) is None


def restrict_identity(n: int, points: Iterable[int]) -> PartialInjection:
    """The partial identity id_U on the given point set U."""
    check_fence_size(n)
    images = [UNDEF] * n
    for x in points:
        _check_point(n, x)
        images[x - 1] = x
    return PartialInjection(n, tuple(images))


def encode(f: PartialInjection) -> int:
    """Canonical code: Σ_k d_k (n+1)^(k−1) with d_k = 0 for undefined."""
    powers = code_powers(f.n)
    return sum(v * p for v, p in zip(f.images, powers))


def decode(n: int, code: int) -> PartialInjection:
    """Inverse of encode.  Rejects non-integer codes, bad digits and collisions."""
    check_fence_size(n)
    code = _check_int(code, "code", MapFormatError)
    if code < 0:
        raise MapFormatError(f"negative code {code}")
    base = n + 1
    digits = []
    c = code
    for _ in range(n):
        c, d = divmod(c, base)
        digits.append(d)
    if c != 0:
        raise MapFormatError(f"code {code} too large for n={n}")
    try:
        return PartialInjection(n, tuple(digits))
    except ValueError as exc:
        raise MapFormatError(f"code {code} invalid: {exc}") from exc


def parse_map(n: int, text: str) -> PartialInjection:
    """Parse the comma-separated image list, `_` marking undefined points.

    Example at n=5: ``2,_,_,4,5`` is the map 1↦2, 4↦4, 5↦5.
    """
    check_fence_size(n)
    fields = [t.strip() for t in text.split(",")]
    if len(fields) != n:
        raise MapFormatError(
            f"expected {n} comma-separated entries, got {len(fields)}")
    images = []
    for k, field in enumerate(fields, start=1):
        if field == "_":
            images.append(UNDEF)
            continue
        # int() alone would also take "1_0", "+1" and non-ASCII digits
        if not (field.isascii() and field.isdigit()):
            raise MapFormatError(
                f"entry {k}: {field!r} is neither an integer nor '_'")
        v = int(field)
        if not 1 <= v <= n:
            raise MapFormatError(f"entry {k}: image {v} out of range 1..{n}")
        images.append(v)
    try:
        return PartialInjection(n, tuple(images))
    except ValueError as exc:
        raise MapFormatError(str(exc)) from exc


def format_map(f: PartialInjection) -> str:
    return ",".join("_" if v == UNDEF else str(v) for v in f.images)


def _pack(rows: np.ndarray) -> np.ndarray:
    """Packed words of uint8 image rows: the image of point k in bits
    4(k−1) to 4k−1 of a little-endian u64.  A pair of images read as one
    u16 is v = lo + 256·hi, and the low byte of v | v >> 4 is lo + 16·hi."""
    nibbles = np.zeros((len(rows), 16), dtype=np.uint8)
    nibbles[:, :rows.shape[1]] = rows
    pairs = nibbles.view("<u2")
    pairs |= pairs >> 4
    return pairs.astype(np.uint8).view("<u8").ravel()


def _unpack(words: np.ndarray, n: int) -> np.ndarray:
    """The m × n uint8 image rows of packed words: byte q holds the images
    of points 2q+1 (low nibble) and 2q+2 (high nibble)."""
    data = words.view(np.uint8).reshape(-1, 8)
    rows = np.empty((len(words), n), dtype=np.uint8)
    rows[:, 0::2] = data[:, :(n + 1) // 2] & 15
    rows[:, 1::2] = data[:, :n // 2] >> 4
    return rows


def _decode_codes(codes: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The packed words and the uint8 ranks of codes of maps on {1..n}.

    One divmod pass per digit, ``_PIECE`` codes at a time, ORs each digit
    into its nibble and counts the nonzero digits, so a rank does not rest
    on the nibble toolkit.  A code left nonzero after n digits, one
    ≥ (n+1)^n or negative, raises ValueError."""
    words = np.zeros(len(codes), dtype=np.uint64)
    ranks = np.zeros(len(codes), dtype=np.uint8)
    for lo in range(0, len(codes), _PIECE):
        rest = np.array(codes[lo:lo + _PIECE], dtype=np.int64)
        word, rank = words[lo:lo + _PIECE], ranks[lo:lo + _PIECE]
        digit = np.empty_like(rest)
        nibble = digit.view(np.uint64)
        for k in range(n):
            np.divmod(rest, n + 1, out=(rest, digit))
            rank += digit != 0
            nibble <<= np.uint64(4 * k)
            word |= nibble
        if rest.any():
            code = codes[lo + int(np.flatnonzero(rest)[0])]
            raise ValueError(f"code {code} is out of range for n={n}")
    return words, ranks


def _defined(words: np.ndarray) -> np.ndarray:
    """The defined points of packed words: bit 4(x−1) is set iff point x
    has an image, and no other bit is."""
    defined = words | words >> np.uint64(2)
    defined |= defined >> _ONE
    return defined & _NIBBLE_LOW


def _nibble_bits(bits: np.ndarray) -> np.ndarray:
    """How many bits each word sets, for words that set only bit 0 of
    nibbles: the product's top nibble sums all 16 nibbles, and no sum of
    at most 15 of them carries out of its nibble."""
    return (bits * _NIBBLE_LOW) >> np.uint64(60)


def _lowest(mask: np.ndarray) -> np.ndarray:
    """x − 1, the nibbles below it, for the smallest point x whose bit
    4(x−1) a mask of nibble-low bits sets.  An empty mask reads 0, as one
    whose smallest point is 1 does, so it must not be read."""
    return _nibble_bits((mask - _ONE) & ~mask & _NIBBLE_LOW)


def _image_at(words: np.ndarray, below: np.ndarray) -> np.ndarray:
    """The image of point ``below`` + 1 in each packed word, as u64."""
    return words >> (below << np.uint64(2)) & np.uint64(15)


def _sum_tables(n: int) -> np.ndarray:
    """Tables for ``_write_codes``: row p, entry b is the share of byte b,
    at byte p of a packed word, in the word's code.  Bytes from (n+1)//2
    on hold no point and get no row."""
    byte = np.arange(256)
    weights = np.zeros(16, dtype=np.int64)
    weights[:n] = code_powers(n)
    tables = (byte & 15) * weights[0::2, None] + (byte >> 4) * weights[1::2, None]
    return tables[:(n + 1) // 2]


def _write_codes(tables: np.ndarray, words: np.ndarray,
                 out: np.ndarray) -> np.ndarray:
    """The codes of packed words, Σ_p tables[p][byte p] over ``_sum_tables``,
    written into the int64 array ``out``, which may be the words' own
    memory, ``_PIECE`` words at a time: pieces of 2^20 words took twice as
    long over 3.7 M words, and their temporaries left close-g11's peak RSS
    5 MB higher."""
    data = words.view(np.uint8).reshape(-1, 8)
    for lo in range(0, len(words), _PIECE):
        hi = lo + _PIECE
        sums = tables[0].take(data[lo:hi, 0])
        for p in range(1, len(tables)):
            sums += tables[p].take(data[lo:hi, p])
        out[lo:hi] = sums
    return out
