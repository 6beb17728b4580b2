"""Named transformation families of FI_n and the generating sets G_n, J_n.

The families, all partial automorphisms of the odd fence:

  γ_n        the reflection x ↦ n−x+1, the unique non-identity automorphism
  α_i        even i: fix 1..i−1, drop i, map k ↦ n+i+1−k for k > i
             (the tail i+1..n reversed onto n..i+1);
             odd i: the partial identity id_{n̄∖{i}}
  α_{i,j}     i < j of equal parity: fix 1..i−1, drop i, reverse the interior
             k ↦ i+j−k for i < k < j, drop j, fix j+1..n
  β_i^odd    even i: 1 ↦ i, 2 undefined, k ↦ k−2 for 3 ≤ k ≤ i, i+1
             undefined, fix i+2..n
  β_i^even   even i: k ↦ k+2 for k ≤ i−2, i−1 undefined, i ↦ 1, i+1
             undefined, fix i+2..n

G_n is the distinguished generating set of minimal size; J_n is the set of
all elements of rank ≥ n−2, labeled here by canonical code.

``gamma``, ``alpha``, ``alpha_pair``, ``beta_odd`` and ``beta_even`` are
memoized: each is a pure function of small integers, so every call with the
same arguments returns one shared, immutable ``PartialInjection``.  The memo
is keyed on the argument types as well as their values, and exceptions are
not memoized, so a bad argument such as ``gamma(3.0)`` raises on every call.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path
from typing import Iterable, Iterator

from .fence import (
    PartialInjection,
    UNDEF,
    check_fence_size,
    decode,
    format_map,
    is_partial_automorphism,
    parse_map,
)

# at most a few hundred keys for n ≤ 15; typed, so 3.0 or True never hit
# the entry of 3 or 1 and skip validation
_memoize = lru_cache(maxsize=None, typed=True)


@_memoize
def gamma(n: int) -> PartialInjection:
    """The reflection x ↦ n−x+1 (an involution; parity-preserving for odd n)."""
    check_fence_size(n)
    return PartialInjection(n, tuple(n - x + 1 for x in range(1, n + 1)))


def alpha_even(n: int, i: int) -> PartialInjection:
    """α_i for even i: fix below i, drop i, reverse the tail above i."""
    check_fence_size(n)
    if i % 2 or not 2 <= i <= n - 1:
        raise ValueError(f"alpha_even needs even i in 2..{n - 1}, got {i}")
    images = [UNDEF] * n
    for k in range(1, i):
        images[k - 1] = k
    for k in range(i + 1, n + 1):
        images[k - 1] = n + i + 1 - k
    return PartialInjection(n, tuple(images))


def alpha_odd(n: int, i: int) -> PartialInjection:
    """α_i for odd i: the partial identity id_{n̄∖{i}}."""
    check_fence_size(n)
    if i % 2 == 0 or not 1 <= i <= n:
        raise ValueError(f"alpha_odd needs odd i in 1..{n}, got {i}")
    return PartialInjection(
        n, tuple(UNDEF if k == i else k for k in range(1, n + 1)))


@_memoize
def alpha(n: int, i: int) -> PartialInjection:
    """α_i, dispatching on the parity of i."""
    return alpha_odd(n, i) if i % 2 else alpha_even(n, i)


@_memoize
def alpha_pair(n: int, i: int, j: int) -> PartialInjection:
    """α_{i,j}: drop i and j, reverse the interior, fix the outside.

    Legal shapes require n ≥ 5, i < j of equal parity.  Even pairs are
    automatically interior (2 ≤ i, j ≤ n−1); odd pairs cover the boundary
    shapes (1,j), (j,n) and (1,n) as well, all given by the same assignment.
    """
    check_fence_size(n)
    if n < 5:
        raise ValueError(f"alpha_pair needs n >= 5, got {n}")
    if not 1 <= i < j <= n:
        raise ValueError(f"alpha_pair needs 1 <= i < j <= {n}, got ({i},{j})")
    if (i - j) % 2:
        raise ValueError(f"alpha_pair needs i, j of equal parity, got ({i},{j})")
    images = [UNDEF] * n
    for k in range(1, i):
        images[k - 1] = k
    for k in range(i + 1, j):
        images[k - 1] = i + j - k
    for k in range(j + 1, n + 1):
        images[k - 1] = k
    return PartialInjection(n, tuple(images))


@_memoize
def beta_odd(n: int, i: int) -> PartialInjection:
    """β_i^odd for even i; the single parity-changing point is 1 ↦ i.  The
    boundary shapes i = 2 and i = n−1 are given by the same assignment."""
    check_fence_size(n)
    if i % 2 or not 2 <= i <= n - 1:
        raise ValueError(f"beta_odd needs even i in 2..{n - 1}, got {i}")
    images = [UNDEF] * n
    images[0] = i
    for k in range(3, i + 1):
        images[k - 1] = k - 2
    for k in range(i + 2, n + 1):
        images[k - 1] = k
    return PartialInjection(n, tuple(images))


@_memoize
def beta_even(n: int, i: int) -> PartialInjection:
    """β_i^even for even i; the single parity-changing point is i ↦ 1.  The
    boundary shapes i = 2 and i = n−1 are given by the same assignment."""
    check_fence_size(n)
    if i % 2 or not 2 <= i <= n - 1:
        raise ValueError(f"beta_even needs even i in 2..{n - 1}, got {i}")
    images = [UNDEF] * n
    for k in range(1, i - 1):
        images[k - 1] = k + 2
    images[i - 1] = 1
    for k in range(i + 2, n + 1):
        images[k - 1] = k
    return PartialInjection(n, tuple(images))


@dataclass(frozen=True)
class GeneratorSet:
    """An ordered, uniquely labeled collection of partial automorphisms."""

    n: int
    entries: tuple[tuple[str, PartialInjection], ...]

    def __post_init__(self) -> None:
        check_fence_size(self.n)
        if not isinstance(self.entries, tuple):
            object.__setattr__(self, "entries", tuple(self.entries))
        seen = set()
        for label, element in self.entries:
            if label in seen:
                raise ValueError(f"duplicate generator label {label!r}")
            seen.add(label)
            if element.n != self.n:
                raise ValueError(
                    f"generator {label!r} has n={element.n}, expected {self.n}")
            if not is_partial_automorphism(element):
                raise ValueError(f"generator {label!r} is not a partial automorphism")

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self) -> Iterator[tuple[str, PartialInjection]]:
        return iter(self.entries)

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(label for label, _ in self.entries)

    def mapping(self) -> dict[str, PartialInjection]:
        return dict(self.entries)

    def without(self, *labels: str) -> GeneratorSet:
        drop = set(labels)
        missing = drop - set(self.labels)
        if missing:
            raise KeyError(f"labels not present: {sorted(missing)}")
        return GeneratorSet(
            self.n, tuple(e for e in self.entries if e[0] not in drop))

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "entries": [
                {"label": label, "map_text": format_map(element)}
                for label, element in self.entries
            ],
        }

    @classmethod
    def from_codes(cls, n: int, codes: Iterable[int]) -> GeneratorSet:
        """The elements with these canonical codes, each labeled by its code
        in decimal; MapFormatError for a code that is not a partial
        injection."""
        return cls(n, tuple((str(c), decode(n, c)) for c in codes))

    @classmethod
    def from_json(cls, doc: object) -> GeneratorSet:
        """The set ``to_json`` describes; raises ValueError on any other shape."""
        if not (isinstance(doc, dict) and type(doc.get("n")) is int
                and isinstance(doc.get("entries"), list)):
            raise ValueError('a generator set must be a JSON object with an '
                             'integer "n" and a list "entries"')
        entries = []
        for e in doc["entries"]:
            if not (isinstance(e, dict) and isinstance(e.get("label"), str)
                    and isinstance(e.get("map_text"), str)):
                raise ValueError('each generator entry must be a JSON object '
                                 'with string "label" and "map_text"')
            entries.append((e["label"], parse_map(doc["n"], e["map_text"])))
        return cls(doc["n"], tuple(entries))

    def save(self, path: str | Path) -> None:
        Path(path).write_text(json.dumps(self.to_json(), indent=2) + "\n")

    @classmethod
    def load(cls, path: str | Path) -> GeneratorSet:
        return cls.from_json(json.loads(Path(path).read_text()))


def build_G(n: int) -> GeneratorSet:
    """The distinguished generating set G_n (n odd, ≥ 3).

    G_3 = {γ_3, α_1, α_2, β_2^odd, β_2^even}.  For n ≥ 5: γ_n; α_i for odd
    i ≤ (n+1)/2; α_i for even i ∈ {2,…,n−3}; β_i^odd and β_i^even for even
    i ≤ (n+1)/2; and α_{i,j} for odd i, j with 4 ≤ j−i < n−1 and i ≤ n−j+1.
    """
    check_fence_size(n)
    if n < 3:
        raise ValueError(f"build_G needs n >= 3, got {n}")
    entries: list[tuple[str, PartialInjection]] = [("gamma", gamma(n))]
    if n == 3:
        entries += [
            ("alpha_1", alpha(3, 1)),
            ("alpha_2", alpha(3, 2)),
            ("beta_2_odd", beta_odd(3, 2)),
            ("beta_2_even", beta_even(3, 2)),
        ]
        return GeneratorSet(3, tuple(entries))
    half = (n + 1) // 2
    for i in range(1, half + 1, 2):
        entries.append((f"alpha_{i}", alpha(n, i)))
    for i in range(2, n - 2, 2):
        entries.append((f"alpha_{i}", alpha(n, i)))
    for i in range(2, half + 1, 2):
        entries.append((f"beta_{i}_odd", beta_odd(n, i)))
        entries.append((f"beta_{i}_even", beta_even(n, i)))
    for i in range(1, n + 1, 2):
        for j in range(i + 4, n + 1, 2):
            if j - i < n - 1 and i <= n - j + 1:
                entries.append((f"alpha_{i}_{j}", alpha_pair(n, i, j)))
    return GeneratorSet(n, tuple(entries))


def build_J(n: int, universe) -> GeneratorSet:
    """J_n = all elements of rank ≥ n−2, labeled by canonical code."""
    check_fence_size(n)
    if universe.n != n:
        raise ValueError(f"universe is for n={universe.n}, expected {n}")
    return GeneratorSet.from_codes(
        n, universe.codes[universe.ranks >= n - 2].tolist())


def parity_points(f: PartialInjection) -> tuple[int, ...]:
    """Domain points x whose image has the opposite parity, ascending."""
    return tuple(x for x, y in enumerate(f.images, 1) if y and (x - y) % 2)

