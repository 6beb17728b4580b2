"""Executable decompositions: parity reduction and convex-domain extension.

Parity reduction strips parity-changing points off an element one at a time.
If x ∈ dom δ is odd with xδ even, then xδ±1 are outside im δ (x is minimal,
so nothing below it maps below xδ), hence δ = (δ·β_{xδ}^even)·β_{xδ}^odd and
the inner factor has strictly fewer parity-changing points.  Symmetrically,
if x is even then x±1 are outside dom δ and δ = β_x^even·(β_x^odd·δ).
Iterating yields δ = l_1⋯l_p · core · r_1⋯r_p with every l/r factor either
id_{n̄} or a β-family element and the core parity-preserving.

Convex extension grows a convex-domain element of rank ≤ n−3 by one point:
pick w with w−1, w, w+1 all outside dom δ and x likewise outside im δ (both
exist because the complement of an interval of length ≤ n−3 inside {0..n+1}
contains a run of three points centred in {1..n}); then δ ∪ {w↦x} is again
a partial automorphism and id_{n̄∖{w}} · (δ ∪ {w↦x}) = δ.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

from .fence import (
    PartialInjection,
    UNDEF,
    compose,
    is_convex,
    is_partial_automorphism,
    restrict_identity,
)
from .generators import beta_even, beta_odd, parity_points

IDENTITY_LABEL = "id"


@cache
def _identity(n: int) -> PartialInjection:
    """id_{n̄}, one shared value per n (n is an already validated size)."""
    return PartialInjection.identity(n)


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

    def to_json(self) -> dict:
        from .fence import format_map

        return {
            "n": self.core.n,
            "target": format_map(self.target),
            "left": [
                {"label": lab, "map_text": format_map(f)}
                for lab, f in zip(self.left_labels, self.left)
            ],
            "core": format_map(self.core),
            "right": [
                {"label": lab, "map_text": format_map(f)}
                for lab, f in zip(self.right_labels, self.right)
            ],
            "recomposition_ok": self.recompose() == self.target,
        }


def parity_reduce(delta: PartialInjection) -> ParityDecomposition:
    """Peel parity-changing points off δ, smallest domain point first.

    Each step removes at least the chosen point from the parity-changing
    set; the step count is bounded by |dom δ|.  A step that fails to shrink
    the set indicates a corrupted input (not a partial automorphism) and
    raises RuntimeError.
    """
    n = delta.n
    ident = _identity(n)
    left: list[PartialInjection] = []
    right: list[PartialInjection] = []
    left_labels: list[str] = []
    right_labels: list[str] = []
    core = delta
    points = parity_points(core)
    while points:
        x = points[0]
        if x % 2 == 1:
            i = core.images[x - 1]  # even image of an odd point
            left.append(ident)
            left_labels.append(IDENTITY_LABEL)
            right.insert(0, beta_odd(n, i))
            right_labels.insert(0, f"beta_{i}_odd")
            core = compose(core, beta_even(n, i))
        else:
            left.append(beta_even(n, x))
            left_labels.append(f"beta_{x}_even")
            right.insert(0, ident)
            right_labels.insert(0, IDENTITY_LABEL)
            core = compose(beta_odd(n, x), core)
        remaining = parity_points(core)
        if len(remaining) >= len(points):
            raise RuntimeError(
                f"parity reduction failed to shrink at point {x}: "
                f"{len(points)} -> {len(remaining)} changing points")
        points = remaining
    return ParityDecomposition(
        delta, tuple(left), core, tuple(right),
        tuple(left_labels), tuple(right_labels))


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

    def to_json(self) -> dict:
        from .fence import format_map

        return {
            "n": self.extended.n,
            "target": format_map(self.target),
            "dropper": format_map(self.dropper),
            "extended": format_map(self.extended),
            "w": self.w,
            "x": self.x,
            "recomposition_ok": self.recompose() == self.target,
        }


def convex_extend(delta: PartialInjection) -> ConvexExtension:
    """Extend a convex-domain element of rank ≤ n−3 by one isolated point.

    Chooses the smallest legal w, then the smallest legal x; determinism
    matters for reproducible witnesses, existence is guaranteed by the rank
    bound.
    """
    n = delta.n
    dom = delta.domain
    if not is_convex(dom):
        raise ValueError(f"domain {dom} is not convex")
    if delta.rank > n - 3:
        raise ValueError(
            f"rank {delta.rank} exceeds n-3 = {n - 3}; no room to extend")
    dom_set = set(dom)
    im_set = set(delta.image_set)
    w = next(w for w in range(1, n + 1)
             if not {w - 1, w, w + 1} & dom_set)
    x = next(x for x in range(1, n + 1)
             if not {x - 1, x, x + 1} & im_set)
    images = list(delta.images)
    images[w - 1] = x
    extended = PartialInjection(n, tuple(images))
    if not is_partial_automorphism(extended):
        raise RuntimeError(
            f"extension by {w}->{x} left the automorphism class; "
            f"input was likely not a partial automorphism")
    dropper = restrict_identity(n, (p for p in range(1, n + 1) if p != w))
    return ConvexExtension(delta, dropper, extended, w, x)
