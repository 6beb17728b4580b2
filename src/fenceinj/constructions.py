"""Executable decompositions: parity reduction and convex-domain extension.

Parity reduction strips parity-changing points off an element one at a time.
If x ∈ dom δ is odd with xδ even, then xδ±1 are outside im δ (x is minimal,
so nothing below it maps below xδ), hence δ = (δ·β_{xδ}^even)·β_{xδ}^odd and
the inner factor has strictly fewer parity-changing points.  Symmetrically,
if x is even then x±1 are outside dom δ and δ = β_x^even·(β_x^odd·δ).
Iterating yields δ = l_1⋯l_p · core · r_1⋯r_p with every l/r factor either
id_{n̄} or a β-family element and the core parity-preserving.

The reduction runs as one batch kernel over an m × n uint8 image matrix
(``_reduce_rows``): each pass takes every live row's smallest parity-changing
point x and applies core·β_i^even (x odd, i = xδ) as a gather through the
table of β^even image rows, or β_x^odd·core (x even) as a gather of the
row's own columns.  A pass records one signed int8 step per row: +i for an
odd step, −x for an even one, 0 once the row is parity-preserving.
``_recompose_rows`` multiplies the recorded β_i^odd / β_x^even factors back
on with the same two gathers.  ``parity_reduce`` is this kernel run on one
row, its steps spelled out as factors and labels.

Convex extension grows a convex-domain element of rank ≤ n−3 by one point:
pick w with w−1, w, w+1 all outside dom δ and x likewise outside im δ (both
exist because the complement of an interval of length ≤ n−3 inside {0..n+1}
contains a run of three points centred in {1..n}); then δ ∪ {w↦x} is again
a partial automorphism and id_{n̄∖{w}} · (δ ∪ {w↦x}) = δ.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

import numpy as np

from .fence import (
    PartialInjection,
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
    with 0 for an undefined point; row 0 is the identity (0, 1, …, n), so a
    step 0 gathers a row unchanged, and the rows of odd i > 0 are all 0.

    For a padded row r = (0, images…), r·β is ``table[i][r]`` and β·r is
    ``r[table[i]]``.  The tables are read-only: every caller shares them.
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


def _parity_mask(images: np.ndarray) -> np.ndarray:
    """Entry [r, x−1] is True iff point x of image row r is parity-changing:
    y = xδ > 0 and x − y odd, i.e. the low bit of x ^ y is set."""
    points = np.arange(1, images.shape[1] + 1, dtype=np.uint8)
    return ((images ^ points) & 1).view(bool) & (images != 0)


def _padded(images: np.ndarray) -> np.ndarray:
    """The rows behind a leading 0 column, the form the β tables gather."""
    rows = np.zeros((len(images), images.shape[1] + 1), dtype=np.uint8)
    rows[:, 1:] = images
    return rows


def _multiply(rows: np.ndarray, step: np.ndarray, left: np.ndarray,
              right: np.ndarray) -> np.ndarray:
    """Each padded row r becomes r·right[s] for a step s > 0 and left[−s]·r
    for a step s < 0; row 0 of both tables is the identity, so the other
    gather, and both at s = 0, leave the row unchanged.  Both are flat 1-D
    gathers with a narrow index: entry s(n+1) + y ≤ 239 of the raveled table
    (uint8), and the row's own columns in the raveled rows."""
    m, width = rows.shape
    rows = right.ravel()[
        (np.maximum(step, 0).astype(np.uint8) * np.uint8(width))[:, None] + rows]
    starts = np.arange(0, m * width, width, dtype=np.min_scalar_type(m * width))
    return rows.ravel()[left[np.maximum(-step, 0)] + starts[:, None]]


def _reduce_rows(images: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Parity-reduce every row of an m × n uint8 image matrix at once.

    Returns the parity-preserving cores (m × n uint8) and the steps
    (m × p int8, p the largest step count): +i where core ← core·β_i^even,
    −x where core ← β_x^odd·core, 0 after a row's last step.  A pass that
    fails to shrink a live row's parity-changing set raises RuntimeError.
    With the β tables of ``_beta_rows`` every step removes the chosen point
    and moves no other point across parity, so the check guards the tables
    and the step rule, and bounds the passes by n.
    """
    m, n = images.shape
    evens, odds = _beta_rows(n)
    core = _padded(images)
    every = np.arange(m)
    mask = _parity_mask(images)
    counts = np.count_nonzero(mask, axis=1)
    # each pass removes at least one of the ≤ n changing points of a row
    steps = np.zeros((m, n), dtype=np.int8)
    passes = 0
    while counts.any():
        live = counts > 0
        x = mask.argmax(axis=1) + 1
        # an odd x has an even image i: step +i; an even x: step −x
        step = np.where(x % 2 == 1, core[every, x], -x) * live
        core = _multiply(core, step, odds, evens)
        mask = _parity_mask(core[:, 1:])
        remaining = np.count_nonzero(mask, axis=1)
        stuck = live & (remaining >= counts)
        if stuck.any():
            r = stuck.argmax()
            raise RuntimeError(
                f"parity reduction failed to shrink at point {x[r]}: "
                f"{counts[r]} -> {remaining[r]} changing points")
        steps[:, passes] = step
        passes += 1
        counts = remaining
    return core[:, 1:], steps[:, :passes]


def _recompose_rows(cores: np.ndarray, steps: np.ndarray) -> np.ndarray:
    """Multiply the factors recorded by ``_reduce_rows`` back onto the cores,
    last step first: ·β_i^odd for a step +i, β_x^even· for a step −x."""
    evens, odds = _beta_rows(cores.shape[1])
    rows = _padded(cores)
    for step in steps.T[::-1]:
        rows = _multiply(rows, step, evens, odds)
    return rows[:, 1:]


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

    The batch kernel ``_reduce_rows`` on δ's one image row; step k becomes
    the left factor l_k and the right factor r_k, so the right factors run
    from the last step to the first.  Each step removes at least the chosen
    point from the parity-changing set; the step count is bounded by
    |dom δ|.  A step that fails to shrink the set raises RuntimeError.
    """
    n = delta.n
    ident = _identity(n)
    cores, steps = _reduce_rows(np.array([delta.images], dtype=np.uint8))
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
    core = PartialInjection(n, tuple(cores[0].tolist()))
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
