"""Invariant sectors of the trilinear interaction.

The coupling adag_h a_w a_c + h.c. conserves N = n_h + n_w and
M = n_h + n_c, so the three-mode Fock space splits into finite sectors
labelled by (N, M) with basis states |k, N-k, M-k> for k = 0..min(N, M).
This module enumerates sector bases and selects which sectors to retain for
a given product initial state, greedily by weight until a target total
weight 1 - epsilon is reached; the retained labels are one (S, 2) array.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import DomainError, TruncationError
from .states import DEFAULT_CUTOFF, PhononDistribution, _is_count

#: Sector weights below this floor are dropped regardless of epsilon.
WEIGHT_FLOOR = 1e-15


def enumerate_sector(N: int, M: int) -> tuple[tuple[int, int, int], ...]:
    """Basis states (k, N-k, M-k) of sector (N, M), ordered by ascending n_h."""
    if N < 0 or M < 0:
        raise DomainError("sector labels must be non-negative")
    return tuple((k, N - k, M - k) for k in range(min(N, M) + 1))


@dataclass(frozen=True)
class TruncationPolicy:
    """How much joint weight to retain and optional hard per-mode caps (integers)."""

    epsilon: float = 1e-4
    n_max_h: int | None = None
    n_max_w: int | None = None
    n_max_c: int | None = None

    def __post_init__(self):
        if not 0.0 < self.epsilon < 1.0:
            raise DomainError("epsilon must be in (0, 1)")
        for cap in (self.n_max_h, self.n_max_w, self.n_max_c):
            if cap is not None and not (_is_count(cap) and 0 <= cap <= DEFAULT_CUTOFF):
                raise DomainError(f"caps must be integers >= 0 and <= DEFAULT_CUTOFF = "
                                  f"{DEFAULT_CUTOFF}, got {cap!r}")

    def caps(self) -> tuple[int | None, int | None, int | None]:
        return (self.n_max_h, self.n_max_w, self.n_max_c)


@dataclass(frozen=True, eq=False)
class SectorSelection:
    """Retained sectors in selection (descending-weight) order.

    ``labels`` is an (S, 2) integer array of (N, M) rows; ``weights[s]`` is
    the joint weight of sector ``labels[s]``.
    """

    labels: np.ndarray
    weights: np.ndarray
    retained_weight: float
    discarded_weight: float


def _windows(p: np.ndarray, width: int) -> np.ndarray:
    """W[n, k] = p[n - k] (0 off the ladder) for n < p.size + width - 1, k < width."""
    padded = np.concatenate((np.zeros(width - 1), p, np.zeros(width - 1)))
    return sliding_window_view(padded, width)[:, ::-1]


def select_sectors(p_h: PhononDistribution, p_w: PhononDistribution,
                   p_c: PhononDistribution, policy: TruncationPolicy) -> SectorSelection:
    """Greedy sector selection for a product initial state.

    The joint weight of sector (N, M) is
    sum_k p_h(k) p_w(N-k) p_c(M-k).  Sectors are taken in descending weight
    order (ties broken lexicographically by (N, M)) until the running total
    reaches 1 - epsilon; weights below the 1e-15 floor are never retained.
    """
    for dist in (p_h, p_w, p_c):
        if abs(dist.p.sum() - 1.0) > 1e-9:
            raise DomainError("input distributions must be normalized")

    # grid[N, M] = sum_k p_h(k) p_w(N - k) p_c(M - k) over hot levels at or
    # above the floor (the ladder cut after the last), one product of the
    # two ladders' sliding windows
    kept = p_h.p >= WEIGHT_FLOOR
    ph = np.where(kept, p_h.p, 0.0)[:np.flatnonzero(kept)[-1] + 1]
    grid = (_windows(p_w.p, ph.size) * ph) @ _windows(p_c.p, ph.size).T

    n_idx, m_idx = np.nonzero(grid >= WEIGHT_FLOOR)
    weights = grid[n_idx, m_idx]
    # primary key: descending weight; ties: ascending (N, M)
    order = np.lexsort((m_idx, n_idx, -weights))
    weights = weights[order]
    n_idx, m_idx = n_idx[order], m_idx[order]

    target = 1.0 - policy.epsilon
    cum = np.cumsum(weights)
    total = cum[-1] if cum.size else 0.0
    if total < target:
        raise TruncationError(
            f"retainable weight {total:.12f} cannot reach 1 - epsilon = {target:.12f}"
        )
    keep = int(np.searchsorted(cum, target) + 1)
    keep = min(keep, weights.size)

    retained = float(cum[keep - 1])
    return SectorSelection(
        labels=np.column_stack((n_idx[:keep], m_idx[:keep])),
        weights=weights[:keep].copy(),
        retained_weight=retained,
        discarded_weight=float(1.0 - retained),
    )
