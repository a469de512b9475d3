"""Exact dynamics of the trilinear three-mode interaction.

Within each invariant sector (N, M) the Hamiltonian over hbar is the real
symmetric tridiagonal matrix

    (H/hbar)[k, k+1] = xi sqrt((k+1)(N-k)(M-k)),   (H/hbar)[k, k] = detuning * k,

acting on |k, N-k, M-k>.  :class:`EnsembleSpectrum` eigendecomposes these
small matrices once per ensemble, and every result is a view of that
spectrum: unitary populations on a time grid, the infinite-time (dephased)
average, and an incoherent double-commutator model in which the coherence
(i, j) decays as exp(-xi_in (w_i - w_j)^2 t).

Off-diagonal couplings are strictly positive inside a sector, so each
sector Hamiltonian is an unreduced Jacobi matrix with a simple spectrum;
dephasing in the eigenbasis therefore equals the long-time average exactly.

Product initial states whose hot and cold factors are diagonal in the
number basis carry no within-sector coherences, and cross-sector
coherences never influence number observables, so ensembles here hold
populations only (one real populations vector per sector).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.linalg import eigh_tridiagonal

from .errors import DomainError
from .fockspace import SectorLabel, SectorSelection, TruncationPolicy, select_sectors
# re-exported: perfbench/workloads.py imports the oracle from this module
from .oracle import dense_oracle_evolve  # noqa: F401
from .states import (DEFAULT_CUTOFF, ModePrep, PhononDistribution,
                     prep_to_distribution)


@dataclass(frozen=True, eq=False)
class SectorHamiltonian:
    """Tridiagonal sector Hamiltonian in angular-frequency units (H/hbar).

    Row ``i`` is the Fock component with ``n_h = k_lo + i``; ``k_lo > 0``
    occurs only when hard per-mode caps window the sector.
    """

    label: SectorLabel
    diag: np.ndarray      # rad/s, length dim
    offdiag: np.ndarray   # rad/s, length dim-1
    k_lo: int = 0

    @property
    def dim(self) -> int:
        return self.diag.size


def build_sector_hamiltonian(label: SectorLabel, xi: float,
                             detuning: float = 0.0,
                             window: tuple[int, int] | None = None) -> SectorHamiltonian:
    """Sector Hamiltonian, optionally windowed to ``k_lo <= n_h <= k_hi``.

    A window arises from hard per-mode caps: the capped model space keeps
    only the sector rows inside the box, exactly like a ladder-truncated
    full-space Hamiltonian would.
    """
    if xi < 0.0:
        raise DomainError("xi must be >= 0")
    k_lo, k_hi = window if window is not None else (0, min(label.N, label.M))
    if not 0 <= k_lo <= k_hi <= min(label.N, label.M):
        raise DomainError(f"invalid sector window {(k_lo, k_hi)}")
    k = np.arange(k_lo, k_hi + 1)
    diag = detuning * k.astype(float)
    kk = k[:-1]
    offdiag = xi * np.sqrt((kk + 1.0) * (label.N - kk) * (label.M - kk))
    return SectorHamiltonian(label=label, diag=diag, offdiag=offdiag, k_lo=k_lo)


@dataclass(eq=False)
class SectorState:
    """One sector's weight and normalized populations (Fock-index basis).

    Entry ``i`` of ``pops`` is the population of ``n_h = k_lo + i``.
    """

    label: SectorLabel
    weight: float
    pops: np.ndarray
    k_lo: int = 0

    @property
    def window(self) -> tuple[int, int]:
        return self.k_lo, self.k_lo + self.pops.size - 1


@dataclass(eq=False)
class ThreeModeEnsemble:
    """Weighted collection of sector states plus the dynamics parameters."""

    sectors: list[SectorState]
    discarded_weight: float
    xi: float
    detuning: float = 0.0

    @property
    def retained_weight(self) -> float:
        return float(sum(s.weight for s in self.sectors))


# ---------------------------------------------------------------------------
# Assembly
# ---------------------------------------------------------------------------


def assemble_from_distributions(dists: tuple[PhononDistribution, PhononDistribution,
                                             PhononDistribution],
                                policy: TruncationPolicy, xi: float,
                                detuning: float = 0.0,
                                selection: SectorSelection | None = None) -> ThreeModeEnsemble:
    """Build a sector ensemble from explicit per-mode number distributions.

    Hard per-mode caps in the policy window each sector to its in-box rows,
    so capped runs evolve exactly the finite-box model (matching a dense
    reference with the same caps).  Without caps the full sector is kept.
    """
    p_h, p_w, p_c = dists
    if selection is None:
        selection = select_sectors(p_h, p_w, p_c, policy)
    caps = policy.caps()
    sectors: list[SectorState] = []
    for label, weight in zip(selection.labels, selection.weights):
        k_lo, k_hi = _sector_window(label, caps)
        k = np.arange(k_lo, k_hi + 1)
        joint = (_padded(p_h.p, k) * _padded(p_w.p, label.N - k)
                 * _padded(p_c.p, label.M - k))
        total = joint.sum()
        if total <= 0.0:   # pragma: no cover - selection guarantees weight > 0
            continue
        sectors.append(SectorState(label=label, weight=float(weight),
                                   pops=joint / total, k_lo=k_lo))
    return ThreeModeEnsemble(sectors=sectors,
                             discarded_weight=selection.discarded_weight,
                             xi=xi, detuning=detuning)


def _sector_window(label: SectorLabel, caps) -> tuple[int, int]:
    """In-box n_h range of a sector under optional per-mode caps."""
    cap_h, cap_w, cap_c = caps
    k_lo, k_hi = 0, min(label.N, label.M)
    if cap_h is not None:
        k_hi = min(k_hi, cap_h)
    if cap_w is not None:
        k_lo = max(k_lo, label.N - cap_w)
    if cap_c is not None:
        k_lo = max(k_lo, label.M - cap_c)
    return k_lo, k_hi


def _padded(p: np.ndarray, idx: np.ndarray) -> np.ndarray:
    out = np.zeros(idx.shape)
    ok = idx < p.size
    out[ok] = p[idx[ok]]
    return out


def assemble_initial(preps: tuple[ModePrep, ModePrep, ModePrep],
                     policy: TruncationPolicy, xi: float,
                     detuning: float = 0.0) -> ThreeModeEnsemble:
    """Build the initial ensemble for (hot, work, cold) preparations.

    Per-mode cutoffs default to 300 and are overridden by the policy's hard
    caps; with a hard cap the truncated tail is intentional, so the tail
    budget is waived (the tail mass is still recorded on the distribution).
    """
    dists = []
    for prep, cap in zip(preps, policy.caps()):
        if cap is None:
            dists.append(prep_to_distribution(prep, cutoff=DEFAULT_CUTOFF))
        else:
            dists.append(prep_to_distribution(prep, cutoff=cap, tail_budget=1.0))
    return assemble_from_distributions(tuple(dists), policy, xi, detuning)


# ---------------------------------------------------------------------------
# Spectral machinery
# ---------------------------------------------------------------------------


class PhononMoments(NamedTuple):
    """Mean occupations and per-mode marginal number distributions."""

    nbar_h: float
    nbar_w: float
    nbar_c: float
    marginals: tuple[np.ndarray, np.ndarray, np.ndarray]


def mean_phonons(ensemble: ThreeModeEnsemble) -> PhononMoments:
    """Weighted means and marginals over all retained sectors.

    Marginals sum to the retained weight (not to 1) so that truncation stays
    visible; normalize before feeding them to detection models.
    """
    return _moments(ensemble, (s.pops for s in ensemble.sectors))


def _moments(ensemble, pops_iter) -> PhononMoments:
    """Moments of one populations vector per sector (in selection order)."""
    margs = _accumulate_marginals(ensemble, (p[:, None] for p in pops_iter), n_times=1)
    return PhononMoments(*map(float, _means_from_marginals(margs)[:, 0]),
                         marginals=tuple(m[:, 0] for m in margs))


def _accumulate_marginals(ensemble, pops_iter, n_times):
    nh_max = max((min(s.label.N, s.label.M) for s in ensemble.sectors), default=0)
    nw_max = max((s.label.N for s in ensemble.sectors), default=0)
    nc_max = max((s.label.M for s in ensemble.sectors), default=0)
    p_h = np.zeros((nh_max + 1, n_times))
    p_w = np.zeros((nw_max + 1, n_times))
    p_c = np.zeros((nc_max + 1, n_times))
    for state, pops in zip(ensemble.sectors, pops_iter):
        k = state.k_lo + np.arange(pops.shape[0])
        w_pops = state.weight * pops
        p_h[k] += w_pops
        p_w[state.label.N - k] += w_pops
        p_c[state.label.M - k] += w_pops
    return p_h, p_w, p_c


def _means_from_marginals(margs) -> np.ndarray:
    return np.array([np.arange(marg.shape[0]) @ marg for marg in margs])


def _unitary_kernel(t_grid: np.ndarray, gaps: np.ndarray) -> np.ndarray:
    return np.cos(np.outer(t_grid, gaps))


class EnsembleSpectrum:
    """Per-sector eigendecomposition of an ensemble, the one spectral core.

    ``eig[i]`` holds sector ``i``'s eigenvalues ``lam``, eigenvectors ``vec``
    (columns) and its initial populations rotated to the eigenbasis,
    ``b = vec.T diag(pops) vec`` (real).  Time grids, the dephased state and
    the incoherent model are all evaluated from these triples, vectorized
    per sector; reductions run in fixed (selection) order, so results do not
    depend on scheduling.
    """

    def __init__(self, ensemble: ThreeModeEnsemble):
        self.ensemble = ensemble
        self.eig: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []
        for state in ensemble.sectors:
            ham = build_sector_hamiltonian(state.label, ensemble.xi, ensemble.detuning,
                                           window=state.window)
            if ham.dim == 1:
                lam, vec = ham.diag.copy(), np.ones((1, 1))
            else:
                lam, vec = eigh_tridiagonal(ham.diag, ham.offdiag)
            self.eig.append((lam, vec, (vec.T * state.pops) @ vec))

    def _populations(self, t_grid: np.ndarray, kernel):
        """Per-sector populations P[k, t] on a time grid, in selection order.

        P[k, t] = sum_ij vec[k, i] vec[k, j] b[i, j] kernel(t, w_i - w_j), with
        ``kernel(t_grid, gaps)`` returning the (len(t_grid), len(gaps)) factors.
        """
        for lam, vec, b in self.eig:
            d = lam.size
            if d == 1:
                yield np.ones((1, t_grid.size))
                continue
            gaps = (lam[:, None] - lam[None, :]).reshape(-1)
            w3 = ((vec[:, :, None] * vec[:, None, :]) * b[None, :, :]).reshape(d, d * d)
            yield (kernel(t_grid, gaps) @ w3.T).T

    def marginals_at(self, t_grid: np.ndarray):
        """Unitary per-mode marginals, each of shape (n_max + 1, len(t_grid))."""
        t_grid = np.asarray(t_grid, dtype=float)
        return _accumulate_marginals(self.ensemble,
                                     self._populations(t_grid, _unitary_kernel),
                                     t_grid.size)

    def means_at(self, t_grid: np.ndarray) -> np.ndarray:
        """Mean occupations, shape (3, len(t_grid))."""
        return _means_from_marginals(self.marginals_at(t_grid))

    def incoherent_means_at(self, t_grid: np.ndarray, xi_in: float) -> np.ndarray:
        """Means under the double-commutator model d rho/dt = -xi_in [H, [H, rho]].

        ``xi_in`` has units of time (the commutators are taken with H/hbar);
        coherence (i, j) decays at rate xi_in (w_i - w_j)^2.
        """
        t_grid = np.asarray(t_grid, dtype=float)
        if not xi_in >= 0.0 or not np.all(t_grid >= 0.0):
            raise DomainError("xi_in and every time must be >= 0")

        def kernel(t, gaps):
            return np.exp(-xi_in * np.outer(t, gaps ** 2))

        return _means_from_marginals(_accumulate_marginals(
            self.ensemble, self._populations(t_grid, kernel), t_grid.size))

    def dephased_moments(self) -> PhononMoments:
        """Moments of the infinite-time average (exact for simple spectra)."""
        return _moments(self.ensemble, ((vec ** 2) @ np.diag(b) for _, vec, b in self.eig))

    def min_eigenvalue_gap(self) -> float:
        """Smallest nonzero eigenvalue gap across sectors with dim > 1 (rad/s)."""
        gaps = (np.diff(np.sort(lam)) for lam, _, _ in self.eig)
        return min((float(g[g > 0.0].min(initial=np.inf)) for g in gaps), default=np.inf)


def default_incoherence_strength(spectrum: EnsembleSpectrum) -> float:
    """xi_in making the slowest sector coherence decay with time constant 5/xi.

    The slowest coherence decays at xi_in * g_min^2 where g_min is the
    smallest nonzero eigenvalue gap in the ensemble.  Returns 0 when no
    sector carries coherences (all dims are 1).
    """
    xi = spectrum.ensemble.xi
    if xi <= 0.0:
        raise DomainError("xi must be > 0 to set a default incoherence strength")
    g_min = spectrum.min_eigenvalue_gap()
    if not np.isfinite(g_min):
        return 0.0
    return xi / (5.0 * g_min ** 2)
