"""Exact dynamics of the trilinear three-mode interaction.

Within each invariant sector (N, M) the Hamiltonian over hbar is the real
symmetric tridiagonal matrix

    (H/hbar)[k, k+1] = xi sqrt((k+1)(N-k)(M-k)),   (H/hbar)[k, k] = detuning * k,

acting on |k, N-k, M-k>.  :class:`EnsembleSpectrum` eigendecomposes these
small matrices once per ensemble, and every result is a view of that
spectrum.  Means are one projected observable: inside sector (N, M),
n_w = N - n_h and n_c = M - n_h, so with the hot number projected onto each
eigenbasis once, all sectors flatten into one gap vector g and one
coefficient vector C, and

    <n_h>(t) = <n_h>_dephased + kernel(t, g) @ C,
    <n_w> = sum_s w_s N_s - <n_h>,   <n_c> = sum_s w_s M_s - <n_h>,

with kernel cos(g t) (unitary), exp(-xi_in g^2 t) (incoherent
double-commutator model) or none (dephased).  Per-mode marginals are built
only where a readout needs the full distributions.

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

import numpy as np
from scipy.linalg import eigh_tridiagonal

from .benchmarks import OccupationTriple
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


#: kernel elements evaluated per block of time rows (about 1 MB per block)
_KERNEL_BLOCK = 1 << 17


class EnsembleSpectrum:
    """Per-sector eigendecomposition of an ensemble, the one spectral core.

    ``eig[i]`` holds sector ``i``'s eigenvalues ``lam``, eigenvectors ``vec``
    (columns) and its initial populations rotated to the eigenbasis,
    ``b = vec.T diag(pops) vec`` (real); :meth:`marginals_at` reads them.

    For the means, with A = vec.T diag(n_h) vec and sector weight w, each
    pair i < j of each sector adds lam_j - lam_i to ``gaps`` and
    2 w b_ij A_ij to ``coef``, and ``nh_dephased`` = sum w b_ii A_ii.  Then
    <n_h>(t) = nh_dephased + kernel(t, gaps) @ coef, and <n_w>, <n_c> are
    ``sum_wN``, ``sum_wM`` minus <n_h>, because n_w = N - n_h and
    n_c = M - n_h inside sector (N, M).  Reductions run in fixed
    (selection) order, so results do not depend on scheduling.
    """

    def __init__(self, ensemble: ThreeModeEnsemble):
        self.ensemble = ensemble
        self.eig: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []
        n_pairs = sum(s.pops.size * (s.pops.size - 1) // 2 for s in ensemble.sectors)
        self.gaps = np.empty(n_pairs)
        self.coef = np.empty(n_pairs)
        self.nh_dephased = 0.0
        start = 0
        for state in ensemble.sectors:
            ham = build_sector_hamiltonian(state.label, ensemble.xi, ensemble.detuning,
                                           window=state.window)
            if ham.dim == 1:
                lam, vec = ham.diag.copy(), np.ones((1, 1))
            else:
                lam, vec = eigh_tridiagonal(ham.diag, ham.offdiag)
            b = (vec.T * state.pops) @ vec
            self.eig.append((lam, vec, b))
            n_h = state.k_lo + np.arange(lam.size)
            terms = state.weight * b * ((vec.T * n_h) @ vec)
            i, j = np.triu_indices(lam.size, 1)
            stop = start + i.size
            self.gaps[start:stop] = lam[j] - lam[i]
            self.coef[start:stop] = 2.0 * terms[i, j]
            self.nh_dephased += float(np.trace(terms))
            start = stop
        self.sum_wN = sum(s.weight * s.label.N for s in ensemble.sectors)
        self.sum_wM = sum(s.weight * s.label.M for s in ensemble.sectors)

    def _means(self, t_grid: np.ndarray, kernel=None) -> np.ndarray:
        """[n_h, sum w N - n_h, sum w M - n_h] with n_h = nh_dephased + kernel @ coef.

        ``kernel(t, gaps)`` returns the (len(t), len(gaps)) factors; it is
        evaluated in blocks of time rows of about ``_KERNEL_BLOCK`` elements.
        """
        n_h = np.full(t_grid.size, self.nh_dephased)
        if kernel is not None and self.gaps.size:
            rows = max(1, _KERNEL_BLOCK // self.gaps.size)
            for lo in range(0, t_grid.size, rows):
                n_h[lo:lo + rows] += kernel(t_grid[lo:lo + rows], self.gaps) @ self.coef
        return np.array([n_h, self.sum_wN - n_h, self.sum_wM - n_h])

    def marginals_at(self, t_grid: np.ndarray):
        """Unitary per-mode marginals, each of shape (n_max + 1, len(t_grid)).

        Sector populations are P[k, t] = sum_ij vec[k, i] vec[k, j] b[i, j]
        cos((lam_i - lam_j) t).  Marginals sum to the retained weight (not to
        1) so that truncation stays visible; normalize before feeding them to
        detection models.
        """
        t_grid = np.asarray(t_grid, dtype=float).reshape(-1)
        sectors = self.ensemble.sectors
        p_h = np.zeros((max((min(s.label.N, s.label.M) for s in sectors), default=0) + 1,
                        t_grid.size))
        p_w = np.zeros((max((s.label.N for s in sectors), default=0) + 1, t_grid.size))
        p_c = np.zeros((max((s.label.M for s in sectors), default=0) + 1, t_grid.size))
        for state, (lam, vec, b) in zip(sectors, self.eig):
            d = lam.size
            gaps = (lam[:, None] - lam[None, :]).reshape(-1)
            w3 = ((vec[:, :, None] * vec[:, None, :]) * b[None, :, :]).reshape(d, d * d)
            w_pops = state.weight * (np.cos(np.outer(t_grid, gaps)) @ w3.T).T
            k = state.k_lo + np.arange(d)
            p_h[k] += w_pops
            p_w[state.label.N - k] += w_pops
            p_c[state.label.M - k] += w_pops
        return p_h, p_w, p_c

    def means_at(self, t_grid: np.ndarray) -> np.ndarray:
        """Mean occupations (not normalized by the retained weight), shape (3, len(t_grid))."""
        return self._means(np.asarray(t_grid, dtype=float).reshape(-1),
                           lambda t, g: np.cos(np.outer(t, g)))

    def incoherent_means_at(self, t_grid: np.ndarray, xi_in: float) -> np.ndarray:
        """Means under the double-commutator model d rho/dt = -xi_in [H, [H, rho]].

        ``xi_in`` has units of time (the commutators are taken with H/hbar);
        coherence (i, j) decays at rate xi_in (w_i - w_j)^2.
        """
        t_grid = np.asarray(t_grid, dtype=float).reshape(-1)
        if not xi_in >= 0.0 or not np.all(t_grid >= 0.0):
            raise DomainError("xi_in and every time must be >= 0")
        return self._means(t_grid, lambda t, g: np.exp(-xi_in * np.outer(t, g * g)))

    def dephased_moments(self) -> OccupationTriple:
        """Means of the infinite-time average (exact for simple spectra)."""
        return OccupationTriple(*map(float, self._means(np.zeros(1))[:, 0]))

    def min_eigenvalue_gap(self) -> float:
        """Smallest nonzero eigenvalue gap across sectors with dim > 1 (rad/s)."""
        return float(self.gaps[self.gaps > 0.0].min(initial=np.inf))


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
