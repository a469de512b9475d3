"""Exact dynamics of the trilinear three-mode interaction.

Within each invariant sector (N, M) the Hamiltonian over hbar is the real
symmetric tridiagonal matrix

    (H/hbar)[k, k+1] = xi sqrt((k+1)(N-k)(M-k)),   (H/hbar)[k, k] = detuning * k,

acting on |k, N-k, M-k>.  An ensemble is one table of retained sectors
(labels, weights, cap windows) plus one flat vector of their populations;
:class:`EnsembleSpectrum` eigendecomposes the sector matrices once per
ensemble, one batched ``eigh`` per distinct sector dimension, and every
result is a view of that spectrum.  Means are one projected observable:
inside sector (N, M), n_w = N - n_h and n_c = M - n_h, so with the hot
number projected onto each eigenbasis once, all sectors flatten into one
sorted vector of distinct gaps g (equal gaps, common in symmetric
zero-detuning spectra, merged by summing their coefficients) and one
coefficient vector C, and

    <n_h>(t) = <n_h>_dephased + kernel(t, g) @ C,
    <n_w> = sum_s w_s N_s - <n_h>,   <n_c> = sum_s w_s M_s - <n_h>,

with kernel cos(g t) (unitary), exp(-xi_in g^2 t) (incoherent
double-commutator model) or none (dephased).  Both kernels factor over a
sum of times, so a uniform grid of T points is evaluated as a tableau of
about sqrt(T) rows r plus sqrt(T) offsets s, t = r + s: the transcendentals
are taken on the rows and the offsets only, and a small matrix product
combines them.  One routine, :func:`_kernel_sums`, owns that tableau for
every time-dependent sum against a coefficient matrix: the means, the
per-mode marginals (only where a readout needs them) and the flopping sums
of :mod:`ionfridge.measurement`.

Off-diagonal couplings are strictly positive inside a sector, so each
sector Hamiltonian is an unreduced Jacobi matrix with a simple spectrum;
dephasing in the eigenbasis therefore equals the long-time average exactly.

Preparations are phase-randomized (see :class:`~ionfridge.states.ModePrep`):
every mode enters as its number-diagonal density, so the initial product
state carries no within-sector coherences, and cross-sector coherences
never influence number observables; ensembles here hold populations only
(one real populations slice per sector).  For phase-definite states this
is exact when at least one mode is number-diagonal (thermal or Fock): a
within-sector coherence between |k, N-k, M-k> and |k', N-k', M-k'> needs
coherences in all three modes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .benchmarks import OccupationTriple
from .errors import DomainError
from .fockspace import TruncationPolicy, select_sectors
# re-exported: perfbench/workloads.py imports the oracle from this module
from .oracle import dense_oracle_evolve  # noqa: F401
from .states import (DEFAULT_CUTOFF, ModePrep, PhononDistribution,
                     prep_to_distribution)


@dataclass(eq=False)
class ThreeModeEnsemble:
    """Retained sectors as one table, their populations and the dynamics parameters.

    ``sectors`` is a record array with one row per sector, in selection
    order, and fields ``N``, ``M``, ``weight``, ``k_lo``, ``dim`` and
    ``start``.  Sector ``s`` owns ``pops[start:start + dim]``, the
    normalized populations of ``n_h = k_lo .. k_lo + dim - 1``; ``k_lo > 0``
    occurs only when hard per-mode caps window the sector.
    """

    sectors: np.recarray
    pops: np.ndarray
    xi: float
    detuning: float = 0.0

    @property
    def retained_weight(self) -> float:
        return float(self.sectors.weight.sum())

    @property
    def discarded_weight(self) -> float:
        return 1.0 - self.retained_weight


# ---------------------------------------------------------------------------
# Assembly
# ---------------------------------------------------------------------------


def assemble_from_distributions(dists: tuple[PhononDistribution, PhononDistribution,
                                             PhononDistribution],
                                policy: TruncationPolicy, xi: float,
                                detuning: float = 0.0) -> ThreeModeEnsemble:
    """Build a sector ensemble from explicit per-mode number distributions.

    Hard per-mode caps in the policy window each sector to its in-box rows
    ``max(0, N - cap_w, M - cap_c) <= n_h <= min(N, M, cap_h)``, so capped
    runs evolve exactly the finite-box model (matching a dense reference with
    the same caps).  Without caps the full sector is kept.  A distribution
    longer than its cap + 1 is rejected: its mass outside the box would
    weight the sectors but never evolve.  ``xi`` must be finite and >= 0,
    and ``detuning`` finite.
    """
    if not (0.0 <= xi < math.inf and math.isfinite(detuning)):
        raise DomainError(f"xi must be finite and >= 0 and the detuning finite, "
                          f"got xi = {xi!r}, detuning = {detuning!r}")
    for dist, cap in zip(dists, policy.caps()):
        if cap is not None and dist.p.size > cap + 1:
            raise DomainError(f"a distribution over {dist.p.size} levels exceeds "
                              f"its cap n_max = {cap}")
    selection = select_sectors(*dists, policy)
    N, M = selection.labels.T
    cap_h, cap_w, cap_c = (np.inf if cap is None else cap for cap in policy.caps())
    k_lo = np.maximum(0, np.maximum(N - cap_w, M - cap_c)).astype(np.int64)
    dim = np.minimum(np.minimum(N, M), cap_h).astype(np.int64) - k_lo + 1
    start = np.cumsum(dim) - dim
    # one row per retained basis state: its sector and its n_h
    owner = np.repeat(np.arange(dim.size), dim)
    k = k_lo[owner] + np.arange(owner.size) - start[owner]
    joint = np.ones(owner.size)
    for dist, n in zip(dists, (k, N[owner] - k, M[owner] - k)):
        joint *= np.append(dist.p, 0.0)[np.minimum(n, dist.p.size)]   # 0 beyond the ladder
    sectors = np.rec.fromarrays((N, M, selection.weights, k_lo, dim, start),
                                names=("N", "M", "weight", "k_lo", "dim", "start"))
    return ThreeModeEnsemble(sectors=sectors,
                             pops=joint / np.add.reduceat(joint, start)[owner],
                             xi=xi, detuning=detuning)


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


#: kernel factor elements evaluated per block of gaps (about 1 MB per block)
_KERNEL_BLOCK = 1 << 17
#: most eigenvalue pairs, sum d(d - 1)/2 over the sectors, an ensemble may hold;
#: the shipped studies reach 1.6e5; 3.8e7 took 42 s and 1.1 GiB on a 2-vCPU x86-64 host
MAX_SECTOR_PAIRS = 10_000_000
#: gaps within this relative distance of their sorted neighbour share one
#: kernel term; the phase error is at most this times max(g t)
_GAP_MERGE_RTOL = 1e-13


def _tableau(t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rows r and offsets s with t[a * s.size + b] = r[a] + s[b], row-major.

    An ascending uniform grid, t_n = t_0 + n dt to a few ulps of max |t|,
    becomes ceil(T / B) rows of B = ceil(sqrt(T)) offsets, r_a = t_0 + a B dt
    and s_b = b dt, the last row padded past T.  Any other grid, one point
    included, is the single column (t, [0]).
    """
    if t.size > 1:
        dt = (t[-1] - t[0]) / (t.size - 1)
        drift = np.abs(t - (t[0] + dt * np.arange(t.size))).max()
        if dt >= 0.0 and drift <= 4.0 * np.spacing(np.abs(t).max()):
            cols = math.isqrt(t.size - 1) + 1
            return t[0] + dt * cols * np.arange(-(-t.size // cols)), dt * np.arange(cols)
    return t, np.zeros(1)


def _kernel_sums(t: np.ndarray, g: np.ndarray, coef: np.ndarray, even, odd=None,
                 start: float = 0.0) -> np.ndarray:
    """start + sum_j coef[j, k] K(g_j t_i), shape (t.size, coef.shape[1]).

    The kernel factors over a sum of times, K(g (r + s)) =
    even(g r) even(g s) - odd(g r) odd(g s): (cos, sin) by angle addition,
    or one exponential with ``odd`` None; ``g`` may be complex.  Over the
    :func:`_tableau` of ``t``, each block of exponents adds, for every
    column k, (even(rows g) * coef[:, k]) @ even(offsets g).T, all columns
    in one product, minus the same product of the odd factors.  The single
    offset [0], where the factors are 1 and 0, adds even(rows g) @ coef.
    Blocks keep each factor block near ``_KERNEL_BLOCK`` elements.
    """
    rows, offsets = _tableau(t)
    cols = coef.shape[1]
    sums = np.full((rows.size * cols, offsets.size), start, dtype=np.result_type(g, coef, start))
    one_column = offsets.size == 1 and offsets[0] == 0.0
    step = max(1, _KERNEL_BLOCK // (rows.size + offsets.size))
    for lo in range(0, g.size, step):
        gb, cb = g[lo:lo + step], coef[lo:lo + step]
        if one_column:
            sums[:, 0] += (even(np.outer(rows, gb)) @ cb).ravel()
            continue
        for f, sign in ((even, 1.0), (odd, -1.0)):
            if f is not None:
                scaled = (f(np.outer(rows, gb))[:, None, :] * cb.T).reshape(-1, gb.size)
                sums += sign * (scaled @ f(np.outer(offsets, gb)).T)
    sums = sums.reshape(rows.size, cols, offsets.size).transpose(0, 2, 1)
    return sums.reshape(-1, cols)[:t.size]


class EnsembleSpectrum:
    """Eigendecomposition of every sector of an ensemble, the one spectral core.

    Sectors of equal dimension d are solved together: their tridiagonal
    Hamiltonians are stacked as one (S_d, d, d) array for one
    ``np.linalg.eigh`` call, and the populations and n_h are projected onto
    the eigenbases with ``einsum``.  ``eig[i]`` holds sector ``i``'s (in
    ``ensemble.sectors`` order) eigenvalues ``lam``, eigenvectors ``vec``
    (columns) and its initial populations rotated to the eigenbasis,
    ``b = vec.T diag(pops) vec`` (real), as views of its group's arrays;
    :meth:`marginals_at` reads them.

    For the means, with A = vec.T diag(n_h) vec and sector weight w, each
    pair i < j of each sector contributes the gap lam_j - lam_i with the
    coefficient 2 w b_ij A_ij, and ``nh_dephased`` = sum w b_ii A_ii.  The
    gaps are sorted (stably) and merged: a gap within ``_GAP_MERGE_RTOL``
    (relative) of the previous one joins its bin, so ``gaps`` is strictly
    increasing, holding each bin's smallest gap, and ``coef`` holds each
    bin's summed coefficients.  Then
    <n_h>(t) = nh_dephased + kernel(t, gaps) @ coef, and <n_w>, <n_c> are
    ``sum_wN``, ``sum_wM`` minus <n_h>, because n_w = N - n_h and
    n_c = M - n_h inside sector (N, M).  Pairs and reductions run in a
    fixed order, dimension groups ascending and selection order within a
    group, so results do not depend on scheduling.
    """

    def __init__(self, ensemble: ThreeModeEnsemble):
        self.ensemble = ensemble
        sec = ensemble.sectors
        pairs = int((sec.dim * (sec.dim - 1) // 2).sum())
        if pairs > MAX_SECTOR_PAIRS:
            raise DomainError(f"the ensemble holds {pairs} eigenvalue pairs, more than "
                              f"MAX_SECTOR_PAIRS = {MAX_SECTOR_PAIRS}; lower the per-mode "
                              "caps or raise epsilon to shrink it")
        self.eig: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = [None] * sec.size
        gaps, coef = [], []
        self.nh_dephased = 0.0
        for d in np.unique(sec.dim):
            group = np.flatnonzero(sec.dim == d)
            row = np.arange(d)
            n_h = sec.k_lo[group, None] + row
            kk = n_h[:, :-1]
            ham = np.zeros((group.size, d, d))
            ham[:, row, row] = ensemble.detuning * n_h
            ham[:, row[1:], row[:-1]] = ensemble.xi * np.sqrt(
                (kk + 1.0) * (sec.N[group, None] - kk) * (sec.M[group, None] - kk))
            lam, vec = np.linalg.eigh(ham)          # reads the lower triangle
            pops = ensemble.pops[sec.start[group, None] + row]
            b = np.einsum("ski,sk,skj->sij", vec, pops, vec)
            terms = (sec.weight[group, None, None] * b
                     * np.einsum("ski,sk,skj->sij", vec, n_h, vec))
            i, j = np.triu_indices(d, 1)
            gaps.append((lam[:, j] - lam[:, i]).ravel())
            coef.append(2.0 * terms[:, i, j].ravel())
            self.nh_dephased += float(np.einsum("sii->", terms))
            for s, eig in zip(group, zip(lam, vec, b)):
                self.eig[s] = eig
        # sorted one vector at a time, so no more vectors are alive than during
        # the concatenation
        gaps, coef = np.concatenate(gaps), np.concatenate(coef)
        order = np.argsort(gaps, kind="stable")
        gaps = gaps[order]
        coef = coef[order]
        # a bin opens at the first gap and where a gap exceeds the previous one
        # by more than the tolerance
        opens = np.ones(gaps.size, dtype=bool)
        np.greater(gaps[1:] * (1.0 - _GAP_MERGE_RTOL), gaps[:-1], out=opens[1:])
        bins = np.flatnonzero(opens)
        self.gaps = gaps[bins]
        self.coef = np.add.reduceat(coef, bins)
        self.sum_wN = float(sec.weight @ sec.N)
        self.sum_wM = float(sec.weight @ sec.M)

    def _means(self, t: np.ndarray, g: np.ndarray, even, odd=None) -> np.ndarray:
        """[n_h, sum w N - n_h, sum w M - n_h], n_h = nh_dephased + sum coef K(g t)."""
        n_h = _kernel_sums(t, g, self.coef[:, None], even, odd, self.nh_dephased)[:, 0]
        return np.array([n_h, self.sum_wN - n_h, self.sum_wM - n_h])

    def _unitary_grid(self, t_grid) -> np.ndarray:
        """``t_grid`` as a flat float array; raises unless every phase g t is finite."""
        t_grid = np.asarray(t_grid, dtype=float).reshape(-1)
        if not math.isfinite(float(self.gaps.max(initial=0.0))
                             * float(np.abs(t_grid).max(initial=0.0))):
            raise DomainError("every time and every phase g t must be finite")
        return t_grid

    def marginals_at(self, t_grid: np.ndarray):
        """Unitary per-mode marginals, each of shape (n_max + 1, len(t_grid)).

        Sector populations are P[k, t] = sum_ij vec[k, i] vec[k, j] b[i, j]
        cos((lam_i - lam_j) t), one coefficient column per k over the d^2
        unmerged gaps.  Marginals sum to the retained weight (not to
        1) so that truncation stays visible; normalize before feeding them to
        detection models.
        """
        t_grid = self._unitary_grid(t_grid)
        sec = self.ensemble.sectors
        p_h = np.zeros((np.minimum(sec.N, sec.M).max() + 1, t_grid.size))
        p_w = np.zeros((sec.N.max() + 1, t_grid.size))
        p_c = np.zeros((sec.M.max() + 1, t_grid.size))
        for (N, M, weight, k_lo, d, _), (lam, vec, b) in zip(sec.tolist(), self.eig):
            gaps = (lam[:, None] - lam[None, :]).reshape(-1)
            w3 = ((vec[:, :, None] * vec[:, None, :]) * b[None, :, :]).reshape(d, d * d)
            w_pops = weight * _kernel_sums(t_grid, gaps, w3.T, np.cos, np.sin).T
            k = k_lo + np.arange(d)
            p_h[k] += w_pops
            p_w[N - k] += w_pops
            p_c[M - k] += w_pops
        return p_h, p_w, p_c

    def means_at(self, t_grid: np.ndarray) -> np.ndarray:
        """Mean occupations (not normalized by the retained weight), shape (3, len(t_grid))."""
        t_grid = self._unitary_grid(t_grid)
        return self._means(t_grid, self.gaps, np.cos, np.sin)

    def incoherent_means_at(self, t_grid: np.ndarray, xi_in: float) -> np.ndarray:
        """Means under the double-commutator model d rho/dt = -xi_in [H, [H, rho]].

        ``xi_in`` has units of time (the commutators are taken with H/hbar);
        coherence (i, j) decays at rate xi_in (w_i - w_j)^2.
        """
        t_grid = np.asarray(t_grid, dtype=float).reshape(-1)
        if not (0.0 <= xi_in < math.inf and np.all((0.0 <= t_grid) & (t_grid < math.inf))):
            raise DomainError("xi_in and every time must be finite and >= 0")
        return self._means(t_grid, self.gaps * self.gaps, lambda x: np.exp(-xi_in * x))

    def dephased_moments(self) -> OccupationTriple:
        """Means of the infinite-time average (exact for simple spectra)."""
        n_h = self.nh_dephased
        return OccupationTriple(n_h, self.sum_wN - n_h, self.sum_wM - n_h)


def default_incoherence_strength(spectrum: EnsembleSpectrum) -> float:
    """xi_in making the slowest sector coherence decay with time constant 5/xi.

    The slowest coherence decays at xi_in * g_min^2 where g_min is the
    smallest nonzero eigenvalue gap in the ensemble.  Returns 0 when no
    sector carries coherences (all dims are 1).
    """
    xi = spectrum.ensemble.xi
    if xi <= 0.0:
        raise DomainError("xi must be > 0 to set a default incoherence strength")
    g_min = float(spectrum.gaps[spectrum.gaps > 0.0].min(initial=np.inf))
    return xi / (5.0 * g_min ** 2)          # 0 when g_min is inf
