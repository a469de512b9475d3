"""Exact dynamics of the trilinear three-mode interaction.

Within each invariant sector (N, M) the Hamiltonian over hbar is the real
symmetric tridiagonal matrix

    (H/hbar)[k, k+1] = xi sqrt((k+1)(N-k)(M-k)),   (H/hbar)[k, k] = detuning * k,

acting on |k, N-k, M-k>.  An ensemble is one table of retained sectors
(labels, weights, cap windows) plus one flat vector of their populations;
:class:`EnsembleSpectrum` eigendecomposes the sector matrices once per
ensemble, each mirror pair (N, M), (M, N) once, and every result is a view
of that spectrum.  At zero detuning, the paper's resonance, a sector
matrix is xi J with J tridiagonal and zero on the diagonal: its spectrum
is symmetric (+-xi sigma) and its eigenvectors split over the even and
odd sites, so one batched ``eigh`` of a floor(d/2) tridiagonal block per
half size gives the means of every sector.  Detuned ensembles, and
xi = 0, take one batched ``eigh`` of the d x d matrices per dimension,
made once per spectrum when first read; the per-sector eigenvectors that
only the marginals read come from those d x d solves for every ensemble.
Both paths read one mirror fold, the weighted populations of the sectors
that share a matrix summed into one padded (matrices, max dim + 1)
array, one row per distinct matrix.  Means are one projected observable:
inside sector (N, M), n_w = N - n_h and n_c = M - n_h, so with the hot
number projected onto each eigenbasis once, all sectors flatten into one
vector of gaps g, one per eigenvalue pair of each distinct matrix (the
populations of mirror sectors summed first), and one coefficient vector C,
and

    <n_h>(t) = <n_h>_dephased + kernel(t, g) @ C,
    <n_w> = sum_s w_s N_s - <n_h>,   <n_c> = sum_s w_s M_s - <n_h>,

each floored at 0 where it rounds below, with kernel cos(g t) =
Re e^{g (i t)} (unitary: the gaps at imaginary times), exp(-xi_in g^2 t)
(incoherent double-commutator model) or none (dephased).  Every kernel
is an exponential e^{z t}, which factors over a sum of times, so a uniform
grid of T points is evaluated as a tableau of about sqrt(T) rows r plus
sqrt(T) offsets s, t = r + s: the row and offset factors are powers of
e^{z dr} and e^{z dt}, built by repeated multiplication from three
exponentials per exponent, and a small matrix product combines them.  One
routine, :func:`_kernel_sums`, owns that tableau for every time-dependent
sum against a coefficient matrix: the means, the per-mode marginals (only
where a readout needs them), and the flopping sums and the periodogram of
:mod:`ionfridge.measurement`.

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

import functools
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
    tail_mass: tuple[float, float, float]    # mass each mode's cutoff dropped
    ladder_means: tuple[float, float, float]  # mean of each mode's evolved ladder
    detuning: float = 0.0

    @property
    def retained_weight(self) -> float:
        return float(self.sectors.weight.sum())


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
                             xi=xi, detuning=detuning,
                             tail_mass=tuple(dist.tail_mass for dist in dists),
                             ladder_means=tuple(dist.mean for dist in dists))


def assemble_initial(preps: tuple[ModePrep, ModePrep, ModePrep],
                     policy: TruncationPolicy, xi: float,
                     detuning: float = 0.0) -> ThreeModeEnsemble:
    """Build the initial ensemble for (hot, work, cold) preparations.

    Per-mode cutoffs default to 300 and are overridden by the policy's hard
    caps; with a hard cap the truncated tail is intentional, so the tail
    budget is waived (the tail mass is still recorded on the ensemble).
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


#: complex kernel factors evaluated per block of exponents (512 KiB per block)
_KERNEL_BLOCK = 1 << 15
#: most eigenvalue pairs, sum d(d - 1)/2 over the sectors, an ensemble may hold;
#: the shipped studies reach 1.6e5; 3.8e7 took 42 s and 1.1 GiB on a 2-vCPU x86-64 host
MAX_SECTOR_PAIRS = 10_000_000


def _tableau(t: np.ndarray) -> tuple | None:
    """(t_0, dt, rows, cols) with t[a * cols + b] = t_0 + (a cols + b) dt, or None.

    A uniform grid of two or more points, t_n = t_0 + n dt to a few ulps of
    max |t|, with Re dt >= 0 (ascending, or imaginary), becomes ``rows`` =
    ceil(T / cols) rows of ``cols`` = ceil(sqrt(T)) offsets, the last row
    padded past T.  Any other grid, one point included, has no tableau.
    """
    if t.size > 1:
        dt = (t[-1] - t[0]) / (t.size - 1)
        drift = np.abs(t - (t[0] + dt * np.arange(t.size))).max()
        if dt.real >= 0.0 and drift <= 4.0 * np.spacing(np.abs(t).max()):
            cols = math.isqrt(t.size - 1) + 1
            return t[0], dt, -(-t.size // cols), cols
    return None


def _powers(first: np.ndarray, ratio: np.ndarray, n: int) -> np.ndarray:
    """first * ratio**a for a = 0 .. n - 1 by repeated multiplication, shape (n, ratio.size)."""
    out = np.empty((n, ratio.size), dtype=np.result_type(first, ratio))
    out[0] = first
    for a in range(1, n):
        np.multiply(out[a - 1], ratio, out=out[a])
    return out


def _kernel_sums(t: np.ndarray, z: np.ndarray, coef: np.ndarray,
                 real: bool = False) -> np.ndarray:
    """sum_j coef[j, k] e^{z_j t_i}, shape (t.size, coef.shape[1]).

    Its callers: the unitary means and marginals (real gaps g at imaginary
    times i t, with ``real``: sum coef cos(g t)), the incoherent means (real
    exponents at real times, with ``real``), and the flopping sums and the
    periodogram of :mod:`ionfridge.measurement` (complex exponents at real
    times or frequencies).  Other real or complex t and z are summed
    exactly too.  On the :func:`_tableau` of ``t``, e^{z t} factors as a row
    factor e^{z t_0} (e^{z cols dt})^a times an offset factor (e^{z dt})^b,
    the powers built by repeated multiplication, so each exponent takes
    three exponentials; each block of exponents then adds, for every column
    k, (rows * coef[:, k]) @ offsets.T, all columns in one product (for the
    real part, one real product over interleaved real and imaginary parts).
    Any other grid takes e^{z t} at every time, as cos(g t) where ``real``
    meets real z and purely imaginary times.  Blocks keep each factor block
    near ``_KERNEL_BLOCK`` complex elements.
    """
    cols = coef.shape[1]
    dtype = float if real else np.result_type(t, z, coef)
    grid = _tableau(t)
    if grid is None:
        sums = np.zeros((t.size, cols), dtype=dtype)
        cosine = real and np.isrealobj(z) and np.iscomplexobj(t) and not t.real.any()
        step = max(1, _KERNEL_BLOCK // max(1, t.size))
        for lo in range(0, z.size, step):
            zb = z[lo:lo + step]
            f = np.cos(np.outer(t.imag, zb)) if cosine else np.exp(np.outer(t, zb))
            sums += (f.real if real else f) @ coef[lo:lo + step]
        return sums
    t0, dt, rows, offsets = grid
    sums = np.zeros((rows * cols, offsets), dtype=dtype)
    step = max(1, _KERNEL_BLOCK // (rows + offsets))
    for lo in range(0, z.size, step):
        zb, cb = z[lo:lo + step], coef[lo:lo + step]
        first, row_ratio, off_ratio = np.exp(np.multiply.outer((t0, dt * offsets, dt), zb))
        scaled = np.multiply(_powers(first, row_ratio, rows)[:, None, :], cb.T,
                             order="C").reshape(-1, zb.size)
        if real and np.iscomplexobj(scaled):
            # Re(x @ y.T) = [Re x, Im x] @ [Re y, -Im y].T: the offsets are
            # powers of the conjugate ratio, taken over interleaved pairs
            conj = _powers(complex(1.0), off_ratio.conj(), offsets)
            sums += scaled.view(float) @ conj.view(float).T
        else:
            sums += scaled @ _powers(1.0, off_ratio, offsets).T
    sums = sums.reshape(rows, cols, offsets).transpose(0, 2, 1)
    return sums.reshape(-1, cols)[:t.size]


def _distinct_matrices(N: np.ndarray, M: np.ndarray, k_lo: np.ndarray,
                       dim: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(solved, mirror, bounds) for the sector columns: ``solved`` holds the
    first sector of each distinct (dim, min(N, M), max(N, M), k_lo), in that
    order, ``mirror[s]`` the row of sector s's matrix, and the matrices of
    dimension d are rows ``bounds[d]`` to ``bounds[d + 1] - 1`` (d <=
    dim.max() + 1).  Mirror sectors (N, M) and (M, N) with one window have
    one Hamiltonian."""
    order = np.lexsort((k_lo, np.maximum(N, M), np.minimum(N, M), dim))
    key = np.stack((dim, np.minimum(N, M), np.maximum(N, M), k_lo))[:, order]
    opens = np.ones(dim.size, dtype=bool)
    np.any(key[:, 1:] != key[:, :-1], axis=0, out=opens[1:])
    mirror = np.empty(dim.size, dtype=np.int64)
    mirror[order] = np.cumsum(opens) - 1
    solved = order[opens]
    return solved, mirror, np.searchsorted(dim[solved], np.arange(dim.max() + 3))


class EnsembleSpectrum:
    """Eigendecomposition of every sector of an ensemble, the one spectral core.

    Each distinct sector matrix is solved once (see
    :func:`_distinct_matrices`; mirror sectors share a matrix).  Its map
    (``_mirror``, ``_bounds``) and the distinct matrices' columns (``_N``,
    ``_M``, ``_k_lo``, of each matrix's first sector) are built once per
    spectrum and read by both gap tables, by :meth:`_couplings`, which
    gives both paths their couplings t_k = sqrt((k + 1)(N - k)(M - k)) at
    unit xi, and by ``eig``.  ``eig`` holds
    sector ``i``'s (in ``ensemble.sectors`` order) ascending eigenvalues
    ``lam``, eigenvectors ``vec`` (columns) and its initial populations
    rotated to the eigenbasis, ``b = vec.T diag(pops) vec`` (real), as views
    of batched arrays (mirror sectors share one ``lam`` and one ``vec``).
    It is built when first read (:meth:`marginals_at`), never for the
    means, from the d x d solves of the general path below for every
    ensemble: ``_dense_solves`` is one list per spectrum, solved on its
    first read, so a detuned ensemble's gap table and ``eig`` share one
    solve per matrix.

    For the means, with A = vec.T diag(n_h) vec and sector weight w, each
    pair i < j of each sector contributes the gap lam_j - lam_i with the
    coefficient 2 w b_ij A_ij, and ``nh_dephased`` = sum w b_ii A_ii.
    Mirror sectors share lam, vec and A, so both paths take the pairs once
    per distinct matrix, with P = vec.T diag(q) vec in place of w b: q, the
    mirror fold, sums the weighted populations of the matrix's sectors.  It
    is built once per spectrum, by one ``bincount``, as one (matrices,
    max dim + 1) array, row ``_mirror[s]`` for sector s and zero past the
    matrix's dimension: the general path reads ``fold[rows, :d]``, the
    resonant one ``fold[rows, :2n + 1]``, where an even dimension's last
    column is zero.  The two paths:

    - Resonant (zero detuning, xi > 0): H = xi J, J tridiagonal with
      couplings t_k and a zero diagonal.  With the even sites first,
      J = [[0, B], [B.T, 0]], B[m, m] = t_2m and B[m + 1, m] = t_2m+1
      (ceil(d/2) x floor(d/2)).  One batched ``eigh`` of the tridiagonal
      B.T B per half size n = floor(d/2) (dimensions 2n and 2n + 1) gives
      sigma^2 and v, u = B v / sigma, and the eigenvectors [u; +-v] /
      sqrt(2) of +-xi sigma; odd d adds the zero mode [u_0; 0],
      B.T u_0 = 0.  J is solved at unit coupling (xi t would overflow
      squared).  With Pe = u.T diag(q_even) u and Po = v.T diag(q_odd) v,
      and Ne, No the same with n_h, the pairs are the gap sigma_b - sigma_a
      (a < b) with (Pe + Po)(Ne + No), sigma_a + sigma_b (a <= b) with
      (Pe - Po)(Ne - No), halved at a = b, and sigma_b with
      2 (u_0.T diag(q) u_b)(u_0.T diag(n_h) u_b): every pair with its
      images under the sign flip folded, about half the d x d table's
      entries per matrix.  ``nh_dephased`` is half the trace of
      (Pe + Po)(Ne + No) plus the zero mode's term.
    - General (detuned, or xi = 0, where the number basis is the
      eigenbasis): the matrices of each dimension d are stacked as one
      (S_d, d, d) array for one ``eigh`` (``_dense_solves``), q and
      n_h projected by batched products (vec.T * q) @ vec, and every pair
      i < j of every matrix taken with 2 P_ij A_ij.

    ``gaps`` and ``coef`` are the two paths' blocks concatenated and sorted
    by gap; equal gaps stay separate terms.  Then <n_h>(t) = nh_dephased
    + kernel(t, gaps) @ coef, and <n_w>, <n_c> are ``sum_wN``, ``sum_wM``
    minus <n_h>, because n_w = N - n_h and n_c = M - n_h inside sector
    (N, M); ``_occupations`` builds that triple, each entry floored at 0,
    for every mean and the dephased moments.  Pairs and reductions run in
    a fixed order, and the sort of a given gap vector is deterministic, so
    results do not depend on scheduling.
    """

    def __init__(self, ensemble: ThreeModeEnsemble):
        self.ensemble = ensemble
        # each column read once, as a plain array: every record-array
        # attribute read (sec.N) costs some microseconds
        sec_N, sec_M, weight, sec_k_lo, dim, start = (
            ensemble.sectors[name] for name in ("N", "M", "weight", "k_lo", "dim", "start"))
        pairs = int((dim * (dim - 1) // 2).sum())
        if pairs > MAX_SECTOR_PAIRS:
            raise DomainError(f"the ensemble holds {pairs} eigenvalue pairs, more than "
                              f"MAX_SECTOR_PAIRS = {MAX_SECTOR_PAIRS}; lower the per-mode "
                              "caps or raise epsilon to shrink it")
        solved, self._mirror, self._bounds = _distinct_matrices(sec_N, sec_M, sec_k_lo, dim)
        self._N, self._M, self._k_lo = sec_N[solved], sec_M[solved], sec_k_lo[solved]
        # the mirror fold q: the weighted populations of each matrix's sectors
        # summed, one row per matrix, zero past its dimension
        width = dim.max() + 1
        owner = np.repeat(np.arange(dim.size), dim)
        row = np.arange(owner.size) - (np.cumsum(dim) - dim)[owner]
        fold = np.bincount(self._mirror[owner] * width + row, minlength=solved.size * width,
                           weights=weight[owner] * ensemble.pops[start[owner] + row])
        resonant = ensemble.detuning == 0.0 and ensemble.xi > 0.0
        table = self._resonant_table if resonant else self._general_table
        gaps, coef, self.nh_dephased = table(fold.reshape(-1, width))
        gaps, coef = np.concatenate(gaps), np.concatenate(coef)
        # sorted: on unsorted gaps the one-point calls (cos) and the
        # incoherent grids took about twice as long, the dense grids ~5 % more
        order = np.argsort(gaps)
        self.gaps, self.coef = gaps[order], coef[order]
        self.sum_wN = float(weight @ sec_N)
        self.sum_wM = float(weight @ sec_M)

    def _couplings(self, rows: slice, d: int) -> np.ndarray:
        """sqrt((k + 1)(N - k)(M - k)) at k = k_lo .. k_lo + d - 2, the
        couplings at unit xi of the matrices ``rows``, shape (rows, d - 1)."""
        k = self._k_lo[rows, None] + np.arange(d - 1)
        return np.sqrt((k + 1.0) * (self._N[rows, None] - k) * (self._M[rows, None] - k))

    @functools.cached_property
    def _dense_solves(self) -> list[tuple[int, slice, np.ndarray, np.ndarray]]:
        """Per dimension d, (d, rows, lam, vec): the distinct d x d matrices,
        rows ``_bounds[d]`` to ``_bounds[d + 1] - 1``, in one batched ``eigh``,
        solved on the first read."""
        solves = []
        for d in np.flatnonzero(np.diff(self._bounds)):
            rows, row = slice(self._bounds[d], self._bounds[d + 1]), np.arange(d)
            ham = np.zeros((rows.stop - rows.start, d, d))
            ham[:, row, row] = self.ensemble.detuning * (self._k_lo[rows, None] + row)
            ham[:, row[1:], row[:-1]] = self.ensemble.xi * self._couplings(rows, d)
            solves.append((d, rows, *np.linalg.eigh(ham)))     # reads the lower triangle
        return solves

    def _general_table(self, fold):
        """Gap and coefficient blocks and nh_dephased from the d x d solves."""
        gaps, coef = [], []
        nh_dephased = 0.0
        for d, rows, lam, vec in self._dense_solves:
            q = fold[rows, :d]
            n_h = self._k_lo[rows, None] + np.arange(d)
            vec_t = vec.transpose(0, 2, 1)
            # P * A, P = vec.T diag(q) vec and A = vec.T diag(n_h) vec, batched
            terms = ((vec_t * q[:, None, :]) @ vec) * ((vec_t * n_h[:, None, :]) @ vec)
            i, j = np.triu_indices(d, 1)
            gaps.append((lam[:, j] - lam[:, i]).ravel())
            coef.append(2.0 * terms[:, i, j].ravel())
            nh_dephased += float(np.einsum("sii->", terms))
        return gaps, coef, nh_dephased

    def _resonant_table(self, fold):
        """Gap and coefficient blocks and nh_dephased from the half-size blocks."""
        xi, bounds = self.ensemble.xi, self._bounds
        gaps, coef = [], []
        nh_dephased = 0.0
        for n in np.flatnonzero(np.diff(bounds[::2])):
            # half size n: the dimensions 2n (rows :even) and 2n + 1 (rows even:)
            rows = slice(bounds[2 * n], bounds[2 * n + 2])
            q_n = fold[rows, :2 * n + 1]
            count, even = len(q_n), bounds[2 * n + 1] - rows.start
            odd = slice(even, None)
            n_h = self._k_lo[rows, None] + np.arange(2 * n + 1)
            q_e, q_o, n_e, n_o = q_n[:, 0::2], q_n[:, 1::2], n_h[:, 0::2], n_h[:, 1::2]
            m = np.arange(n)
            # the even dimensions lack t_2n-1, so the last row of their B
            # (and of u) is zero
            t = self._couplings(rows, 2 * n + 1)
            t[:even, -1:] = 0.0
            t_e, t_o = t[:, 0::2], t[:, 1::2]
            btb = np.zeros((count, n, n))
            btb[:, m, m] = t_e * t_e + t_o * t_o
            btb[:, m[1:], m[:-1]] = t_o[:, :-1] * t_e[:, 1:]
            sigma_sq, v = np.linalg.eigh(btb) if n else (np.zeros((count, 0)), btb)
            sigma = np.sqrt(sigma_sq)
            u = np.zeros((count, n + 1, n))
            u[:, :n] = t_e[:, :, None] * v
            u[:, 1:] += t_o[:, :, None] * v
            u /= sigma[:, None, :]
            s = xi * sigma
            u_t, v_t = u.transpose(0, 2, 1), v.transpose(0, 2, 1)
            p_e, p_o = u_t @ (q_e[:, :, None] * u), v_t @ (q_o[:, :, None] * v)
            a_e, a_o = u_t @ (n_e[:, :, None] * u), v_t @ (n_o[:, :, None] * v)
            # +1 within a branch (a < b), -1 across the branches (a >= b)
            sign = np.where(m[:, None] < m, 1.0, -1.0)
            terms = (p_e + sign * p_o) * (a_e + sign * a_o)
            terms[:, m, m] *= 0.5
            gaps.append((s[:, None, :] - sign * s[:, :, None]).ravel())
            coef.append(terms.ravel())
            nh_dephased += 0.5 * float(np.einsum("saa,saa->", p_e + p_o, a_e + a_o))
            # the zero mode of each odd dimension: B.T u_0 = 0, so
            # u_0[m + 1] = -t_2m / t_2m+1 u_0[m]
            z = np.ones((count - even, n + 1))
            z[:, 1:] = np.cumprod(-t_e[odd] / t_o[odd], axis=1)
            z /= np.sqrt((z * z).sum(axis=1, keepdims=True))
            z_q, z_n = z * q_e[odd], z * n_e[odd]
            gaps.append(s[odd].ravel())
            coef.append(2.0 * ((z_q[:, None] @ u[odd]) * (z_n[:, None] @ u[odd])).ravel())
            nh_dephased += float((z_q * z).sum(axis=1) @ (z_n * z).sum(axis=1))
        return gaps, coef, nh_dephased

    @functools.cached_property
    def eig(self) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
        """Per sector (lam, vec, b), built on the first read (see the class)."""
        dim, start = (self.ensemble.sectors[name] for name in ("dim", "start"))
        eig = [None] * dim.size
        for d, rows, lam, vec in self._dense_solves:
            group = np.flatnonzero(dim == d)
            local = self._mirror[group] - rows.start
            own = vec[local]
            pops = self.ensemble.pops[start[group, None] + np.arange(d)]
            b = (own.transpose(0, 2, 1) * pops[:, None, :]) @ own
            for s, m, b_s in zip(group.tolist(), local.tolist(), b):
                eig[s] = lam[m], vec[m], b_s
        return eig

    def _occupations(self, n_h):
        """[n_h, sum w N - n_h, sum w M - n_h], each floored at 0 (rounding puts an exact 0 at -3e-16)."""
        occ = np.array([n_h, self.sum_wN - n_h, self.sum_wM - n_h])
        return np.maximum(occ, 0.0, out=occ)

    def _means(self, t: np.ndarray, z: np.ndarray) -> np.ndarray:
        """The occupations at n_h = nh_dephased + sum coef Re e^{z t}."""
        return self._occupations(
            self.nh_dephased + _kernel_sums(t, z, self.coef[:, None], real=True)[:, 0])

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
        cos((lam_i - lam_j) t): the time-independent diagonal i = j plus
        twice the pairs i < j, one coefficient column per k over the
        d(d - 1)/2 gaps.  Marginals sum to the retained weight (not to
        1) so that truncation stays visible; normalize before feeding them to
        detection models.
        """
        t_grid = self._unitary_grid(t_grid)
        sec = self.ensemble.sectors
        p_h = np.zeros((np.minimum(sec.N, sec.M).max() + 1, t_grid.size))
        p_w = np.zeros((sec.N.max() + 1, t_grid.size))
        p_c = np.zeros((sec.M.max() + 1, t_grid.size))
        for (N, M, weight, k_lo, d, _), (lam, vec, b) in zip(sec.tolist(), self.eig):
            i, j = np.triu_indices(d, 1)
            pairs = 2.0 * vec[:, i] * vec[:, j] * b[i, j]
            w_pops = weight * (_kernel_sums(1j * t_grid, lam[j] - lam[i], pairs.T, real=True).T
                               + ((vec * vec) @ np.diag(b))[:, None])
            k = k_lo + np.arange(d)
            p_h[k] += w_pops
            p_w[N - k] += w_pops
            p_c[M - k] += w_pops
        return p_h, p_w, p_c

    def means_at(self, t_grid: np.ndarray) -> np.ndarray:
        """Mean occupations (not normalized by the retained weight), shape (3, len(t_grid))."""
        t_grid = self._unitary_grid(t_grid)
        return self._means(1j * t_grid, self.gaps)

    def incoherent_means_at(self, t_grid: np.ndarray, xi_in: float) -> np.ndarray:
        """Means under the double-commutator model d rho/dt = -xi_in [H, [H, rho]].

        ``xi_in`` has units of time (the commutators are taken with H/hbar);
        coherence (i, j) decays at rate xi_in (w_i - w_j)^2.
        """
        t_grid = np.asarray(t_grid, dtype=float).reshape(-1)
        if not (0.0 <= xi_in < math.inf and np.all((0.0 <= t_grid) & (t_grid < math.inf))):
            raise DomainError("xi_in and every time must be finite and >= 0")
        return self._means(t_grid, -xi_in * self.gaps * self.gaps)

    def dephased_moments(self) -> OccupationTriple:
        """Means of the infinite-time average (exact for simple spectra)."""
        return OccupationTriple(*self._occupations(self.nh_dephased).tolist())


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
