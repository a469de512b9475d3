"""Dense-matrix reference path.

Brute-force constructions on small truncated ladders, in numpy only: the
squeeze operator as the exponential of its generator (one Hermitian
eigensolve), full three-mode density matrices with all coherences, and
exact evolution under the dense trilinear Hamiltonian.  All of it is
independent of the closed-form distributions in :mod:`ionfridge.states`
and of the sector-decomposed evolution in :mod:`ionfridge.dynamics`; the
test suite plays the two routes against each other.

Caps are limited to n_max <= 8 per mode (full dimension <= 729).
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError
from .states import ModePrep, _is_count

MAX_CAP = 8
#: largest imaginary part a preparation density may carry into the real oracle
_IMAG_TOL = 1e-12


def ladder(dim: int) -> np.ndarray:
    """Annihilation operator on a ``dim``-level ladder."""
    a = np.zeros((dim, dim))
    n = np.arange(1, dim)
    a[n - 1, n] = np.sqrt(n)
    return a


def number_operator(dim: int) -> np.ndarray:
    return np.diag(np.arange(dim, dtype=float))


def squeeze_operator(r: float, theta: float = 0.0, dim: int = 60) -> np.ndarray:
    """S(z) = exp(G), G = (conj(z) a^2 - z adag^2)/2 with z = r e^{i theta}."""
    a = ladder(dim)
    z = r * np.exp(1j * theta)
    gen = 0.5 * (np.conj(z) * (a @ a) - z * (a.T @ a.T))
    lam, v = np.linalg.eigh(1j * gen)      # G is anti-Hermitian: i G = V diag(lam) V^dagger
    return (v * np.exp(-1j * lam)) @ v.conj().T


def thermal_density(nbar: float, dim: int) -> np.ndarray:
    if nbar < 0.0:
        raise DomainError("nbar must be >= 0")
    x = nbar / (nbar + 1.0)
    w = x ** np.arange(dim)
    return np.diag(w / w.sum())


def fock_density(n: int, dim: int) -> np.ndarray:
    if not 0 <= n < dim:
        raise DomainError("Fock index outside ladder")
    rho = np.zeros((dim, dim))
    rho[n, n] = 1.0
    return rho


def coherent_density(alpha_sq: float, dim: int) -> np.ndarray:
    """|alpha><alpha| with real alpha = sqrt(alpha_sq), truncated and renormalized.

    The log-amplitudes are shifted by their largest before they are
    exponentiated, so a ladder far below alpha_sq cannot underflow to 0 / 0.
    """
    if alpha_sq < 0.0:
        raise DomainError("alpha_sq must be >= 0")
    n = np.arange(dim)
    if alpha_sq == 0.0:
        vec = (n == 0).astype(float)
    else:
        log_amp = 0.5 * (n * math.log(alpha_sq)
                         - np.fromiter(map(math.lgamma, range(1, dim + 1)), float, dim))
        vec = np.exp(log_amp - log_amp.max())
    rho = np.outer(vec, vec)
    return rho / np.trace(rho)


def squeezed_thermal_density(nbar: float, r: float, theta: float, dim: int) -> np.ndarray:
    """S(r e^{i theta}) rho_thermal S^dagger truncated to ``dim`` levels.

    The squeeze acts on a much larger embedding ladder before the result is
    projected onto the first ``dim`` levels and renormalized; exponentiating
    the generator inside the truncated space itself would distort the state
    near the cutoff.  Off-diagonal (Delta n = 2) coherences are kept.
    """
    big = max(120, 4 * dim)
    s = squeeze_operator(r, theta, big)
    rho = s @ thermal_density(nbar, big) @ s.conj().T
    rho = rho[:dim, :dim]
    return rho / np.trace(rho).real


def prep_density(prep: ModePrep, dim: int) -> np.ndarray:
    """Density matrix of a preparation, including off-diagonal coherences."""
    if prep.kind == "thermal":
        return thermal_density(prep.nbar, dim)
    if prep.kind == "coherent":
        return coherent_density(prep.alpha_sq, dim)
    if prep.kind == "squeezed_thermal":
        return squeezed_thermal_density(prep.nbar, prep.r, 0.0, dim)
    if prep.kind == "fock":
        return fock_density(prep.n_fock, dim)
    raise DomainError(f"unknown prep kind {prep.kind!r}")   # pragma: no cover


def dense_hamiltonian(caps: tuple[int, int, int], xi: float,
                      detuning: float = 0.0) -> np.ndarray:
    """Trilinear Hamiltonian over hbar on the full product ladder (rad/s).

    H/hbar = xi (adag_h a_w a_c + h.c.) + detuning * n_h
    """
    dh, dw, dc = (c + 1 for c in caps)
    a_h, a_w, a_c = ladder(dh), ladder(dw), ladder(dc)
    term = np.kron(a_h.T, np.kron(a_w, a_c))
    h = xi * (term + term.T)
    if detuning != 0.0:
        h = h + detuning * np.kron(number_operator(dh), np.eye(dw * dc))
    return h


def dense_oracle_evolve(preps: tuple[ModePrep, ModePrep, ModePrep], xi: float,
                        t_grid: np.ndarray, caps: tuple[int, int, int],
                        detuning: float = 0.0) -> np.ndarray:
    """Exact mean occupations under the dense Hamiltonian.

    Returns an array of shape (3, len(t_grid)) with <n_h>, <n_w>, <n_c>.
    The initial state is the full tensor product of the preparation density
    matrices (coherences kept).  As on the sector path, ``xi`` must be finite
    and >= 0, ``detuning`` finite, each cap an integer in 0..``MAX_CAP``, and
    every phase E t finite, else ``DomainError``.  Every preparation density
    is real, so the whole evaluation is real: a density with an imaginary
    part above ``_IMAG_TOL`` raises ``DomainError`` instead of losing it.

    With H = u diag(E) u^T and b = u^T rho0 u, each mean is the real
    quadratic form <n_x>(t) = c^T w_x c + s^T w_x s, where
    w_x = (u^T diag(n_x) u) o b and c, s = cos(E t), sin(E t): the real part
    of sum_ij w_ij e^{-i (E_i - E_j) t}, whose imaginary part cancels since
    w_x is symmetric.
    """
    if not all(_is_count(c) and 0 <= c <= MAX_CAP for c in caps):
        raise DomainError(f"caps must be integers within 0..{MAX_CAP} per mode, got {caps!r}")
    if not (0.0 <= xi < math.inf and math.isfinite(detuning)):
        raise DomainError(f"xi must be finite and >= 0 and the detuning finite, "
                          f"got xi = {xi!r}, detuning = {detuning!r}")
    t_grid = np.asarray(t_grid, dtype=float)
    dims = tuple(c + 1 for c in caps)
    evals, u = np.linalg.eigh(dense_hamiltonian(caps, xi, detuning))
    if not math.isfinite(float(np.abs(evals).max()) * float(np.abs(t_grid).max(initial=0.0))):
        raise DomainError("every time and every phase E t must be finite")
    rho0 = np.ones((1, 1))
    for prep, dim in zip(preps, dims):
        rho = prep_density(prep, dim)
        if np.abs(rho.imag).max() > _IMAG_TOL:
            raise DomainError(f"the {prep.kind} density has an imaginary part above "
                              f"{_IMAG_TOL:g}; the oracle evaluates real densities only")
        rho0 = np.kron(rho0, rho.real)
    b = u.T @ rho0 @ u
    del rho0

    phases = np.multiply.outer(evals, t_grid)
    cos, sin = np.cos(phases), np.sin(phases)
    # number-operator diagonals in the product basis
    levels = np.indices(dims).reshape(3, -1).astype(float)
    out = np.empty((3, t_grid.size))
    for x, n_x in enumerate(levels):
        w = u.T @ (n_x[:, None] * u)
        w *= b
        out[x] = (cos * (w @ cos)).sum(axis=0) + (sin * (w @ sin)).sum(axis=0)
    return out
