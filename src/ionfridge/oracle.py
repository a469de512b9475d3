"""Dense-matrix reference path.

Brute-force constructions on small truncated ladders: the squeeze operator
as a matrix exponential of its generator, full three-mode density matrices
with all coherences, and exact evolution under the dense trilinear
Hamiltonian.  Everything here is deliberately independent of the
closed-form distributions in :mod:`ionfridge.states` and of the
sector-decomposed evolution in :mod:`ionfridge.dynamics`; the test suite
plays the two routes against each other.

Caps are limited to n_max <= 8 per mode (full dimension <= 729).
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError
from .states import ModePrep

MAX_CAP = 8


def ladder(dim: int) -> np.ndarray:
    """Annihilation operator on a ``dim``-level ladder."""
    a = np.zeros((dim, dim))
    n = np.arange(1, dim)
    a[n - 1, n] = np.sqrt(n)
    return a


def number_operator(dim: int) -> np.ndarray:
    return np.diag(np.arange(dim, dtype=float))


def squeeze_operator(r: float, theta: float = 0.0, dim: int = 60) -> np.ndarray:
    """S(z) = expm((conj(z) a^2 - z adag^2)/2) with z = r e^{i theta}."""
    from scipy.linalg import expm     # only the oracle's squeezing needs scipy
    a = ladder(dim)
    z = r * np.exp(1j * theta)
    gen = 0.5 * (np.conj(z) * (a @ a) - z * (a.T @ a.T))
    return expm(gen)


def thermal_density(nbar: float, dim: int) -> np.ndarray:
    if nbar < 0.0:
        raise DomainError("nbar must be >= 0")
    if nbar == 0.0:
        rho = np.zeros((dim, dim))
        rho[0, 0] = 1.0
        return rho
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
    """|alpha><alpha| with real alpha = sqrt(alpha_sq), truncated and renormalized."""
    if alpha_sq < 0.0:
        raise DomainError("alpha_sq must be >= 0")
    n = np.arange(dim)
    from scipy.special import gammaln
    vec = (n == 0).astype(float) if alpha_sq == 0.0 else np.exp(
        n * np.log(np.sqrt(alpha_sq)) - 0.5 * alpha_sq - 0.5 * gammaln(n + 1.0))
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
    matrices (coherences kept).
    """
    if any(c < 0 or c > MAX_CAP for c in caps):
        raise DomainError(f"caps must be within 0..{MAX_CAP} per mode")
    t_grid = np.asarray(t_grid, dtype=float)
    dh, dw, dc = (c + 1 for c in caps)
    rho0 = np.kron(prep_density(preps[0], dh),
                   np.kron(prep_density(preps[1], dw), prep_density(preps[2], dc)))
    h = dense_hamiltonian(caps, xi, detuning)
    evals, u = np.linalg.eigh(h)
    b = u.conj().T @ rho0 @ u

    # number-operator diagonals in the product basis
    idx = np.arange(dh * dw * dc)
    n_h = (idx // (dw * dc)).astype(float)
    n_w = ((idx // dc) % dw).astype(float)
    n_c = (idx % dc).astype(float)

    out = np.empty((3, t_grid.size))
    for k, t in enumerate(t_grid):
        phase = np.exp(-1j * evals * t)
        c_t = (phase[:, None] * b) * np.conj(phase)[None, :]
        pops = np.einsum("ki,ij,kj->k", u, c_t, u.conj(), optimize=True).real
        out[0, k] = n_h @ pops
        out[1, k] = n_w @ pops
        out[2, k] = n_c @ pops
    return out
