"""Sector dynamics: the assembled sector table and the spectral views
(unitary, dephased, incoherent), checked against closed forms and the dense
oracle."""

import collections
import dataclasses
import functools
import itertools
import math
import pathlib
import tracemalloc

import numpy as np
import pytest

from ionfridge import dynamics
from ionfridge.dynamics import (_KERNEL_BLOCK, EnsembleSpectrum, _kernel_sums,
                                assemble_from_distributions, assemble_initial,
                                default_incoherence_strength)
from ionfridge.errors import DomainError
from ionfridge.experiments import build_ensemble, load_scenario
from ionfridge.fockspace import TruncationPolicy, select_sectors
from ionfridge.oracle import MAX_CAP, dense_hamiltonian, dense_oracle_evolve, prep_density
from ionfridge.states import ModePrep, prep_to_distribution, thermal_distribution

TWO_PI = 2.0 * math.pi
XI = TWO_PI * 1.32e3


def _short_ladders():
    return tuple(thermal_distribution(nbar, cutoff=c, tail_budget=1.0)
                 for nbar, c in ((0.8, 3), (1.5, 6), (1.2, 2)))


def _capped_ladders():
    preps = (ModePrep.thermal_state(0.8), ModePrep.squeezed_thermal_state(0.5, 0.7),
             ModePrep.thermal_state(1.2))
    return tuple(prep_to_distribution(p, cutoff=c, tail_budget=1.0)
                 for p, c in zip(preps, (7, 4, 5)))


@pytest.mark.parametrize("dists,caps", [(_capped_ladders(), (7, 4, 5)),
                                        (_short_ladders(), (None, None, None))],
                         ids=["windowed", "short_ladders"])
def test_assembly_matches_per_sector_construction(dists, caps):
    """The sector table and its population slices against a sector-by-sector
    construction: caps window the sectors (k_lo > 0), and rows beyond a
    short ladder get population 0."""
    policy = TruncationPolicy(epsilon=1e-6, n_max_h=caps[0], n_max_w=caps[1],
                              n_max_c=caps[2])
    ens = assemble_from_distributions(dists, policy, XI, detuning=TWO_PI * 3e3)
    sel = select_sectors(*dists, policy)
    p_h, p_w, p_c = (d.p for d in dists)
    cap_h, cap_w, cap_c = (math.inf if c is None else c for c in caps)

    def level(p, n):
        return p[n] if n < p.size else 0.0

    assert len(ens.sectors) == len(sel.labels)
    assert caps[0] is None or (ens.sectors.k_lo > 0).any()
    assert ens.sectors.start[0] == 0
    np.testing.assert_array_equal(ens.sectors.start[1:], np.cumsum(ens.sectors.dim)[:-1])
    assert ens.pops.size == ens.sectors.dim.sum()
    for (N, M), row in zip(sel.labels, ens.sectors):
        assert (row.N, row.M) == (N, M)
        k_lo, k_hi = max(0, N - cap_w, M - cap_c), min(N, M, cap_h)
        assert (row.k_lo, row.dim) == (k_lo, k_hi - k_lo + 1)
        joint = np.array([level(p_h, k) * level(p_w, N - k) * level(p_c, M - k)
                          for k in range(k_lo, k_hi + 1)])
        assert row.weight == pytest.approx(joint.sum(), rel=1e-14)
        np.testing.assert_allclose(ens.pops[row.start:row.start + row.dim],
                                   joint / joint.sum(), rtol=0, atol=1e-14)
    # the short ladders leave some in-sector rows empty
    assert caps[0] is not None or (ens.pops == 0.0).any()


def test_assembly_rejects_negative_coupling():
    with pytest.raises(DomainError):
        assemble_initial((ModePrep.thermal_state(0.4),) * 3,
                         TruncationPolicy(epsilon=1e-4), xi=-1.0)


@pytest.mark.parametrize("xi,detuning", [(math.nan, 0.0), (math.inf, 0.0), (XI, math.nan),
                                         (XI, -math.inf)],
                         ids=["xi_nan", "xi_inf", "detuning_nan", "detuning_inf"])
def test_assembly_rejects_non_finite_coupling_and_detuning(xi, detuning):
    """Before, these passed the xi < 0 check and failed in EnsembleSpectrum with
    numpy's LinAlgError (eigenvalues did not converge)."""
    with pytest.raises(DomainError, match="finite"):
        EnsembleSpectrum(assemble_initial((ModePrep.thermal_state(0.4),) * 3,
                                          TruncationPolicy(epsilon=1e-4), xi, detuning))


def test_capped_assembly_rejects_distributions_beyond_the_caps():
    """Mass outside the cap box would weight sectors it cannot evolve in; before,
    such sectors were dropped silently and the rest reported retained weight 0.881."""
    dists = tuple(thermal_distribution(nbar, cutoff=300) for nbar in (0.5, 0.8, 0.6))
    policy = TruncationPolicy(epsilon=1e-4, n_max_h=2, n_max_w=2, n_max_c=2)
    with pytest.raises(DomainError, match="cap"):
        assemble_from_distributions(dists, policy, XI)


def _single_quantum_ensemble(xi=XI):
    """|0, 1, 1> lives in the two-state sector (N, M) = (1, 1)."""
    preps = tuple(ModePrep(kind="fock", n_fock=n) for n in (0, 1, 1))
    return assemble_initial(preps, TruncationPolicy(epsilon=1e-12), xi=xi)


def _thermal_ensemble(nbars, epsilon=1e-5):
    preps = tuple(ModePrep.thermal_state(v) for v in nbars)
    return assemble_initial(preps, TruncationPolicy(epsilon=epsilon), xi=XI)


def _initial_marginals(ens):
    """Per-mode (hot, work, cold) marginals of the initial ensemble, rows of
    one array, built straight from the sector populations."""
    margs = np.zeros((3, max(ens.sectors.N.max(), ens.sectors.M.max()) + 1))
    for N, M, weight, k_lo, dim, start in ens.sectors.tolist():
        k = k_lo + np.arange(dim)
        for marg, n in zip(margs, (k, N - k, M - k)):
            marg[n] += weight * ens.pops[start:start + dim]
    return margs


def _initial_means(ens):
    margs = _initial_marginals(ens)
    return margs @ np.arange(margs.shape[1])


def test_single_quantum_exchange_oscillation():
    """<n_c>(t) = cos^2(xi t) for the |0,1,1> preparation: the textbook case."""
    times = np.array([0.0, 37e-6, 81e-6, 140e-6])
    means = EnsembleSpectrum(_single_quantum_ensemble()).means_at(times)
    np.testing.assert_allclose(means[2], np.cos(XI * times) ** 2, rtol=0, atol=1e-12)
    np.testing.assert_allclose(means[1], np.cos(XI * times) ** 2, rtol=0, atol=1e-12)
    np.testing.assert_allclose(means[0], np.sin(XI * times) ** 2, rtol=0, atol=1e-12)


def test_single_quantum_doublet_splitting_is_twice_xi():
    """Eigenvalues are +-xi, so populations beat at the gap 2 xi: the first
    full swap happens at t = pi / (2 xi) and the revival at t = pi / xi."""
    spectrum = EnsembleSpectrum(_single_quantum_ensemble())
    nbar_h = spectrum.means_at(np.array([math.pi / (2.0 * XI), math.pi / XI]))[0]
    assert nbar_h[0] == pytest.approx(1.0, abs=1e-12)
    assert nbar_h[1] == pytest.approx(0.0, abs=1e-12)
    assert spectrum.gaps[spectrum.gaps > 0.0].min() == pytest.approx(2.0 * XI, rel=1e-12)


def test_zero_time_is_identity():
    ens = _thermal_ensemble((0.4, 0.9, 0.6), epsilon=1e-6)
    m1 = EnsembleSpectrum(ens).means_at(np.array([0.0]))[:, 0]
    np.testing.assert_allclose(m1, _initial_means(ens), rtol=1e-13)


def test_marginals_at_conserve_retained_weight():
    preps = (ModePrep.thermal_state(0.4), ModePrep.squeezed_thermal_state(0.3, 0.6),
             ModePrep.thermal_state(0.6))
    ens = assemble_initial(preps, TruncationPolicy(epsilon=1e-5), xi=XI)
    t_grid = np.array([0.0, 17e-6, 53e-6, 240e-6, 1e-3])
    margs = EnsembleSpectrum(ens).marginals_at(t_grid)
    w = ens.retained_weight
    for marg in margs:
        assert marg.shape[1] == t_grid.size
        np.testing.assert_allclose(marg.sum(axis=0), w, rtol=1e-12)
    for marg, initial in zip(margs, _initial_marginals(ens)):
        np.testing.assert_allclose(marg[:, 0], initial[:marg.shape[0]], rtol=0, atol=1e-14)


def test_dephased_moments_are_the_long_time_average():
    # the |0,1,1> doublet: <n_c> = cos^2(xi t) averages to 1/2 over whole periods
    spectrum = EnsembleSpectrum(_single_quantum_ensemble())
    assert spectrum.dephased_moments().nbar_c == pytest.approx(0.5, abs=1e-15)
    revival = np.linspace(0.0, math.pi / XI, 16, endpoint=False)
    assert spectrum.means_at(revival)[2].mean() == pytest.approx(0.5, abs=1e-13)

    ens = _thermal_ensemble((0.66, 1.10, 0.8))
    spectrum = EnsembleSpectrum(ens)
    dm = spectrum.dephased_moments()
    late = spectrum.means_at(np.linspace(0.0, 50e-3, 4001)).mean(axis=1)
    np.testing.assert_allclose(late, dm, rtol=0, atol=1e-4)
    # the dephased state keeps both conserved sums of the initial one
    m0 = _initial_means(ens)
    assert dm.nbar_h + dm.nbar_w == pytest.approx(m0[0] + m0[1], abs=1e-12)
    assert dm.nbar_h + dm.nbar_c == pytest.approx(m0[0] + m0[2], abs=1e-12)


@pytest.mark.parametrize("detuning_khz", [0.0, 1.0, -40.0])
def test_means_at_matches_dense_oracle_detuned(detuning_khz):
    cap = 6
    detuning = TWO_PI * detuning_khz * 1e3
    preps = (ModePrep.thermal_state(0.3), ModePrep.squeezed_thermal_state(0.3, 0.6),
             ModePrep.thermal_state(0.4))
    policy = TruncationPolicy(epsilon=1e-12, n_max_h=cap, n_max_w=cap, n_max_c=cap)
    grid = np.linspace(0.0, 400e-6, 10)
    sector = EnsembleSpectrum(assemble_initial(preps, policy, XI, detuning)).means_at(grid)
    dense = dense_oracle_evolve(preps, XI, grid, (cap, cap, cap), detuning)
    np.testing.assert_allclose(sector, dense, rtol=0, atol=1e-9)


@pytest.mark.parametrize("xi,t,caps,detuning,message", [
    (XI, math.inf, (2, 2, 2), 0.0, "phase"),
    (XI, math.nan, (2, 2, 2), 0.0, "phase"),
    (XI, 1e305, (2, 2, 2), 0.0, "phase"),
    (math.nan, 0.0, (2, 2, 2), 0.0, "finite"),
    (XI, 0.0, (2, 2, 2), math.inf, "finite"),
    (XI, 0.0, (2.5, 2, 2), 0.0, "integers"),
], ids=["t_inf", "t_nan", "t_1e305", "xi_nan", "detuning_inf", "cap_float"])
def test_dense_oracle_rejects_what_the_sector_path_rejects(xi, t, caps, detuning, message):
    """Before, the non-finite inputs and the overflowing phase gave
    [nan nan nan] with a RuntimeWarning, and a float cap a bare TypeError."""
    preps = (ModePrep.thermal_state(0.3),) * 3
    with pytest.raises(DomainError, match=message):
        dense_oracle_evolve(preps, xi, np.array([0.0, t]), caps, detuning)


def _density_matrix_oracle(preps, t_grid, caps, detuning):
    """The oracle's means from the evolved density matrix at each time:
    rho(t) = u e^{-iEt} b e^{iEt} u^dagger with b = u^dagger rho0 u in
    complex arithmetic, and <n_x>(t) = Tr(diag(n_x) rho(t))."""
    dh, dw, dc = (c + 1 for c in caps)
    rho0 = np.kron(prep_density(preps[0], dh),
                   np.kron(prep_density(preps[1], dw), prep_density(preps[2], dc)))
    evals, u = np.linalg.eigh(dense_hamiltonian(caps, XI, detuning))
    b = u.conj().T @ rho0 @ u
    idx = np.arange(dh * dw * dc)
    numbers = np.array([idx // (dw * dc), (idx // dc) % dw, idx % dc], dtype=float)
    out = np.empty((3, t_grid.size))
    for k, t in enumerate(t_grid):
        phase = np.exp(-1j * evals * t)
        rho_t = (phase[:, None] * b) * np.conj(phase)[None, :]
        out[:, k] = numbers @ np.einsum("ki,ij,kj->k", u, rho_t, u.conj()).real
    return out


@pytest.mark.parametrize("kinds,caps,detuning_khz", [
    (("thermal", "thermal", "thermal"), (6, 6, 6), 0.0),
    (("coherent", "squeezed", "fock"), (7, 4, 5), 3.0),
    (("squeezed", "fock", "coherent"), (3, 8, 5), -40.0),
    (("fock", "coherent", "squeezed"), (5, 5, 2), 0.0),
    (("squeezed", "squeezed", "squeezed"), (6, 6, 6), 1.0),
], ids=["thermal", "coherent_squeezed_fock_detuned", "squeezed_fock_coherent_detuned",
        "fock_coherent_squeezed", "squeezed_detuned"])
def test_dense_oracle_matches_the_density_matrix_evolution(kinds, caps, detuning_khz):
    """The real quadratic forms c^T w c + s^T w s give the means of the
    per-time density matrix to 1e-13, coherences kept, with unequal caps and
    detuning."""
    preps = tuple(_KINDS[kind] for kind in kinds)
    detuning = TWO_PI * detuning_khz * 1e3
    grid = np.concatenate(_ORACLE_GRIDS)
    np.testing.assert_allclose(dense_oracle_evolve(preps, XI, grid, caps, detuning),
                               _density_matrix_oracle(preps, grid, caps, detuning),
                               rtol=0, atol=1e-13)


def test_dense_oracle_rejects_an_imaginary_density(monkeypatch):
    """The oracle evaluates in real arithmetic, so a preparation density with
    an imaginary part above 1e-12 raises instead of losing it; one at
    rounding level gives the real density's means."""
    preps = (ModePrep.thermal_state(0.3),) * 3
    grid = np.linspace(0.0, 400e-6, 5)
    real = dense_oracle_evolve(preps, XI, grid, (3, 3, 3))
    coherence = np.zeros((4, 4), dtype=complex)
    coherence[0, 1], coherence[1, 0] = 1j, -1j
    for scale, raises in ((1e-9, True), (1e-14, False)):
        monkeypatch.setattr("ionfridge.oracle.prep_density", lambda prep, dim, scale=scale:
                            prep_density(prep, dim) + scale * coherence[:dim, :dim])
        if raises:
            with pytest.raises(DomainError, match="imaginary part"):
                dense_oracle_evolve(preps, XI, grid, (3, 3, 3))
        else:
            np.testing.assert_allclose(dense_oracle_evolve(preps, XI, grid, (3, 3, 3)), real,
                                       rtol=0, atol=1e-15)


def test_dense_oracle_traced_peak_is_pinned():
    """At caps 6 (dimension 343) the oracle holds a few real D x D arrays at
    once: traced peak below 6 MB.  The per-time complex density matrices and
    the einsum's complex copies of u took it to 9.1 MB."""
    preps = tuple(ModePrep.thermal_state(v) for v in (0.3, 0.5, 0.4))
    grid = np.linspace(0.0, 400e-6, 10)
    dense_oracle_evolve(preps, XI, grid, (6, 6, 6))
    tracemalloc.start()
    try:
        dense_oracle_evolve(preps, XI, grid, (6, 6, 6))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6 * 2 ** 20


def _number_diagonal_oracle(caps, detuning, t_grid):
    """Dense means and per-mode marginals from the number-basis diagonals of
    the preparation densities: the phase-randomized product state, evolved
    exactly.  Returns a function of the three preparations giving the means,
    shape (3, len(t_grid)), and the (hot, work, cold) marginals, each of
    shape (cap + 1, len(t_grid))."""
    dims = [c + 1 for c in caps]
    evals, u = np.linalg.eigh(dense_hamiltonian(caps, XI, detuning))
    idx = np.arange(evals.size)
    numbers = np.array([idx // (dims[1] * dims[2]), (idx // dims[2]) % dims[1],
                        idx % dims[2]], dtype=float)
    # populations move by |<k|U(t)|j>|^2 from a diagonal initial state
    transfer = np.array([np.abs((u * np.exp(-1j * evals * t)) @ u.T) ** 2 for t in t_grid])

    @functools.cache
    def diagonal(prep, dim):
        return np.diag(prep_density(prep, dim)).real

    def evolve(preps):
        p0 = np.ones(1)
        for prep, dim in zip(preps, dims):
            p0 = np.kron(p0, diagonal(prep, dim))
        pops = (transfer @ p0).reshape(-1, *dims)
        marginals = tuple(pops.sum(axis=tuple({1, 2, 3} - {axis})).T for axis in (1, 2, 3))
        return numbers @ pops.reshape(len(t_grid), -1).T, marginals
    return evolve


def _seeded_preps(seed):
    rng = np.random.default_rng(seed)
    return {"thermal": ModePrep.thermal_state(rng.uniform(0.2, 0.6)),
            "coherent": ModePrep(kind="coherent", alpha_sq=rng.uniform(0.3, 0.7)),
            "squeezed": ModePrep.squeezed_thermal_state(rng.uniform(0.0, 0.3),
                                                        rng.uniform(0.3, 0.5)),
            "fock": ModePrep(kind="fock", n_fock=int(rng.integers(0, 3)))}


def _drawn_prep(rng, cap):
    kind = rng.choice(["thermal", "coherent", "squeezed", "fock"])
    if kind == "thermal":
        return ModePrep.thermal_state(rng.uniform(0.05, 1.0))
    if kind == "coherent":
        return ModePrep(kind="coherent", alpha_sq=rng.uniform(0.05, 1.0))
    if kind == "squeezed":
        return ModePrep.squeezed_thermal_state(rng.uniform(0.0, 0.5), rng.uniform(0.05, 0.6))
    return ModePrep(kind="fock", n_fock=int(rng.integers(0, min(cap, 3) + 1)))


def _drawn_case(seed):
    """Seeded caps (2 to the oracle's MAX_CAP), detuning and three preparation
    triples, each mode's kind, nbar and r drawn independently."""
    rng = np.random.default_rng([seed, 16])
    caps = tuple(int(c) for c in rng.integers(2, MAX_CAP + 1, 3))
    return (caps, float(rng.uniform(-50.0, 50.0)),
            [tuple(_drawn_prep(rng, cap) for cap in caps) for _ in range(3)])


_KINDS = _seeded_preps(11)
_WINDOWED_CAPS = (7, 4, 5)
#: a uniform grid (the rows + offsets tableau), a non-uniform one (one column)
#: and single points, all well below the phase-overflow limit
_ORACLE_GRIDS = (np.linspace(0.0, 400e-6, 9), np.array([0.0, 3e-6, 4e-6, 50e-6, 51e-6, 600e-6]),
                 np.array([0.0]), np.array([137e-6]), np.array([1e-3]))


_WINDOWED_TRIPLE = (_KINDS["coherent"], _KINDS["squeezed"], _KINDS["coherent"])
_DRAWN = [_drawn_case(seed) for seed in range(8)]


@pytest.mark.parametrize("caps,detuning_khz,triples", [
    ((6, 6, 6), 0.0, list(itertools.product(_KINDS.values(), repeat=3))),
    ((6, 6, 6), -40.0, list(itertools.product(_KINDS.values(), repeat=3))),
    (_WINDOWED_CAPS, 3.0, [_WINDOWED_TRIPLE]),
    (_WINDOWED_CAPS, 0.0, [_WINDOWED_TRIPLE]),
] + _DRAWN + [(caps, 0.0, triples) for caps, _, triples in _DRAWN],
    ids=["resonant", "detuned", "windowed", "windowed_resonant"]
    + [f"seeded{seed}" for seed in range(8)] + [f"seeded{seed}_resonant" for seed in range(8)])
def test_preparations_are_phase_randomized(caps, detuning_khz, triples):
    """Sectors hold populations only, so every preparation evolves as its
    phase-randomized (number-diagonal) density: all 64 kind triples agree
    with the dense oracle built from number-diagonal densities, and so do
    seeded draws of the kinds, occupations, caps and detuning, on each
    kernel path (tableau, one column, single points).  The windowed case
    and every seeded draw also run at zero detuning, where the means come
    from the half-size blocks, with unequal caps.  ``marginals_at`` on the
    joined grids matches the oracle's marginals to 1e-14 plus the
    discarded weight, and is zero beyond each cap."""
    detuning = TWO_PI * detuning_khz * 1e3
    policy = TruncationPolicy(epsilon=1e-12, n_max_h=caps[0], n_max_w=caps[1],
                              n_max_c=caps[2])
    oracle = _number_diagonal_oracle(caps, detuning, np.concatenate(_ORACLE_GRIDS))
    for preps in triples:
        ens = assemble_initial(preps, policy, XI, detuning)
        assert caps != _WINDOWED_CAPS or (ens.sectors.k_lo > 0).any()
        spectrum = EnsembleSpectrum(ens)
        means, marginals = oracle(preps)
        sector = np.hstack([spectrum.means_at(grid) for grid in _ORACLE_GRIDS])
        np.testing.assert_allclose(sector, means, rtol=0, atol=1e-9)
        # the sector marginals leave out the discarded weight (at most 9.6e-13 here)
        atol = 1e-14 + ens.discarded_weight
        for got, want in zip(spectrum.marginals_at(np.concatenate(_ORACLE_GRIDS)), marginals):
            assert not got[want.shape[0]:].any()            # rows beyond the cap
            rows = min(got.shape[0], want.shape[0])
            np.testing.assert_allclose(got[:rows], want[:rows], rtol=0, atol=atol)
            np.testing.assert_allclose(want[rows:], 0.0, rtol=0, atol=atol)


@pytest.mark.parametrize("detuning_khz,triples",
                         [(detuning_khz, triples) for _, detuning_khz, triples in _DRAWN]
                         + [(0.0, triples) for *_, triples in _DRAWN],
                         ids=[f"seeded{seed}" for seed in range(8)]
                         + [f"seeded{seed}_resonant" for seed in range(8)])
def test_incoherent_means_match_the_dense_double_commutator_solution(detuning_khz, triples):
    """``incoherent_means_at`` against the exact solution of
    d rho/dt = -xi_in [H, [H, rho]] from the number-diagonal product state,
    rho_ij(t) = b_ij e^{-xi_in (E_i - E_j)^2 t} in the eigenbasis of one
    ``eigh`` of the dense Hamiltonian, at caps 6, on each kernel path
    (tableau, one column, single points), to 1e-12 plus 6 times the
    discarded weight: a discarded sector's share of a mean is its weight
    times a number of at most the cap (up to 5.7e-12 here).  The seeded
    draws' preparations and detunings, and each at zero detuning (the
    half-size blocks)."""
    caps = (6, 6, 6)
    detuning = TWO_PI * detuning_khz * 1e3
    policy = TruncationPolicy(epsilon=1e-12, n_max_h=6, n_max_w=6, n_max_c=6)
    evals, u = np.linalg.eigh(dense_hamiltonian(caps, XI, detuning))
    idx = np.arange(evals.size)
    numbers = np.array([idx // 49, (idx // 7) % 7, idx % 7], dtype=float)
    gap_sq = (evals[:, None] - evals[None, :]) ** 2
    t_grid = np.concatenate(_ORACLE_GRIDS)
    for preps in triples:
        ens = assemble_initial(preps, policy, XI, detuning)
        spectrum = EnsembleSpectrum(ens)
        xi_in = default_incoherence_strength(spectrum)
        p0 = np.ones(1)
        for prep in preps:
            p0 = np.kron(p0, np.diag(prep_density(prep, 7)).real)
        b = u.T @ (p0[:, None] * u)
        pops = np.array([((u @ (b * np.exp(-xi_in * gap_sq * t))) * u).sum(axis=1)
                         for t in t_grid])
        sector = np.hstack([spectrum.incoherent_means_at(grid, xi_in) for grid in _ORACLE_GRIDS])
        np.testing.assert_allclose(sector, numbers @ pops.T, rtol=0,
                                   atol=1e-12 + 6.0 * ens.discarded_weight)


def test_phase_definite_preparations_differ_from_sector_means():
    """The meaning is tested, not assumed: with number-basis coherences in all
    three modes the phase-definite dense evolution is a different answer."""
    kinds = _seeded_preps(11)
    preps = (kinds["coherent"], kinds["squeezed"], kinds["coherent"])
    cap = 6
    policy = TruncationPolicy(epsilon=1e-12, n_max_h=cap, n_max_w=cap, n_max_c=cap)
    grid = np.linspace(0.0, 400e-6, 9)
    sector = EnsembleSpectrum(assemble_initial(preps, policy, XI)).means_at(grid)
    definite = dense_oracle_evolve(preps, XI, grid, (cap, cap, cap))
    assert np.abs(sector - definite).max() > 1e-3


def test_incoherent_zero_strength_matches_unitary_populations():
    """xi_in = 0 leaves every coherence in place, so the initial populations
    (the unitary ones at t = 0) persist at all times."""
    spectrum = EnsembleSpectrum(_thermal_ensemble((0.4, 1.1, 0.7)))
    means = spectrum.incoherent_means_at(np.array([0.0, 63e-6, 1.0]), 0.0)
    at_zero = spectrum.means_at(np.array([0.0]))
    np.testing.assert_allclose(means, np.repeat(at_zero, 3, axis=1), rtol=1e-12)


def test_incoherent_long_time_limit_is_dephased():
    spectrum = EnsembleSpectrum(_thermal_ensemble((0.4, 1.1, 0.7)))
    xi_in = default_incoherence_strength(spectrum)
    assert xi_in > 0.0
    late = spectrum.incoherent_means_at(np.array([1.0]), xi_in)[:, 0]
    deph = spectrum.dephased_moments()
    assert late[2] == pytest.approx(deph.nbar_c, abs=1e-9)
    assert late[0] == pytest.approx(deph.nbar_h, abs=1e-9)


def test_incoherent_means_at_interpolates_between_limits():
    spectrum = EnsembleSpectrum(_single_quantum_ensemble())
    xi_in = default_incoherence_strength(spectrum)
    t_grid = np.linspace(0.0, 10e-3, 9)
    means = spectrum.incoherent_means_at(t_grid, xi_in)
    deph = spectrum.dephased_moments()
    # monotone relaxation of <n_c> from 1 toward the dephased value 0.5
    nc = means[2]
    assert nc[0] == pytest.approx(1.0, abs=1e-12)
    assert np.all(np.diff(nc) <= 1e-12)
    assert nc[-1] == pytest.approx(deph.nbar_c, abs=1e-6)


def test_incoherent_means_at_rejects_bad_inputs():
    spectrum = EnsembleSpectrum(_single_quantum_ensemble())
    # an infinite strength gave NaN at t = 0 (-inf * 0)
    for xi_in in (-1.0, math.nan, math.inf):
        with pytest.raises(DomainError):
            spectrum.incoherent_means_at(np.array([0.0, 1e-6]), xi_in)
    for t_grid in ([0.0, -1e-6], [0.0, math.inf], [math.nan]):
        with pytest.raises(DomainError):
            spectrum.incoherent_means_at(np.array(t_grid), 1.0)


@pytest.mark.parametrize("t_grid", [[math.inf, math.nan], [0.0, 1e-6, math.inf], [-math.inf]],
                         ids=["inf_nan", "trailing_inf", "minus_inf"])
def test_means_at_rejects_non_finite_times(t_grid):
    """Before, a non-finite time gave all-NaN means without an error."""
    with pytest.raises(DomainError, match="finite"):
        EnsembleSpectrum(_single_quantum_ensemble()).means_at(np.array(t_grid))


def test_unitary_views_reject_overflowing_phases():
    """A finite time whose phase g t overflows raises; before, means_at gave
    [nan, nan, nan] and marginals_at NaN sums at t = 1e305 (cos(inf)).  The
    incoherent kernel is exp(-xi_in g^2 t), so it stays finite there."""
    spectrum = EnsembleSpectrum(_thermal_ensemble((0.4, 0.4, 0.4)))
    assert math.isinf(float(spectrum.gaps.max()) * 1e305)
    for view in (spectrum.means_at, spectrum.marginals_at):
        with pytest.raises(DomainError, match="phase"):
            view(np.array([0.0, 1e305]))
    finite = 1.0 / float(spectrum.gaps.max())
    assert np.all(np.isfinite(spectrum.means_at(np.array([0.0, finite]))))
    with np.errstate(over="ignore"):
        late = spectrum.incoherent_means_at(np.array([1e305]), 1e-12)[:, 0]
    np.testing.assert_allclose(late, [getattr(spectrum.dephased_moments(), f"nbar_{m}") for m in "hwc"], rtol=1e-12)


def test_default_incoherence_strength_edge_cases():
    # vacuum ensemble: single 1x1 sector, no coherences -> 0
    vac = (ModePrep(kind="fock", n_fock=0),) * 3
    ens = assemble_initial(vac, TruncationPolicy(epsilon=1e-9), xi=XI)
    assert default_incoherence_strength(EnsembleSpectrum(ens)) == 0.0
    with pytest.raises(DomainError):
        default_incoherence_strength(EnsembleSpectrum(_single_quantum_ensemble(xi=0.0)))


def test_zero_coupling_keeps_the_initial_state():
    """At xi = 0 nothing moves: the number basis is the eigenbasis, so the
    dephased moments are the initial means and means_at is constant.  A
    resonant solve in the basis of the zero-detuning J would dephase what
    does not evolve (nbar_h 1.048 against 0.66 here)."""
    preps = tuple(ModePrep.thermal_state(v) for v in (0.66, 4.44, 2.63))
    ens = assemble_initial(preps, TruncationPolicy(epsilon=1e-4), xi=0.0)
    spectrum = EnsembleSpectrum(ens)
    initial = _initial_means(ens)
    np.testing.assert_allclose(spectrum.dephased_moments(), initial, rtol=1e-13)
    means = spectrum.means_at(np.linspace(0.0, 700e-6, 29))
    np.testing.assert_allclose(means, np.repeat(initial[:, None], 29, axis=1), rtol=1e-13)


@pytest.mark.parametrize("caps", [(None, None, None), (7, 4, 5)], ids=["uncapped", "windowed"])
def test_resonant_eigenpairs_diagonalize_every_sector(caps):
    """The zero-detuning eigenpairs, solved when ``eig`` is first read,
    against each sector Hamiltonian built here: every dimension from 1 to
    the largest, both parities, orthonormal vectors, H vec = vec diag(lam),
    ascending lam and b = vec.T diag(pops) vec."""
    preps = (ModePrep.thermal_state(0.8), ModePrep.squeezed_thermal_state(0.5, 0.7),
             ModePrep.thermal_state(1.2))
    policy = TruncationPolicy(epsilon=1e-9, n_max_h=caps[0], n_max_w=caps[1], n_max_c=caps[2])
    ens = assemble_initial(preps, policy, XI)
    spectrum = EnsembleSpectrum(ens)
    assert "eig" not in vars(spectrum)
    dims = set(ens.sectors.dim.tolist())
    assert dims == set(range(1, max(dims) + 1)) and max(dims) >= 5
    assert caps[0] is None or (ens.sectors.k_lo > 0).any()
    for (N, M, k_lo, dim, start), (lam, vec, b) in zip(
            ens.sectors[["N", "M", "k_lo", "dim", "start"]].tolist(), spectrum.eig):
        k = k_lo + np.arange(dim - 1)
        t = XI * np.sqrt((k + 1.0) * (N - k) * (M - k))
        ham = np.diag(t, 1) + np.diag(t, -1)
        scale = max(1.0, np.abs(lam).max())
        np.testing.assert_allclose(vec.T @ vec, np.eye(dim), rtol=0, atol=1e-13)
        np.testing.assert_allclose(ham @ vec, vec * lam, rtol=0, atol=1e-12 * scale)
        assert np.all(np.diff(lam) > 0.0)
        pops = ens.pops[start:start + dim]
        np.testing.assert_allclose(b, vec.T @ (pops[:, None] * vec), rtol=0, atol=1e-15)


def test_marginals_sum_to_retained_weight(thermal_triple, small_policy):
    ens = assemble_initial(thermal_triple, small_policy, xi=XI)
    margs = EnsembleSpectrum(ens).marginals_at(np.zeros(1))
    w = ens.retained_weight
    assert w == pytest.approx(1.0, abs=2e-4)
    for marg in margs:
        assert marg.sum() == pytest.approx(w, rel=1e-10)
    means = [np.arange(marg.shape[0]) @ marg[:, 0] for marg in margs]
    np.testing.assert_allclose(means, _initial_means(ens), rtol=1e-13)


def _capped_spectrum(detuning_khz=3.0):
    """A capped (windowed), squeezed-work ensemble's spectrum, detuned by
    default; at zero detuning its means come from the half-size blocks."""
    preps = (ModePrep.thermal_state(0.8), ModePrep.squeezed_thermal_state(0.5, 0.7),
             ModePrep.thermal_state(1.2))
    policy = TruncationPolicy(epsilon=1e-6, n_max_h=7, n_max_w=5, n_max_c=6)
    ens = assemble_initial(preps, policy, XI, detuning=TWO_PI * detuning_khz * 1e3)
    assert (ens.sectors.k_lo > 0).any()
    return EnsembleSpectrum(ens)


@pytest.mark.parametrize("detuning_khz", [3.0, 0.0], ids=["detuned", "resonant"])
def test_means_at_match_means_of_marginals_at(detuning_khz):
    """The projected hot-mode sum against the independent per-mode
    accumulation over the d x d ``eig``, on a capped (windowed),
    squeezed-work ensemble, detuned and at resonance."""
    spectrum = _capped_spectrum(detuning_khz)
    t_grid = np.linspace(0.0, 700e-6, 37)
    margs = spectrum.marginals_at(t_grid)
    from_marginals = np.array([np.arange(m.shape[0]) @ m for m in margs])
    np.testing.assert_allclose(spectrum.means_at(t_grid), from_marginals, rtol=0, atol=1e-12)


def test_grid_longer_than_one_kernel_block_matches_point_calls():
    """A uniform grid whose factor blocks take several blocks of gaps."""
    spectrum = EnsembleSpectrum(_thermal_ensemble((0.66, 2.16, 2.63), epsilon=1e-4))
    t_grid = np.linspace(0.0, 700e-6, 1000)
    rows, offsets = 32, 32              # the 1000-point tableau, last row padded
    assert _KERNEL_BLOCK // (rows + offsets) < spectrum.gaps.size / 2
    xi_in = default_incoherence_strength(spectrum)
    for means_at in (spectrum.means_at,
                     lambda t: spectrum.incoherent_means_at(t, xi_in)):
        points = np.hstack([means_at(np.array([t])) for t in t_grid])
        np.testing.assert_allclose(means_at(t_grid), points, rtol=0, atol=1e-13)


def _direct_means(spectrum, t_grid, kernel):
    """Means summed over every eigenvalue pair (i, j) of every sector,
    from ``eig`` alone: n_h(t) = sum_s w_s sum_ij b_ij A_ij kernel(lam_j - lam_i, t)."""
    sec = spectrum.ensemble.sectors
    n_h = np.zeros(t_grid.size)
    for (N, M, weight, k_lo, dim, _), (lam, vec, b) in zip(sec.tolist(), spectrum.eig):
        a = vec.T @ ((k_lo + np.arange(dim))[:, None] * vec)
        gaps = lam[None, :] - lam[:, None]
        n_h += weight * np.einsum("ij,tij->t", b * a, kernel(gaps[None], t_grid[:, None, None]))
    return np.array([n_h, sec.weight @ sec.N - n_h, sec.weight @ sec.M - n_h])


_DIRECT_GRIDS = {**{f"uniform{n}": np.linspace(13e-6, 700e-6, n) for n in (2, 3, 7, 17, 30, 281)},
                 "non_uniform": np.array([0.0, 3e-6, 4e-6, 50e-6, 51e-6, 600e-6]),
                 "one_point": np.array([250e-6])}


@pytest.mark.parametrize("t_grid,detuning_khz",
                         [(grid, 3.0) for grid in _DIRECT_GRIDS.values()]
                         + [(grid, 0.0) for grid in _DIRECT_GRIDS.values()],
                         ids=list(_DIRECT_GRIDS) + [f"{name}_resonant" for name in _DIRECT_GRIDS])
def test_means_match_a_direct_kernel_over_unmerged_pairs(t_grid, detuning_khz):
    """The gap table and the rows + offsets tableau against cos(g t) and
    exp(-xi_in g^2 t) taken directly at every time and every pair of the
    d x d ``eig``; at resonance this also checks the half-size table."""
    spectrum = _capped_spectrum(detuning_khz)
    xi_in = default_incoherence_strength(spectrum)
    np.testing.assert_allclose(spectrum.means_at(t_grid),
                               _direct_means(spectrum, t_grid, lambda g, t: np.cos(g * t)),
                               rtol=0, atol=1e-12)
    np.testing.assert_allclose(spectrum.incoherent_means_at(t_grid, xi_in),
                               _direct_means(spectrum, t_grid,
                                             lambda g, t: np.exp(-xi_in * g * g * t)),
                               rtol=0, atol=1e-12)


def test_gap_table_holds_one_block_per_distinct_matrix():
    """Mirror sectors (N, M) and (M, N) share a matrix, so the table takes
    each distinct matrix's pairs once, its sectors' populations summed: the
    coefficients sum to the per-sector pair sum over ``eig``, and the table
    holds d(d - 1)/2 gaps per distinct d x d matrix when detuned, or
    n^2 + n (d mod 2), n = floor(d/2), from the half-size blocks at
    resonance.  Both ensembles hold mirror pairs, so the table is shorter
    than the per-sector pairs."""
    for spectrum, resonant in ((_capped_spectrum(), False),
                               (EnsembleSpectrum(_thermal_ensemble((0.66, 2.16, 2.63))), True)):
        sec = spectrum.ensemble.sectors
        per_sector = 0.0
        for (weight, k_lo, dim), (lam, vec, b) in zip(sec[["weight", "k_lo", "dim"]].tolist(),
                                                      spectrum.eig):
            a = vec.T @ ((k_lo + np.arange(dim))[:, None] * vec)
            i, j = np.triu_indices(dim, 1)
            per_sector += 2.0 * weight * (b * a)[i, j].sum()
        assert spectrum.coef.sum() == pytest.approx(per_sector, abs=1e-14)
        keys = {(min(N, M), max(N, M), k_lo, dim)
                for N, M, k_lo, dim in sec[["N", "M", "k_lo", "dim"]].tolist()}
        d = np.array([dim for *_, dim in keys])
        n = d // 2
        assert spectrum.gaps.size == (n * n + n * (d % 2) if resonant else d * (d - 1) // 2).sum()
        assert spectrum.gaps.size < (sec.dim * (sec.dim - 1) // 2).sum()


#: name -> (exponents z, factor on the times, whether the sums take the real
#: part); "cos" takes e^{g (i t)} at imaginary times, as the means do
_KERNELS = {
    "cos": (np.linspace(-3e5, 3e5, 150), 1j, True),
    "decay": (-np.linspace(0.0, 2e4, 150), 1.0, True),
    "complex": (np.sqrt(np.arange(150) + 1.0) * complex(-600.0, TWO_PI * 50e3), 1.0, False),
    "complex_real": (np.sqrt(np.arange(150) + 1.0) * complex(-600.0, TWO_PI * 50e3), 1.0, True),
    "cos_growth": (np.linspace(-3e5, 3e5, 150), complex(0.01, 1.0), True),
    "no_exponents": (np.zeros(0), 1j, True),
}
_KERNEL_TIMES = {
    "uniform": np.linspace(0.5e-6, 150e-6, 300),
    "two_point": np.array([3e-6, 40e-6]),
    "negative": np.linspace(-150e-6, -0.5e-6, 300),
    "non_uniform": np.sort(np.random.default_rng(4).uniform(0.0, 150e-6, 40)),
    "one_point": np.array([42e-6]),
    "empty": np.zeros(0),
}


@pytest.mark.parametrize("block", [None, 100], ids=["one_block", "small_blocks"])
@pytest.mark.parametrize("cols", [1, 4], ids=["one_column", "four_columns"])
@pytest.mark.parametrize("times", list(_KERNEL_TIMES))
@pytest.mark.parametrize("kernel", list(_KERNELS))
def test_kernel_sums_match_direct_sums(monkeypatch, kernel, times, cols, block):
    """sum_j coef[j, k] e^{z_j t_i}, or its real part, at real, imaginary or
    complex times, against e^{z t} taken at every time and exponent, to
    1e-12 of sum_j |coef[j, k]|; with no exponents the sums are zero.  Real
    gaps at complex times with ``real`` ("cos_growth") take the exponential
    where imaginary times take the cosine.  The two-point grid is a tableau
    of one row.  A block of 100 complex factors cuts the 150 exponents into
    blocks of 2 on the 300-point grids (17 rows and 18 offsets), 33 on the
    two-point grid, 2 on the non-uniform one and 100 at one point."""
    z, factor, real = _KERNELS[kernel]
    t = factor * _KERNEL_TIMES[times]
    if block is not None:
        monkeypatch.setattr(dynamics, "_KERNEL_BLOCK", block)
    coef = np.random.default_rng(cols).normal(size=(z.size, cols))
    sums = _kernel_sums(t, z, coef, real=real)
    assert sums.shape == (t.size, cols)
    assert np.isrealobj(sums) == (real or np.isrealobj(t) and np.isrealobj(z))
    direct = np.exp(np.outer(t, z))
    bound = np.abs(coef).sum(axis=0)
    np.testing.assert_allclose(sums, (direct.real if real else direct) @ coef,
                               rtol=0, atol=1e-12 * bound.max())


@functools.cache
def _relaxation_thermal_spectrum():
    """The spectrum of ``scenarios/relaxation_thermal.json`` (18,764 gaps)."""
    return EnsembleSpectrum(build_ensemble(load_scenario(
        pathlib.Path(__file__).resolve().parents[1] / "scenarios" / "relaxation_thermal.json")))


@pytest.mark.parametrize("stop,bound", [(1.0, 3e-12), (10.0, 3e-11), (1e3, 3e-9)],
                         ids=["1s", "10s", "1000s"])
def test_long_time_means_match_an_unmerged_long_double_sum(stop, bound):
    """Powers of e^{i g dt} accumulate phase, so the means on a 281-point
    uniform grid to ``stop`` (the tableau) and at its points one at a time
    (one column) are checked against n_h summed over every pair of every
    sector in long double, at every tenth grid point.  The bounds are about 4x
    the errors of cos and sin taken at every row and offset (6.4e-13,
    6.3e-12, 8.0e-10 on the whole grid)."""
    spectrum = _relaxation_thermal_spectrum()
    sec = spectrum.ensemble.sectors
    gaps, coef = [], []
    for (weight, k_lo, dim), (lam, vec, b) in zip(sec[["weight", "k_lo", "dim"]].tolist(),
                                                  spectrum.eig):
        a = vec.T @ ((k_lo + np.arange(dim))[:, None] * vec)
        i, j = np.triu_indices(dim, 1)
        gaps.append(lam[j].astype(np.longdouble) - lam[i])
        coef.append(2.0 * weight * (b * a)[i, j])
    gaps, coef = np.concatenate(gaps), np.concatenate(coef).astype(np.longdouble)
    t_grid = np.linspace(0.0, stop, 281)
    exact = np.array([float(coef @ np.cos(gaps * t)) for t in t_grid[::10].astype(np.longdouble)])
    tableau = spectrum.means_at(t_grid)[0, ::10]
    points = np.hstack([spectrum.means_at(t[None])[0] for t in t_grid[::10]])
    for n_h in (tableau, points):
        assert np.abs(n_h - spectrum.nh_dephased - exact).max() < bound


def test_kernel_and_eigensolve_work_is_pinned(monkeypatch):
    """Work counts, no timing, on ``scenarios/relaxation_thermal.json``: the
    resonant sectors take one eigensolve of size dim // 2 per distinct
    (min(N, M), max(N, M), k_lo, dim) with dim >= 2, 666 matrices and
    sum (dim // 2)^3 = 124,753, for 18,764 gaps.  The first read of ``eig``
    adds one d x d solve per distinct key, 721 matrices and
    sum d^3 = 1,102,276, the mirror sectors (N, M) and (M, N) sharing it,
    bit for bit; a second read solves nothing.  The map of distinct
    matrices is built once per spectrum, however often ``eig`` and
    ``marginals_at`` read it (before, reading ``eig`` built it again).  Its
    3 kHz twin takes the same 721 d x d solves for 34,629 gaps, one per pair
    of each distinct matrix (the 54,667 pairs of its sectors are never
    built), and reading its ``eig`` and ``marginals_at`` adds none: its
    gap table and ``eig`` read one list of solves (before, 1,442 in
    total).  On either, the 281-point grid takes at most three exponentials
    (e^{i g t_0}, e^{i g cols dt}, e^{i g dt}) per gap and no cos or sin."""
    ens = _relaxation_thermal_spectrum().ensemble
    solved = collections.Counter()
    eigh = np.linalg.eigh

    def counted_eigh(a, *args, **kwargs):
        solved[np.shape(a)[-1]] += int(np.prod(np.shape(a)[:-2]))
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counted_eigh)
    maps = []
    distinct = dynamics._distinct_matrices

    def counted_distinct(*args):
        maps.append(None)
        return distinct(*args)

    monkeypatch.setattr(dynamics, "_distinct_matrices", counted_distinct)
    spectrum = EnsembleSpectrum(ens)
    sec = ens.sectors
    keys = {(min(N, M), max(N, M), k_lo, dim)
            for N, M, k_lo, dim in sec[["N", "M", "k_lo", "dim"]].tolist()}
    assert solved == collections.Counter(dim // 2 for *_, dim in keys if dim >= 2)
    assert sum(solved.values()) == 666
    assert sum(n ** 3 * count for n, count in solved.items()) == 124_753
    assert spectrum.gaps.size == 18_764
    solved.clear()
    eig = spectrum.eig
    assert solved == collections.Counter(dim for *_, dim in keys)
    assert sum(solved.values()) == 721
    assert sum(d ** 3 * count for d, count in solved.items()) == 1_102_276
    index = {(N, M): s for s, (N, M) in enumerate(sec[["N", "M"]].tolist())}
    mirrored = 0
    for (N, M), s in index.items():
        m = index.get((M, N))
        if m is not None and N != M:
            mirrored += 1
            assert eig[s][0].tobytes() == eig[m][0].tobytes()
            assert eig[s][1].tobytes() == eig[m][1].tobytes()
    assert mirrored > 0
    assert spectrum.eig is eig and sum(solved.values()) == 721    # a second read
    spectrum.marginals_at(np.linspace(0.0, 700e-6, 3))
    assert len(maps) == 1
    solved.clear()
    detuned = EnsembleSpectrum(dataclasses.replace(ens, detuning=TWO_PI * 3e3))
    assert solved == collections.Counter(dim for *_, dim in keys)
    assert detuned.gaps.size == 34_629
    detuned.marginals_at(np.linspace(0.0, 700e-6, 3))
    assert len(maps) == 2
    assert sum(solved.values()) == 721
    assert int((sec.dim * (sec.dim - 1) // 2).sum()) == 54_667

    elements = {"exp": 0, "cos": 0, "sin": 0}
    for name in elements:
        def counted(x, *args, _name=name, _f=getattr(np, name), **kwargs):
            elements[_name] += np.size(x)
            return _f(x, *args, **kwargs)
        monkeypatch.setattr(np, name, counted)
    for grid_spectrum in (spectrum, detuned):
        elements.update(exp=0)
        grid_spectrum.means_at(np.linspace(0.0, 700e-6, 281))
        assert elements["cos"] == elements["sin"] == 0
        assert 0 < elements["exp"] <= 3 * grid_spectrum.gaps.size


def test_ensemble_above_the_pair_limit_is_rejected(monkeypatch):
    """The eigenvalue pairs sum d(d - 1)/2 are counted before any eigensolve;
    before the limit, an ensemble of 3.8e7 pairs ran for 42 s in 1.1 GiB
    on a 2-vCPU x86-64 host."""
    ens = _thermal_ensemble((0.4, 1.1, 0.7))
    pairs = int((ens.sectors.dim * (ens.sectors.dim - 1) // 2).sum())
    monkeypatch.setattr(dynamics, "MAX_SECTOR_PAIRS", pairs - 1)
    with pytest.raises(DomainError, match=f"{pairs} eigenvalue pairs.*MAX_SECTOR_PAIRS"):
        EnsembleSpectrum(ens)
    monkeypatch.setattr(dynamics, "MAX_SECTOR_PAIRS", pairs)
    assert EnsembleSpectrum(ens).gaps.size > 0
