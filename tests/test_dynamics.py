"""Sector dynamics: Hamiltonian structure and the spectral views (unitary,
dephased, incoherent), checked against closed forms and the dense oracle."""

import math

import numpy as np
import pytest

from ionfridge.dynamics import (EnsembleSpectrum, assemble_initial,
                                build_sector_hamiltonian,
                                default_incoherence_strength, mean_phonons)
from ionfridge.errors import DomainError
from ionfridge.fockspace import SectorLabel, TruncationPolicy
from ionfridge.oracle import dense_oracle_evolve
from ionfridge.states import ModePrep

TWO_PI = 2.0 * math.pi
XI = TWO_PI * 1.32e3


def test_sector_hamiltonian_matrix_elements():
    ham = build_sector_hamiltonian(SectorLabel(2, 3), xi=1.0)
    # offdiag[k] = sqrt((k+1)(N-k)(M-k))
    np.testing.assert_allclose(ham.offdiag, [math.sqrt(6.0), 2.0], rtol=1e-15)
    np.testing.assert_allclose(ham.diag, [0.0, 0.0, 0.0])
    assert ham.dim == 3

    detuned = build_sector_hamiltonian(SectorLabel(2, 3), xi=1.0, detuning=0.5)
    np.testing.assert_allclose(detuned.diag, [0.0, 0.5, 1.0])


def test_sector_hamiltonian_window():
    ham = build_sector_hamiltonian(SectorLabel(4, 4), xi=1.0, window=(1, 3))
    assert ham.k_lo == 1
    assert ham.dim == 3
    k = np.arange(1, 3)
    np.testing.assert_allclose(ham.offdiag, np.sqrt((k + 1.0) * (4 - k) * (4 - k)))
    with pytest.raises(DomainError):
        build_sector_hamiltonian(SectorLabel(4, 4), xi=1.0, window=(3, 1))
    with pytest.raises(DomainError):
        build_sector_hamiltonian(SectorLabel(2, 2), xi=1.0, window=(0, 3))
    with pytest.raises(DomainError):
        build_sector_hamiltonian(SectorLabel(2, 2), xi=-1.0)


def _single_quantum_ensemble(xi=XI):
    """|0, 1, 1> lives in the two-state sector (N, M) = (1, 1)."""
    preps = (ModePrep.fock_state(0), ModePrep.fock_state(1), ModePrep.fock_state(1))
    return assemble_initial(preps, TruncationPolicy(epsilon=1e-12), xi=xi)


def _thermal_ensemble(nbars, epsilon=1e-5):
    preps = tuple(ModePrep.thermal_state(v) for v in nbars)
    return assemble_initial(preps, TruncationPolicy(epsilon=epsilon), xi=XI)


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
    assert spectrum.min_eigenvalue_gap() == pytest.approx(2.0 * XI, rel=1e-12)


def test_zero_time_is_identity():
    ens = _thermal_ensemble((0.4, 0.9, 0.6), epsilon=1e-6)
    m0 = mean_phonons(ens)
    m1 = EnsembleSpectrum(ens).means_at(np.array([0.0]))[:, 0]
    for a, b in zip(m0[:3], m1):
        assert a == pytest.approx(b, rel=1e-13)


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
    for marg, initial in zip(margs, mean_phonons(ens).marginals):
        np.testing.assert_allclose(marg[:, 0], initial, rtol=0, atol=1e-14)


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
    np.testing.assert_allclose(late, dm[:3], rtol=0, atol=1e-4)
    # the dephased state keeps both conserved sums of the initial one
    m0 = mean_phonons(ens)
    assert dm.nbar_h + dm.nbar_w == pytest.approx(m0.nbar_h + m0.nbar_w, abs=1e-12)
    assert dm.nbar_h + dm.nbar_c == pytest.approx(m0.nbar_h + m0.nbar_c, abs=1e-12)


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
    for xi_in in (-1.0, math.nan):
        with pytest.raises(DomainError):
            spectrum.incoherent_means_at(np.array([0.0, 1e-6]), xi_in)
    with pytest.raises(DomainError):
        spectrum.incoherent_means_at(np.array([0.0, -1e-6]), 1.0)


def test_default_incoherence_strength_edge_cases():
    # vacuum ensemble: single 1x1 sector, no coherences -> 0
    vac = (ModePrep.fock_state(0),) * 3
    ens = assemble_initial(vac, TruncationPolicy(epsilon=1e-9), xi=XI)
    assert default_incoherence_strength(EnsembleSpectrum(ens)) == 0.0
    with pytest.raises(DomainError):
        default_incoherence_strength(EnsembleSpectrum(_single_quantum_ensemble(xi=0.0)))


def test_marginals_sum_to_retained_weight(thermal_triple, small_policy):
    ens = assemble_initial(thermal_triple, small_policy, xi=XI)
    m = mean_phonons(ens)
    w = ens.retained_weight
    assert w == pytest.approx(1.0, abs=2e-4)
    for marg in m.marginals:
        assert marg.sum() == pytest.approx(w, rel=1e-10)
