"""Sector dynamics: the assembled sector table and the spectral views
(unitary, dephased, incoherent), checked against closed forms and the dense
oracle."""

import functools
import itertools
import math

import numpy as np
import pytest

from ionfridge import dynamics
from ionfridge.dynamics import (_KERNEL_BLOCK, EnsembleSpectrum, _kernel_sums,
                                assemble_from_distributions, assemble_initial,
                                default_incoherence_strength)
from ionfridge.errors import DomainError
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


def test_capped_assembly_rejects_distributions_beyond_the_caps():
    """Mass outside the cap box would weight sectors it cannot evolve in; before,
    such sectors were dropped silently and the rest reported retained weight 0.881."""
    dists = tuple(thermal_distribution(nbar, cutoff=300) for nbar in (0.5, 0.8, 0.6))
    policy = TruncationPolicy(epsilon=1e-4, n_max_h=2, n_max_w=2, n_max_c=2)
    with pytest.raises(DomainError, match="cap"):
        assemble_from_distributions(dists, policy, XI)


def _single_quantum_ensemble(xi=XI):
    """|0, 1, 1> lives in the two-state sector (N, M) = (1, 1)."""
    preps = (ModePrep.fock_state(0), ModePrep.fock_state(1), ModePrep.fock_state(1))
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
    np.testing.assert_allclose(late, dm.as_tuple(), rtol=0, atol=1e-4)
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


def _number_diagonal_oracle(caps, detuning, t_grid):
    """Dense means from the number-basis diagonals of the preparation
    densities: the phase-randomized product state, evolved exactly.  Returns
    a function of the three preparations."""
    dims = [c + 1 for c in caps]
    evals, u = np.linalg.eigh(dense_hamiltonian(caps, XI, detuning))
    idx = np.arange(evals.size)
    numbers = np.array([idx // (dims[1] * dims[2]), (idx // dims[2]) % dims[1],
                        idx % dims[2]], dtype=float)
    # populations move by |<k|U(t)|j>|^2 from a diagonal initial state
    transfer = np.array([numbers @ np.abs((u * np.exp(-1j * evals * t)) @ u.T) ** 2
                         for t in t_grid])

    @functools.cache
    def diagonal(prep, dim):
        return np.diag(prep_density(prep, dim)).real

    def means(preps):
        p0 = np.ones(1)
        for prep, dim in zip(preps, dims):
            p0 = np.kron(p0, diagonal(prep, dim))
        return (transfer @ p0).T
    return means


def _seeded_preps(seed):
    rng = np.random.default_rng(seed)
    return {"thermal": ModePrep.thermal_state(rng.uniform(0.2, 0.6)),
            "coherent": ModePrep.coherent_state(rng.uniform(0.3, 0.7)),
            "squeezed": ModePrep.squeezed_thermal_state(rng.uniform(0.0, 0.3),
                                                        rng.uniform(0.3, 0.5)),
            "fock": ModePrep.fock_state(int(rng.integers(0, 3)))}


def _drawn_prep(rng, cap):
    kind = rng.choice(["thermal", "coherent", "squeezed", "fock"])
    if kind == "thermal":
        return ModePrep.thermal_state(rng.uniform(0.05, 1.0))
    if kind == "coherent":
        return ModePrep.coherent_state(rng.uniform(0.05, 1.0))
    if kind == "squeezed":
        return ModePrep.squeezed_thermal_state(rng.uniform(0.0, 0.5), rng.uniform(0.05, 0.6))
    return ModePrep.fock_state(int(rng.integers(0, min(cap, 3) + 1)))


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


@pytest.mark.parametrize("caps,detuning_khz,triples", [
    ((6, 6, 6), 0.0, list(itertools.product(_KINDS.values(), repeat=3))),
    ((6, 6, 6), -40.0, list(itertools.product(_KINDS.values(), repeat=3))),
    (_WINDOWED_CAPS, 3.0, [(_KINDS["coherent"], _KINDS["squeezed"], _KINDS["coherent"])]),
] + [_drawn_case(seed) for seed in range(8)],
    ids=["resonant", "detuned", "windowed"] + [f"seeded{seed}" for seed in range(8)])
def test_preparations_are_phase_randomized(caps, detuning_khz, triples):
    """Sectors hold populations only, so every preparation evolves as its
    phase-randomized (number-diagonal) density: all 64 kind triples agree
    with the dense oracle built from number-diagonal densities, and so do
    seeded draws of the kinds, occupations, caps and detuning, on each
    kernel path (tableau, one column, single points)."""
    detuning = TWO_PI * detuning_khz * 1e3
    policy = TruncationPolicy(epsilon=1e-12, n_max_h=caps[0], n_max_w=caps[1],
                              n_max_c=caps[2])
    oracle = _number_diagonal_oracle(caps, detuning, np.concatenate(_ORACLE_GRIDS))
    for preps in triples:
        ens = assemble_initial(preps, policy, XI, detuning)
        assert caps != _WINDOWED_CAPS or (ens.sectors.k_lo > 0).any()
        spectrum = EnsembleSpectrum(ens)
        sector = np.hstack([spectrum.means_at(grid) for grid in _ORACLE_GRIDS])
        np.testing.assert_allclose(sector, oracle(preps), rtol=0, atol=1e-9)


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
    vac = (ModePrep.fock_state(0),) * 3
    ens = assemble_initial(vac, TruncationPolicy(epsilon=1e-9), xi=XI)
    assert default_incoherence_strength(EnsembleSpectrum(ens)) == 0.0
    with pytest.raises(DomainError):
        default_incoherence_strength(EnsembleSpectrum(_single_quantum_ensemble(xi=0.0)))


def test_marginals_sum_to_retained_weight(thermal_triple, small_policy):
    ens = assemble_initial(thermal_triple, small_policy, xi=XI)
    margs = EnsembleSpectrum(ens).marginals_at(np.zeros(1))
    w = ens.retained_weight
    assert w == pytest.approx(1.0, abs=2e-4)
    for marg in margs:
        assert marg.sum() == pytest.approx(w, rel=1e-10)
    means = [np.arange(marg.shape[0]) @ marg[:, 0] for marg in margs]
    np.testing.assert_allclose(means, _initial_means(ens), rtol=1e-13)


def _capped_detuned_spectrum():
    """A capped (windowed), detuned, squeezed-work ensemble's spectrum."""
    preps = (ModePrep.thermal_state(0.8), ModePrep.squeezed_thermal_state(0.5, 0.7),
             ModePrep.thermal_state(1.2))
    policy = TruncationPolicy(epsilon=1e-6, n_max_h=7, n_max_w=5, n_max_c=6)
    ens = assemble_initial(preps, policy, XI, detuning=TWO_PI * 3e3)
    assert (ens.sectors.k_lo > 0).any()
    return EnsembleSpectrum(ens)


def test_means_at_match_means_of_marginals_at():
    """The projected hot-mode sum against the independent per-mode
    accumulation, on a capped (windowed), detuned, squeezed-work ensemble."""
    spectrum = _capped_detuned_spectrum()
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
    """Means summed over every unmerged eigenvalue pair (i, j) of every sector,
    from ``eig`` alone: n_h(t) = sum_s w_s sum_ij b_ij A_ij kernel(lam_j - lam_i, t)."""
    sec = spectrum.ensemble.sectors
    n_h = np.zeros(t_grid.size)
    for (N, M, weight, k_lo, dim, _), (lam, vec, b) in zip(sec.tolist(), spectrum.eig):
        a = vec.T @ ((k_lo + np.arange(dim))[:, None] * vec)
        gaps = lam[None, :] - lam[:, None]
        n_h += weight * np.einsum("ij,tij->t", b * a, kernel(gaps[None], t_grid[:, None, None]))
    return np.array([n_h, sec.weight @ sec.N - n_h, sec.weight @ sec.M - n_h])


@pytest.mark.parametrize("t_grid", [np.linspace(13e-6, 700e-6, n) for n in (2, 3, 7, 17, 30, 281)]
                         + [np.array([0.0, 3e-6, 4e-6, 50e-6, 51e-6, 600e-6]),
                            np.array([250e-6])],
                         ids=[f"uniform{n}" for n in (2, 3, 7, 17, 30, 281)]
                         + ["non_uniform", "one_point"])
def test_means_match_a_direct_kernel_over_unmerged_pairs(t_grid):
    """Merged gaps and the rows + offsets tableau against cos(g t) and
    exp(-xi_in g^2 t) taken directly at every time and every pair."""
    spectrum = _capped_detuned_spectrum()
    xi_in = default_incoherence_strength(spectrum)
    np.testing.assert_allclose(spectrum.means_at(t_grid),
                               _direct_means(spectrum, t_grid, lambda g, t: np.cos(g * t)),
                               rtol=0, atol=1e-12)
    np.testing.assert_allclose(spectrum.incoherent_means_at(t_grid, xi_in),
                               _direct_means(spectrum, t_grid,
                                             lambda g, t: np.exp(-xi_in * g * g * t)),
                               rtol=0, atol=1e-12)


def test_merged_gaps_are_increasing_and_keep_the_coefficients():
    """Merging sums the coefficients of equal gaps: the sum over all pairs i < j
    is kept, and the merged gaps are distinct and sorted.  The resonant
    spectra are symmetric, so there pairs do share gaps."""
    for spectrum, resonant in ((_capped_detuned_spectrum(), False),
                               (EnsembleSpectrum(_thermal_ensemble((0.66, 2.16, 2.63))), True)):
        assert np.all(np.diff(spectrum.gaps) > 0.0)
        unmerged, pairs = 0.0, 0
        for (weight, k_lo, dim), (lam, vec, b) in zip(
                spectrum.ensemble.sectors[["weight", "k_lo", "dim"]].tolist(), spectrum.eig):
            a = vec.T @ ((k_lo + np.arange(dim))[:, None] * vec)
            i, j = np.triu_indices(dim, 1)
            unmerged += 2.0 * weight * (b * a)[i, j].sum()
            pairs += i.size
        assert spectrum.coef.sum() == pytest.approx(unmerged, abs=1e-14)
        assert spectrum.gaps.size <= pairs
        assert spectrum.gaps.size < pairs or not resonant


#: name -> (even, odd, the kernel K taken directly, exponents g)
_KERNELS = {
    "cos": (np.cos, np.sin, np.cos, np.linspace(-3e5, 3e5, 150)),
    "decay": (lambda x: np.exp(-x), None, lambda x: np.exp(-x), np.linspace(0.0, 2e4, 150)),
    "complex": (np.exp, None, np.exp,
                np.sqrt(np.arange(150) + 1.0) * complex(-600.0, TWO_PI * 50e3)),
    "no_exponents": (np.cos, np.sin, np.cos, np.zeros(0)),
}
_KERNEL_TIMES = {
    "uniform": np.linspace(0.5e-6, 150e-6, 300),
    "non_uniform": np.sort(np.random.default_rng(4).uniform(0.0, 150e-6, 40)),
    "one_point": np.array([42e-6]),
    "empty": np.zeros(0),
}


@pytest.mark.parametrize("block", [None, 250], ids=["one_block", "small_blocks"])
@pytest.mark.parametrize("cols", [1, 4], ids=["one_column", "four_columns"])
@pytest.mark.parametrize("times", list(_KERNEL_TIMES))
@pytest.mark.parametrize("kernel", list(_KERNELS))
def test_kernel_sums_match_direct_sums(monkeypatch, kernel, times, cols, block):
    """start + sum_j coef[j, k] K(g_j t_i) against K taken at every time and
    exponent, to 1e-12 of start + sum_j |coef[j, k]|; with no exponents the
    sums are the start.  A block of 250 factor elements cuts the 150
    exponents into blocks of 7 on the uniform grid, 6 on the non-uniform one
    and 125 at one point."""
    even, odd, direct, g = _KERNELS[kernel]
    t = _KERNEL_TIMES[times]
    if block is not None:
        monkeypatch.setattr(dynamics, "_KERNEL_BLOCK", block)
    coef = np.random.default_rng(cols).normal(size=(g.size, cols))
    sums = _kernel_sums(t, g, coef, even, odd, start=0.3)
    assert sums.shape == (t.size, cols)
    bound = 0.3 + np.abs(coef).sum(axis=0)
    np.testing.assert_allclose(sums, 0.3 + direct(np.outer(t, g)) @ coef,
                               rtol=0, atol=1e-12 * bound.max())


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
