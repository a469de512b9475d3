"""Phonon-number distributions and preparation models.

The squeezed families are computed by three-term recurrences: the Taylor
coefficients of the squeezed-thermal generating function, and the
amplitudes <n|S(r)|m> of a squeezed number state.  The second is compared
directly with a dense matrix exponential of the squeeze generator in
``ionfridge.oracle``; both are checked against their closed-form moments
over a grid reaching well past the paper's operating points.
"""

import math

import numpy as np
import pytest

from ionfridge import oracle
from ionfridge.errors import CutoffError, DomainError
from ionfridge.fockspace import TruncationPolicy
from ionfridge.states import (ModePrep, PhononDistribution, coherent_distribution, prep_mean,
                              prep_to_distribution, squeezed_number_distribution,
                              squeezed_thermal_distribution,
                              squeezed_thermal_mean,
                              squeezed_vacuum_distribution,
                              thermal_distribution)


def test_thermal_distribution_form():
    nbar = 0.8
    d = thermal_distribution(nbar, cutoff=120)
    n = np.arange(121)
    expected = nbar ** n / (1.0 + nbar) ** (n + 1)
    expected /= expected.sum()
    np.testing.assert_allclose(d.p, expected, rtol=1e-12)
    assert d.mean == pytest.approx(nbar, rel=1e-9)
    assert d.p.size == 121
    # geometric ratio between neighbours
    np.testing.assert_allclose(d.p[1:] / d.p[:-1], nbar / (1 + nbar), rtol=1e-12)


def test_thermal_nbar_zero_is_vacuum():
    d = thermal_distribution(0.0, cutoff=5)
    assert d.p[0] == 1.0
    assert d.mean == 0.0


def test_coherent_distribution_is_poisson():
    mbar = 2.3
    d = coherent_distribution(mbar, cutoff=80)
    n = np.arange(81)
    log_fact = np.cumsum(np.log(np.maximum(n, 1)))
    expected = np.exp(n * math.log(mbar) - mbar - log_fact)
    np.testing.assert_allclose(d.p, expected / expected.sum(), rtol=1e-10)
    assert d.mean == pytest.approx(mbar, rel=1e-9)


@pytest.mark.parametrize("mbar", [1e-300, 1e-12, 0.3, 2.5, 7.0, 60.0, 150.0])
def test_coherent_ladder_matches_the_log_gamma_ladder(mbar):
    """The Poisson ladder and the oracle's coherent density are built from
    math.lgamma, without scipy; the ladder agrees with scipy's gammaln ladder
    to 1e-11 wherever p > 1e-300, and the density with the gammaln
    amplitudes to 1e-12."""
    from scipy.special import gammaln
    n = np.arange(301)
    raw = np.exp(n * math.log(mbar) - mbar - gammaln(n + 1.0))
    d = coherent_distribution(mbar, cutoff=300, tail_budget=1.0)
    kept = raw > 1e-300
    np.testing.assert_allclose(d.p[kept], (raw / raw.sum())[kept], rtol=1e-11, atol=0.0)
    assert d.tail_mass == pytest.approx(max(0.0, 1.0 - raw.sum()), abs=1e-13)
    amp = np.exp(n * np.log(np.sqrt(mbar)) - 0.5 * mbar - 0.5 * gammaln(n + 1.0))
    np.testing.assert_allclose(oracle.coherent_density(mbar, 301),
                               np.outer(amp, amp) / (amp @ amp), rtol=0, atol=1e-12)


def test_oracle_densities_renormalize_far_below_the_mean():
    """A coherent ladder far shorter than its mean keeps the renormalized
    truncation: a pure state with the Poisson ratios p(n+1)/p(n) = mbar/(n+1).
    Before, every amplitude underflowed and the density was NaN (0 / 0).
    nbar = 0 is the vacuum."""
    rho = oracle.coherent_density(1e3, 9)
    p = np.diag(rho)
    assert p.sum() == pytest.approx(1.0, abs=1e-15) and p[8] > 0.99
    np.testing.assert_allclose(p[1:] / p[:-1], 1e3 / np.arange(1, 9), rtol=1e-12)
    np.testing.assert_allclose(rho, np.sqrt(np.outer(p, p)), rtol=1e-12)
    assert np.array_equal(oracle.thermal_density(0.0, 4), np.diag([1.0, 0.0, 0.0, 0.0]))


@pytest.mark.parametrize("dim", [60, 120, 240])
@pytest.mark.parametrize("theta", [0.0, 0.7])
@pytest.mark.parametrize("r", [0.05, 0.5, 1.34, 2.0])
def test_squeeze_operator_matches_scipy_expm(r, theta, dim):
    """The squeeze operator, exponentiated through numpy's eigh of i G,
    matches scipy's expm of the same generator G to 1e-12."""
    from scipy.linalg import expm
    a = oracle.ladder(dim)
    z = r * np.exp(1j * theta)
    gen = 0.5 * (np.conj(z) * (a @ a) - z * (a.T @ a.T))
    np.testing.assert_allclose(oracle.squeeze_operator(r, theta, dim), expm(gen),
                               rtol=0, atol=1e-12)


def test_vacuum_and_fock_states_are_one_delta():
    """Vacuum limits and Fock preparations are the same delta, with one
    cutoff message."""
    delta = prep_to_distribution(ModePrep(kind="fock", n_fock=0), cutoff=6)
    for d in (thermal_distribution(0.0, cutoff=6), coherent_distribution(0.0, cutoff=6),
              squeezed_number_distribution(0, 0.0, cutoff=6)):
        assert np.array_equal(d.p, delta.p) and (d.mean, d.tail_mass) == (0.0, 0.0)
    for build in (lambda: prep_to_distribution(ModePrep(kind="fock", n_fock=5), cutoff=3),
                  lambda: squeezed_number_distribution(5, 0.0, cutoff=3)):
        with pytest.raises(CutoffError, match="^cutoff 3 below Fock index 5$"):
            build()


def test_squeezed_vacuum_even_support_and_form():
    r = 0.9
    d = squeezed_vacuum_distribution(r, cutoff=100)
    assert np.all(d.p[1::2] == 0.0)
    # p(2m) = (2m)! tanh^{2m} r / ((m!)^2 4^m cosh r)
    for m in (0, 1, 2, 5):
        expected = (math.factorial(2 * m) * math.tanh(r) ** (2 * m)
                    / (math.factorial(m) ** 2 * 4.0 ** m * math.cosh(r)))
        assert d.p[2 * m] == pytest.approx(expected, rel=1e-10)
    assert d.mean == pytest.approx(math.sinh(r) ** 2, rel=1e-9)


@pytest.mark.parametrize("m,r", [(0, 0.6), (1, 0.6), (2, 1.1), (3, 0.4), (5, 0.9),
                                 (20, 0.02), (40, 0.05)])
def test_squeezed_number_matches_dense_exponential(m, r):
    """Recurrence vs |<n|expm(squeeze generator)|m>|^2.

    The last two cases join the forward and backward runs away from n = m % 2.
    """
    dim = 160
    s = oracle.squeeze_operator(r, 0.0, dim)
    dense = np.abs(s[:, m]) ** 2
    d = squeezed_number_distribution(m, r, cutoff=80, tail_budget=1.0)
    raw = d.p * (1.0 - d.tail_mass)  # undo renormalization
    np.testing.assert_allclose(raw, dense[:81], atol=1e-12)
    # parity conservation: only n with n ≡ m (mod 2) are populated
    assert np.all(d.p[(np.arange(81) + m) % 2 == 1] == 0.0)


def test_squeezed_thermal_reduces_to_thermal_at_r_zero():
    a = squeezed_thermal_distribution(0.7, 0.0, cutoff=60)
    b = thermal_distribution(0.7, cutoff=60)
    np.testing.assert_allclose(a.p, b.p, atol=1e-13)


def test_squeezed_thermal_reduces_to_squeezed_vacuum_at_nbar_zero():
    a = squeezed_thermal_distribution(0.0, 0.8, cutoff=80)
    b = squeezed_vacuum_distribution(0.8, cutoff=80)
    np.testing.assert_allclose(a.p, b.p, atol=1e-12)


@pytest.mark.parametrize("nbar,r", [(0.5, 0.77), (0.5, 1.34), (1.2, 0.6)]
                         + [(nbar, r) for nbar in (0.0, 0.5, 1.0, 2.75, 4.0, 5.0, 10.0)
                            for r in (0.0, 0.5, 1.0, 1.5)])
def test_squeezed_thermal_mean_identity(nbar, r):
    """Mean is nbar cosh 2r + sinh^2 r; tail_mass is the mass cut off.

    Cutoff 8000 leaves a tail below 1e-10 everywhere on this grid; (10, 1.5)
    decays slowest, by about 0.995 per level.
    """
    full = squeezed_thermal_distribution(nbar, r, cutoff=8000)
    assert full.tail_mass < 1e-10
    exact = squeezed_thermal_mean(nbar, r)
    assert exact == pytest.approx(nbar * math.cosh(2 * r) + math.sinh(r) ** 2, rel=1e-12)
    assert full.mean == pytest.approx(exact, rel=1e-9, abs=1e-12)
    # cutting at the mean drops a sizable tail, which tail_mass must report
    cut = int(exact)
    short = squeezed_thermal_distribution(nbar, r, cutoff=cut, tail_budget=1.0)
    assert short.tail_mass == pytest.approx(full.p[cut + 1:].sum(), abs=1e-12)
    np.testing.assert_allclose(short.p * (1.0 - short.tail_mass), full.p[:cut + 1],
                               rtol=1e-9, atol=1e-15)


@pytest.mark.parametrize("nbar,r", [(0.5, 400.0), (0.0, 1e3), (2.0, 1e300)])
def test_overflowing_squeezing_is_a_domain_error(nbar, r):
    """Once sinh(r)^2 overflows a double (r past ~355.6) both the populations
    and the mean raise DomainError naming the limit; before, a bare
    OverflowError (math range error)."""
    with pytest.raises(DomainError, match="overflows"):
        squeezed_thermal_distribution(nbar, r)
    with pytest.raises(DomainError, match="overflows"):
        squeezed_thermal_mean(nbar, r)


@pytest.mark.parametrize("r", [0.02, 0.3, 1.2, 2.0])
@pytest.mark.parametrize("m", [0, 1, 7, 20, 60, 100, 300])
def test_squeezed_number_mean_and_variance_identities(m, r):
    """<n> = m cosh 2r + sinh^2 r and Var n = (m^2 + m + 1) sinh^2(2r) / 2.

    The cutoff reaches twice the upper turning point (m + 1/2) e^{2r} plus
    enough levels for the tanh(r)-per-level decay beyond it.
    """
    cutoff = int(2 * (m + 1) * math.exp(2 * r) + 60 / abs(math.log(math.tanh(r))))
    d = squeezed_number_distribution(m, r, cutoff=cutoff)
    assert d.tail_mass < 1e-10
    n = np.arange(d.p.size)
    var = ((n - d.mean) ** 2) @ d.p
    assert d.mean == pytest.approx(m * math.cosh(2 * r) + math.sinh(r) ** 2, rel=1e-9)
    assert var == pytest.approx(0.5 * (m * m + m + 1) * math.sinh(2 * r) ** 2, rel=1e-9)


def test_cutoff_error_when_tail_exceeds_budget():
    with pytest.raises(CutoffError):
        thermal_distribution(4.44, cutoff=10)  # tail ~ 0.1 >> 1e-6
    # same request with an explicit unit budget renormalizes instead
    d = thermal_distribution(4.44, cutoff=10, tail_budget=1.0)
    assert d.p.sum() == pytest.approx(1.0)
    assert d.tail_mass > 0.05


def test_distribution_domain_errors():
    with pytest.raises(DomainError):
        thermal_distribution(-0.1)
    with pytest.raises(DomainError):
        coherent_distribution(-1.0)
    with pytest.raises(DomainError):
        squeezed_vacuum_distribution(-0.5)
    with pytest.raises(DomainError):
        squeezed_thermal_distribution(0.5, -0.1)
    with pytest.raises(DomainError):
        squeezed_thermal_distribution(0.5, 0.3, cutoff=-1)
    with pytest.raises(DomainError):
        squeezed_number_distribution(-1, 0.5)
    # a run past the upper turning point would need ~2e10 levels
    with pytest.raises(DomainError, match="ladder"):
        squeezed_number_distribution(1, 10.0)


@pytest.mark.parametrize("p", [[math.nan, 1.0], [1.0, math.inf], [1.5, -0.5], [[0.5, 0.5]],
                               [], [0.5, 0.2]],
                         ids=["nan", "inf", "negative", "two_d", "empty", "unnormalized"])
def test_phonon_distribution_checks_itself(p):
    """A hand-built distribution is checked where it is built.  Before, it was
    not: assembly took [nan, 1] to NaN means and [1.5, -0.5] to a retained
    weight of 1.111, and a 2-d p raised numpy's ValueError."""
    with pytest.raises(DomainError):
        PhononDistribution(p)


@pytest.mark.parametrize("tail_mass", [math.nan, math.inf, -3.0, -1e-300])
def test_phonon_distribution_checks_its_tail_mass(tail_mass):
    """tail_mass is a probability mass: finite and >= 0.  Before, nan and
    -3.0 were accepted and stored."""
    with pytest.raises(DomainError, match="tail_mass"):
        PhononDistribution([1.0], tail_mass=tail_mass)
    assert PhononDistribution([1.0], tail_mass=0.25).tail_mass == 0.25


def test_phonon_distribution_mean_is_derived_from_p():
    d = PhononDistribution([0.25, 0.5, 0.25])
    assert (d.mean, d.tail_mass) == (1.0, 0.0)
    # rounding-level negatives, as normalized marginals carry, pass
    assert PhononDistribution([1.0 + 1e-13, -1e-13]).mean == -1e-13


@pytest.mark.parametrize("make", [
    lambda v: thermal_distribution(v),
    lambda v: coherent_distribution(v),
    lambda v: squeezed_vacuum_distribution(v),
    lambda v: squeezed_thermal_distribution(v, 0.5),
    lambda v: squeezed_thermal_distribution(0.5, v),
    lambda v: squeezed_number_distribution(3, v),
    lambda v: ModePrep.thermal_state(v),
    lambda v: ModePrep(kind="coherent", alpha_sq=v),
    lambda v: ModePrep.squeezed_thermal_state(v, 0.5),
    lambda v: ModePrep.squeezed_thermal_state(0.5, v),
], ids=["thermal", "coherent", "squeezed_vacuum", "squeezed_thermal_nbar",
        "squeezed_thermal_r", "squeezed_number_r", "prep_thermal", "prep_coherent",
        "prep_squeezed_nbar", "prep_squeezed_r"])
@pytest.mark.parametrize("value", [math.nan, math.inf], ids=["nan", "inf"])
@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")  # 0 * log(inf) on the way
def test_non_finite_parameters_raise_domain_error(make, value):
    """Before, these returned NaN distributions (or raised bare ValueError /
    ZeroDivisionError), and NaN preps surfaced later as a TruncationError."""
    with pytest.raises(DomainError):
        make(value)


def test_mode_prep_validation_and_dispatch():
    with pytest.raises(DomainError):
        ModePrep(kind="displaced")
    with pytest.raises(DomainError):
        ModePrep.thermal_state(-0.2)
    with pytest.raises(DomainError):
        ModePrep.squeezed_thermal_state(0.5, -1.0)
    with pytest.raises(DomainError):
        ModePrep(kind="fock", n_fock=-1)

    assert prep_mean(ModePrep.thermal_state(0.66)) == 0.66
    assert prep_mean(ModePrep(kind="coherent", alpha_sq=1.7)) == 1.7
    assert prep_mean(ModePrep(kind="fock", n_fock=3)) == 3.0
    sq = ModePrep.squeezed_thermal_state(0.5, 1.34)
    assert prep_mean(sq) == pytest.approx(squeezed_thermal_mean(0.5, 1.34))

    d = prep_to_distribution(ModePrep(kind="fock", n_fock=2), cutoff=8)
    assert d.p[2] == 1.0 and d.mean == 2.0
    with pytest.raises(CutoffError):
        prep_to_distribution(ModePrep(kind="fock", n_fock=9), cutoff=8)

    for prep in (ModePrep.thermal_state(0.66),
                 ModePrep(kind="coherent", alpha_sq=1.2),
                 ModePrep.squeezed_thermal_state(0.47, 0.77)):
        d = prep_to_distribution(prep, cutoff=300)
        assert d.mean == pytest.approx(prep_mean(prep), rel=1e-4)


@pytest.mark.parametrize("make", [
    lambda v: ModePrep(kind="fock", n_fock=v),
    lambda v: TruncationPolicy(n_max_h=v),
    lambda v: TruncationPolicy(n_max_c=v),
], ids=["n_fock", "n_max_h", "n_max_c"])
@pytest.mark.parametrize("value", [2.5, 2.0, math.nan, math.inf, True],
                         ids=["fraction", "float", "nan", "inf", "bool"])
def test_counts_must_be_integers(make, value):
    """A Fock level and a truncation cap are integers, as the scenario parser
    already requires.  Before, n_fock = 2.5 or nan constructed and then raised
    numpy's IndexError, inf raised CutoffError, and a cap of 2.5 failed only at
    assembly ("a distribution over 4 levels exceeds its cap n_max = 2.5")."""
    with pytest.raises(DomainError, match="integer"):
        make(value)
    assert prep_to_distribution(ModePrep(kind="fock", n_fock=np.int64(2)), cutoff=4).mean == 2.0
    assert TruncationPolicy(n_max_h=np.int32(3)).caps() == (3, None, None)


@pytest.mark.parametrize("build", [
    lambda: thermal_distribution(1.0, cutoff=2.5, tail_budget=1.0),
    lambda: thermal_distribution(1.0, cutoff=4.0, tail_budget=1.0),
    lambda: thermal_distribution(1.0, cutoff=math.nan),
    lambda: thermal_distribution(0.0, cutoff=2.5),
    lambda: coherent_distribution(1.0, cutoff=2.5, tail_budget=1.0),
    lambda: squeezed_vacuum_distribution(0.3, cutoff=2.5, tail_budget=1.0),
    lambda: squeezed_thermal_distribution(0.5, 0.3, cutoff=2.5, tail_budget=1.0),
    lambda: squeezed_number_distribution(1, 0.3, cutoff=2.5, tail_budget=1.0),
    lambda: squeezed_number_distribution(True, 0.3),
    lambda: squeezed_number_distribution(2.5, 0.3),
    lambda: prep_to_distribution(ModePrep.thermal_state(0.5), cutoff=2.5, tail_budget=1.0),
    lambda: prep_to_distribution(ModePrep(kind="fock", n_fock=1), cutoff=2.5),
], ids=["thermal_fraction", "thermal_float", "thermal_nan", "vacuum_fraction",
        "coherent_fraction", "squeezed_vacuum_fraction", "squeezed_thermal_fraction",
        "squeezed_number_fraction", "squeezed_number_m_bool", "squeezed_number_m_fraction",
        "prep_thermal_fraction", "prep_fock_fraction"])
def test_ladder_sizes_must_be_integers(build):
    """A cutoff, and a squeezed number state's m, are whole numbers.  Before,
    thermal_distribution(1.0, cutoff=2.5) built 4 levels with the tail mass of
    3.5, the other families raised TypeError, a NaN cutoff raised numpy's
    ValueError, and m = True ran as m = 1."""
    with pytest.raises(DomainError, match="integer"):
        build()
    assert thermal_distribution(1.0, cutoff=np.int64(3), tail_budget=1.0).p.size == 4
