"""Equilibrium condition, cooling threshold, entropy flow, sweep extraction."""

import math

import numpy as np
import pytest

from ionfridge.benchmarks import (CoolingReport, OccupationTriple,
                                  cooling_condition, cooling_report,
                                  entropy_flow, equilibrium_cold_occupation,
                                  equilibrium_shift, extract_equilibrium_nc)
from ionfridge.errors import DomainError
from ionfridge.trap import CODATA2014, cooling_power_per_mass, mode_temperature


def test_equilibrium_cold_occupation_frozen():
    # the stock hot/work pair of the relaxation study
    assert equilibrium_cold_occupation(0.66, 4.44) == pytest.approx(
        0.949841269841, abs=1e-10)


def test_equilibrium_cold_occupation_self_consistent():
    for nh, nw in [(0.66, 4.44), (0.3, 1.2), (1.0, 5.0)]:
        nc = equilibrium_cold_occupation(nh, nw)
        lhs = 1.0 + 1.0 / nh
        rhs = (1.0 + 1.0 / nw) * (1.0 + 1.0 / nc)
        assert lhs == pytest.approx(rhs, rel=1e-12)


def test_equilibrium_cold_occupation_domain():
    with pytest.raises(DomainError):
        equilibrium_cold_occupation(0.0, 1.0)
    with pytest.raises(DomainError):
        equilibrium_cold_occupation(1.0, -0.5)
    # nbar_w <= nbar_h has no positive solution
    with pytest.raises(DomainError):
        equilibrium_cold_occupation(1.5, 1.5)
    with pytest.raises(DomainError):
        equilibrium_cold_occupation(2.0, 0.5)


def test_cooling_threshold_frozen():
    cooled, threshold = cooling_condition(OccupationTriple(0.66, 4.44, 2.63))
    assert threshold == pytest.approx(1.21614213198, abs=1e-9)
    assert cooled  # 4.44 > 1.216

    cooled, threshold = cooling_condition(OccupationTriple(0.66, 1.10, 2.63))
    assert not cooled  # 1.10 < 1.216, heating expected

    # threshold is +inf when the cold mode starts at or below the hot mode
    cooled, threshold = cooling_condition(OccupationTriple(0.66, 4.44, 0.5))
    assert not cooled and math.isinf(threshold)
    with pytest.raises(DomainError):
        cooling_condition(OccupationTriple(0.0, 1.0, 1.0))


def test_threshold_matches_equilibrium_family():
    """At nbar_w exactly on threshold the triple is already in equilibrium."""
    nh, nc = 0.66, 2.63
    _, threshold = cooling_condition(OccupationTriple(nh, 1.0, nc))
    assert equilibrium_shift(OccupationTriple(nh, threshold, nc)) == pytest.approx(0.0, abs=1e-9)


def test_equilibrium_shift_signs():
    # above threshold: cooling, eps < 0
    assert equilibrium_shift(OccupationTriple(0.66, 4.44, 2.63)) < 0.0
    # below threshold: heating, eps > 0
    assert equilibrium_shift(OccupationTriple(0.66, 1.10, 2.63)) > 0.0
    # an equilibrium triple sits at eps = 0
    nc = equilibrium_cold_occupation(0.66, 4.44)
    assert equilibrium_shift(OccupationTriple(0.66, 4.44, nc)) == pytest.approx(0.0, abs=1e-10)
    with pytest.raises(DomainError):
        equilibrium_shift(OccupationTriple(0.0, 1.0, 1.0))


def test_equilibrium_shift_lands_on_equilibrium():
    occ = OccupationTriple(0.66, 4.44, 2.63)
    eps = equilibrium_shift(occ)
    shifted = OccupationTriple(occ.nbar_h - eps, occ.nbar_w + eps, occ.nbar_c + eps)
    lhs = 1.0 + 1.0 / shifted.nbar_h
    rhs = (1.0 + 1.0 / shifted.nbar_w) * (1.0 + 1.0 / shifted.nbar_c)
    assert lhs == pytest.approx(rhs, rel=1e-12)


def test_equilibrium_shift_closed_form_over_log_uniform_triples():
    """The quadratic's root lies strictly between -min(n_w, n_c) and n_h and
    satisfies log1p(1/a) = log1p(1/b) + log1p(1/c) to 1e-12 relative."""
    rng = np.random.default_rng(2)
    for n_h, n_w, n_c in 10.0 ** rng.uniform(-3.0, 2.0, (2000, 3)):
        eps = equilibrium_shift(OccupationTriple(n_h, n_w, n_c))
        assert -min(n_w, n_c) < eps < n_h
        lhs = math.log1p(1.0 / (n_h - eps))
        rhs = math.log1p(1.0 / (n_w + eps)) + math.log1p(1.0 / (n_c + eps))
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=0.0)


def test_extract_equilibrium_nc_recovers_line():
    # eps_h = 0.4 (nc_in - 1.7): exact zero at 1.7 regardless of point order
    pts = [(x, 0.4 * (x - 1.7)) for x in (0.5, 1.2, 2.1, 2.9)]
    assert extract_equilibrium_nc(pts) == pytest.approx(1.7, rel=1e-12)
    assert extract_equilibrium_nc(list(reversed(pts))) == pytest.approx(1.7, rel=1e-12)


def test_extract_equilibrium_nc_warning_and_errors():
    with pytest.warns(UserWarning):
        out = extract_equilibrium_nc([(1.0, 0.2), (2.0, 0.1)])
    assert out == pytest.approx(3.0, rel=1e-12)
    with pytest.raises(DomainError):
        extract_equilibrium_nc([(1.0, 0.2)])
    with pytest.warns(UserWarning), pytest.raises(DomainError):
        extract_equilibrium_nc([(1.0, 0.2), (2.0, 0.2)])
    # two exact zeros: midpoint
    assert extract_equilibrium_nc([(1.0, 0.0), (2.0, 0.0)]) == pytest.approx(1.5)


def test_cooling_report_signs():
    initial = OccupationTriple(0.66, 4.44, 2.63)
    final = OccupationTriple(0.66 + 0.39, 4.44 - 0.39, 2.63 - 0.39)
    rep = cooling_report(initial, final)
    assert isinstance(rep, CoolingReport)
    assert rep.eps_h == pytest.approx(-0.39)
    assert rep.eps_w == pytest.approx(-0.39)
    assert rep.eps_c == pytest.approx(-0.39)
    assert rep.cooled
    assert rep.threshold_w == pytest.approx(1.21614213198, abs=1e-9)


def test_entropy_flow_vanishes_at_equilibrium():
    """hbar omega / T = k_B log(1 + 1/nbar): frequency drops out entirely."""
    nh, nw = 0.66, 4.44
    nc = equilibrium_cold_occupation(nh, nw)
    occ = OccupationTriple(nh, nw, nc)
    rate = 1.0e3  # exchange constraint dn_h = -dn_w = -dn_c
    flow = entropy_flow(occ, (rate, -rate, -rate))
    scale = abs(entropy_flow(occ, (rate, 0.0, 0.0)))
    assert abs(flow) < 1e-10 * scale


def test_entropy_flow_positive_for_spontaneous_cooling():
    occ = OccupationTriple(0.66, 4.44, 2.63)
    eps_rate = -1.0e3  # cooling direction for this triple
    flow = entropy_flow(occ, (-eps_rate, eps_rate, eps_rate))
    assert flow > 0.0


@pytest.mark.parametrize("occ", [OccupationTriple(0.0, 1.0, 1.0), OccupationTriple(0.66, 4.44, 0.0)],
                         ids=["hot", "cold"])
def test_entropy_flow_at_zero_temperature_is_a_domain_error(occ):
    """A mode at nbar = 0 (T = 0) with a nonzero rate has no finite entropy
    flow; before, the division raised ZeroDivisionError."""
    mode = "hot" if occ.nbar_h == 0.0 else "cold"
    with pytest.raises(DomainError, match=f"{mode} mode"):
        entropy_flow(occ, (1.0, -1.0, -1.0))


@pytest.mark.parametrize("rates", [(math.nan, -1.0, -1.0), (1.0, -math.inf, -1.0),
                                   (1.0, -1.0, math.inf), (1.0, 1.0), (1.0, -1.0, -1.0, 0.0)],
                         ids=["nan", "work_inf", "cold_inf", "two", "four"])
def test_entropy_flow_takes_three_finite_rates(rates):
    """Before, a NaN rate returned NaN, an infinite one inf, and two rates
    dropped the cold mode without a word."""
    with pytest.raises(DomainError, match="three finite"):
        entropy_flow(OccupationTriple(0.66, 4.44, 2.63), rates)


@pytest.mark.parametrize("final", [OccupationTriple(math.nan, 4.0, 2.0),
                                   OccupationTriple(1.0, math.inf, 2.0),
                                   OccupationTriple(1.0, 4.0, -0.5)],
                         ids=["nan", "inf", "negative"])
def test_cooling_report_rejects_a_bad_final_triple(final):
    """Before, a NaN final occupation came back as eps_h = nan with cooled = True."""
    with pytest.raises(DomainError, match="final occupations"):
        cooling_report(OccupationTriple(0.66, 4.44, 2.63), final)


_TRIPLE = OccupationTriple(0.66, 4.44, 2.63)


@pytest.mark.parametrize("call", [
    cooling_condition,
    lambda occ: entropy_flow(occ, (1.0, -1.0, -1.0)),
    equilibrium_shift,
    lambda occ: cooling_report(occ, _TRIPLE),
    lambda occ: cooling_report(_TRIPLE, occ),
], ids=["cooling_condition", "entropy_flow", "equilibrium_shift", "report_initial",
        "report_final"])
def test_occupation_triples_have_exactly_three_entries(call):
    """Any sequence of three occupations is a triple, and any other length is a
    DomainError.  Before, a plain 3-tuple raised AttributeError in
    cooling_condition and cooling_report, entropy_flow dropped the cold mode of
    a pair without a word, and equilibrium_shift raised the unpacking ValueError."""
    assert call(tuple(_TRIPLE)) == call(_TRIPLE)
    for occ in ((0.66, 4.44), (0.66, 4.44, 2.63, 1.0), ()):
        with pytest.raises(DomainError, match="three entries"):
            call(occ)


_OMEGA = 2.0 * math.pi * 500e3


@pytest.mark.parametrize("call", [
    lambda: mode_temperature(math.inf, _OMEGA),
    lambda: mode_temperature(math.nan, _OMEGA),
    lambda: mode_temperature(1.0, math.nan),
    lambda: mode_temperature(1.0, math.inf),
    lambda: cooling_power_per_mass(0.5, math.nan, _OMEGA),
    lambda: cooling_power_per_mass(math.nan, 80e-6, _OMEGA),
    lambda: equilibrium_cold_occupation(math.nan, 4.44),
    lambda: equilibrium_cold_occupation(0.66, math.inf),
    lambda: cooling_condition(OccupationTriple(0.66, math.nan, 2.63)),
    lambda: equilibrium_shift(OccupationTriple(math.nan, 4.44, 2.63)),
    lambda: entropy_flow(OccupationTriple(0.66, 4.44, math.nan), (1.0, -1.0, -1.0)),
    lambda: entropy_flow(OccupationTriple(math.inf, 4.44, 2.63), (1.0, -1.0, -1.0)),
    lambda: extract_equilibrium_nc([(0.5, 0.1), (math.nan, -0.1)]),
    lambda: extract_equilibrium_nc([(0.5, math.nan), (1.0, -0.1)]),
], ids=["temperature_nbar_inf", "temperature_nbar_nan", "temperature_omega_nan",
        "temperature_omega_inf", "power_tau_nan", "power_delta_nan", "cold_occupation_nan",
        "cold_occupation_inf", "cooling_condition_nan", "equilibrium_shift_nan",
        "entropy_flow_nan", "entropy_flow_inf", "extract_nc_x_nan", "extract_nc_eps_nan"])
def test_non_finite_occupations_frequencies_and_tau_are_domain_errors(call):
    """Before, inf occupations raised ZeroDivisionError in mode_temperature, and
    a NaN occupation, frequency or tau passed every ``<= 0`` check and came back
    as a NaN result."""
    with pytest.raises(DomainError):
        call()


@pytest.mark.filterwarnings("error")
def test_subnormal_occupation_has_a_finite_positive_log_ratio():
    """Below ~1e-308, 1/nbar overflows: ln(1 + 1/nbar) is then taken as
    log1p(nbar) - log(nbar).  Before, mode_temperature(1e-320, omega) returned
    T = 0 without its nbar = 0 warning and entropy_flow raised DomainError."""
    log_ratio = math.log1p(1e-320) - math.log(1e-320)
    t_c = mode_temperature(1e-320, _OMEGA)
    assert t_c == pytest.approx(_OMEGA * CODATA2014.hbar / (CODATA2014.k_B * log_ratio),
                                rel=1e-15)
    assert t_c > 0.0
    flow = entropy_flow(OccupationTriple(0.66, 4.44, 1e-320), (0.0, 0.0, 1.0))
    assert flow == pytest.approx(CODATA2014.k_B * log_ratio, rel=1e-15)
    # where 1/nbar is finite, the plain log1p(1/nbar) is taken
    assert mode_temperature(1e-300, _OMEGA) == pytest.approx(
        _OMEGA * CODATA2014.hbar / (CODATA2014.k_B * math.log1p(1e300)), rel=1e-15)
