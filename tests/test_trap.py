"""Trap geometry: mode frequencies, spacing, coupling formula, temperatures.

Frozen reference values were computed once from the closed-form expressions
with CODATA-2014 constants and are asserted to 9-10 significant digits.
"""

import dataclasses
import math

import pytest

from ionfridge.errors import DomainError
from ionfridge.trap import (CODATA2014, COUPLING_FORMULA_NOTE,
                            ION_MASS, REFERENCE_SETUPS, TRAP_OMEGA_RANGE,
                            CouplingFormulaWarning, TrapConfig,
                            cooling_power_per_mass, coupling_rate,
                            equilibrium_spacing, mode_frequencies,
                            mode_temperature, refrigeration_ordering)

TWO_PI = 2.0 * math.pi


def test_codata_constants():
    assert CODATA2014.hbar == 1.054571800e-34
    assert CODATA2014.k_B == 1.38064852e-23
    assert CODATA2014.e_charge == 1.6021766208e-19
    assert CODATA2014.amu == 1.660539040e-27
    assert ION_MASS == pytest.approx(171 * 1.660539040e-27, rel=1e-15)
    d = dataclasses.asdict(CODATA2014)
    assert set(d) == {"hbar", "k_B", "eps0", "e_charge", "amu"}


# frozen closed-form outputs for the two reference operating points (kHz)
FROZEN_MODES = {
    "z570": (1372.741782, 852.0152639, 520.6438418, +0.0826762),
    "z425": (1024.258035, 635.7608985, 388.5354475, -0.0383111),
}
FROZEN_SPACING_UM = {"z570": 4.294103587, "z425": 5.219859723}
FROZEN_XI_KHZ = {"z570": 1.341796826, "z425": 0.9533734658}


@pytest.mark.parametrize("key", ["z570", "z425"])
def test_mode_frequencies_frozen(key):
    ref = REFERENCE_SETUPS[key]
    freqs = mode_frequencies(ref.trap)
    wh, ww, wc, resid = FROZEN_MODES[key]
    assert freqs.omega_h / TWO_PI / 1e3 == pytest.approx(wh, abs=1e-5)
    assert freqs.omega_w / TWO_PI / 1e3 == pytest.approx(ww, abs=1e-5)
    assert freqs.omega_c / TWO_PI / 1e3 == pytest.approx(wc, abs=1e-5)
    assert freqs.residual / TWO_PI / 1e3 == pytest.approx(resid, abs=1e-5)


@pytest.mark.parametrize("key", ["z570", "z425"])
def test_equilibrium_spacing_frozen(key):
    ref = REFERENCE_SETUPS[key]
    x0 = equilibrium_spacing(ref.trap)
    assert x0 * 1e6 == pytest.approx(FROZEN_SPACING_UM[key], abs=1e-8)


@pytest.mark.parametrize("key", ["z570", "z425"])
def test_coupling_formula_frozen(key):
    ref = REFERENCE_SETUPS[key]
    with pytest.warns(CouplingFormulaWarning):
        rate = coupling_rate(ref.trap)
    assert rate.xi / TWO_PI / 1e3 == pytest.approx(FROZEN_XI_KHZ[key], rel=1e-9)
    assert rate.x0 == pytest.approx(equilibrium_spacing(ref.trap), rel=1e-15)


def test_coupling_formula_note_mentions_convention():
    assert "Rabi" in COUPLING_FORMULA_NOTE


def test_reference_setup_hamiltonian_rate_is_half_the_quoted_rate():
    for ref in REFERENCE_SETUPS.values():
        assert ref.xi_hamiltonian == pytest.approx(0.5 * ref.xi_measured, rel=1e-15)
    assert REFERENCE_SETUPS["z570"].xi_measured == pytest.approx(TWO_PI * 2.64e3)
    assert REFERENCE_SETUPS["z425"].xi_measured == pytest.approx(TWO_PI * 1.89e3)


def test_trap_config_validation():
    with pytest.raises(DomainError):
        TrapConfig(omega_x=1.0e6, omega_y=2.0e6, omega_z=0.1e6)   # x < y
    with pytest.raises(DomainError):
        TrapConfig(omega_x=2.0e6, omega_y=1.0e6, omega_z=0.0)
    with pytest.raises(DomainError):
        # radial zigzag mode requires omega_x^2 > (12/5) omega_z^2
        TrapConfig(omega_x=TWO_PI * 700e3, omega_y=TWO_PI * 600e3,
                   omega_z=TWO_PI * 650e3)


@pytest.mark.parametrize("axis", ["omega_x", "omega_y", "omega_z"])
@pytest.mark.parametrize("khz", [1e-300, 1e-12, 1e12, 1e300])
def test_trap_frequencies_outside_their_range_are_domain_errors(axis, khz):
    """Every frequency lies in TRAP_OMEGA_RANGE (1 Hz to 1 GHz), where the mode
    and coupling formulas stay finite; before, 1e300 kHz raised OverflowError
    from omega**2 and 1e-300 kHz ZeroDivisionError from the ion spacing."""
    lo, hi = TRAP_OMEGA_RANGE
    assert (lo, hi) == pytest.approx((TWO_PI, TWO_PI * 1e9))
    freqs = {"omega_x": TWO_PI * 1025.1e3, "omega_y": TWO_PI * 937.7e3,
             "omega_z": TWO_PI * 570.0e3, axis: TWO_PI * 1e3 * khz}
    with pytest.raises(DomainError):      # the range, or omega_x > omega_y first
        TrapConfig(**freqs)


def test_mode_temperature_frozen():
    # nbar = 0.66 at omega = 2 pi 1372.8 kHz
    t = mode_temperature(0.66, TWO_PI * 1372.8e3)
    assert t == pytest.approx(7.143193121e-5, rel=1e-9)


def test_mode_temperature_monotone_and_edges():
    omega = TWO_PI * 500e3
    assert mode_temperature(0.2, omega) < mode_temperature(2.0, omega)
    with pytest.warns(UserWarning):
        assert mode_temperature(0.0, omega) == 0.0
    with pytest.raises(DomainError):
        mode_temperature(-0.1, omega)
    with pytest.raises(DomainError):
        mode_temperature(0.5, 0.0)


def test_refrigeration_ordering():
    freqs = mode_frequencies(REFERENCE_SETUPS["z570"].trap)
    assert refrigeration_ordering((0.66, 4.44, 0.5), freqs)
    # equal occupations: T scales with omega, so T_h > T_w breaks the order
    assert not refrigeration_ordering((1.0, 1.0, 1.0), freqs)
    # the stock relaxation triple starts with the cold mode *hotter* than
    # the hot mode -- cooling it below that is the whole point
    assert not refrigeration_ordering((0.66, 4.44, 2.63), freqs)


def test_cooling_power_per_mass():
    omega_c = TWO_PI * 388.5354475e3
    p = cooling_power_per_mass(0.63, 80e-6, omega_c)
    # hbar omega_c dn / (3 m tau), frozen
    expected = (CODATA2014.hbar * omega_c * 0.63) / (3.0 * ION_MASS * 80e-6)
    assert p == pytest.approx(expected, rel=1e-15)
    assert p == pytest.approx(2.379966128, rel=1e-8)
    with pytest.raises(DomainError):
        cooling_power_per_mass(0.5, 0.0, omega_c)
