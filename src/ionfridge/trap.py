"""Trap geometry for a three-ion linear crystal.

Normal-mode frequencies, equilibrium ion spacing, the trilinear coupling
rate of the (axial zigzag, radial rocking, radial zigzag) mode triple, and
the occupation/temperature bookkeeping used by the thermodynamic analysis.

Units: SI throughout.  All frequencies are angular (rad/s); command-line
front ends convert from kHz at the boundary and echo both.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

from .errors import DomainError

# ---------------------------------------------------------------------------
# Physical constants (CODATA 2014), SI units
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PhysicalConstants:
    """Fundamental constants pinned at build time and echoed in outputs."""

    hbar: float = 1.054571800e-34        # J s
    k_B: float = 1.38064852e-23          # J / K
    eps0: float = 8.854187817620e-12     # F / m
    e_charge: float = 1.6021766208e-19   # C
    amu: float = 1.660539040e-27         # kg


CODATA2014 = PhysicalConstants()

#: Mass of the simulated ion species (171 atomic mass units).
ION_MASS = 171 * CODATA2014.amu

#: Admissible trap frequencies (rad/s): 1 Hz to 1 GHz, far beyond any ion trap
#: either way, and narrow enough that every formula below stays finite.
TRAP_OMEGA_RANGE = (math.tau, math.tau * 1e9)


# ---------------------------------------------------------------------------
# Configuration containers
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TrapConfig:
    """Secular trap frequencies for the three-ion crystal (rad/s).

    The crystal is three ions of mass :data:`ION_MASS`.  The radial mode
    formulas below require ``omega_x > omega_y`` (modes are built on the x
    radial) and ``omega_x**2 > (12/5) * omega_z**2`` so that the radial
    zigzag mode exists.  Each frequency lies in :data:`TRAP_OMEGA_RANGE`.
    """

    omega_x: float
    omega_y: float
    omega_z: float

    def __post_init__(self):
        if not (self.omega_x > self.omega_y > 0.0):
            raise DomainError("need omega_x > omega_y > 0")
        lo, hi = TRAP_OMEGA_RANGE
        if not all(lo <= w <= hi for w in (self.omega_x, self.omega_y, self.omega_z)):
            raise DomainError(f"trap frequencies must lie in [{lo:.6g}, {hi:.6g}] rad/s")
        if self.omega_x ** 2 <= (12.0 / 5.0) * self.omega_z ** 2:
            raise DomainError(
                "radial zigzag mode does not exist: need omega_x^2 > (12/5) omega_z^2"
            )


@dataclass(frozen=True)
class ModeFrequencies:
    """Frequencies of the hot/work/cold mode triple (rad/s)."""

    omega_h: float   # axial zigzag
    omega_w: float   # radial rocking
    omega_c: float   # radial zigzag

    @property
    def residual(self) -> float:
        """Resonance mismatch omega_h - omega_w - omega_c (rad/s).

        Reported as-is; the trilinear resonance is never silently forced.
        """
        return self.omega_h - self.omega_w - self.omega_c


@dataclass(frozen=True)
class CouplingRate:
    """Trilinear coupling rate xi (rad/s) and ion spacing x0 (m)."""

    xi: float
    x0: float


# ---------------------------------------------------------------------------
# Mode geometry
# ---------------------------------------------------------------------------


def mode_frequencies(trap: TrapConfig) -> ModeFrequencies:
    """Normal-mode frequencies of the refrigerator triple.

    omega_h = sqrt(29/5) * omega_z        (axial zigzag)
    omega_w = sqrt(omega_x^2 - omega_z^2) (radial rocking)
    omega_c = sqrt(omega_x^2 - (12/5) omega_z^2) (radial zigzag)

    Both radial modes exist for every :class:`TrapConfig`.
    """
    wx2 = trap.omega_x ** 2
    wz2 = trap.omega_z ** 2
    return ModeFrequencies(
        omega_h=math.sqrt(29.0 / 5.0) * trap.omega_z,
        omega_w=math.sqrt(wx2 - wz2),
        omega_c=math.sqrt(wx2 - 2.4 * wz2),
    )


def equilibrium_spacing(trap: TrapConfig) -> float:
    """Equilibrium nearest-neighbour ion distance x0 (m).

    x0 = (5 e^2 / (16 pi eps0 m omega_z^2))**(1/3)
    """
    num = 5.0 * CODATA2014.e_charge ** 2
    den = 16.0 * math.pi * CODATA2014.eps0 * ION_MASS * trap.omega_z ** 2
    return (num / den) ** (1.0 / 3.0)


#: Advisory attached whenever the geometric coupling formula is used in place
#: of a directly measured rate.  The formula systematically underestimates the
#: measured coupling of both reference setups by a factor of about two; it is
#: reported as-is and never rescaled.
COUPLING_FORMULA_NOTE = (
    "geometric coupling formula underestimates the quoted reference rates by "
    "~2x; the quoted rates are exchange Rabi frequencies (twice the "
    "Hamiltonian rate), so prefer a measured coupling, halved, for "
    "quantitative runs"
)


class CouplingFormulaWarning(UserWarning):
    """Raised alongside results that rely on the geometric coupling formula."""


def coupling_rate(trap: TrapConfig) -> CouplingRate:
    """Trilinear coupling rate from trap geometry.

    xi = 9 omega_z^2 sqrt(hbar / (m omega_h omega_w omega_c)) / (5 x0)

    The literal grouping above is implemented verbatim.  Emits
    :class:`CouplingFormulaWarning` because of the known factor-~2
    underestimate (see :data:`COUPLING_FORMULA_NOTE`).
    """
    warnings.warn(COUPLING_FORMULA_NOTE, CouplingFormulaWarning, stacklevel=2)
    freqs = mode_frequencies(trap)
    x0 = equilibrium_spacing(trap)
    root = math.sqrt(
        CODATA2014.hbar / (ION_MASS * freqs.omega_h * freqs.omega_w * freqs.omega_c)
    )
    xi = 9.0 * trap.omega_z ** 2 * root / (5.0 * x0)
    return CouplingRate(xi=xi, x0=x0)


# ---------------------------------------------------------------------------
# Occupation / temperature bookkeeping
# ---------------------------------------------------------------------------


def _log1p_inverse(nbar: float) -> float:
    """ln(1 + 1/nbar) = hbar omega / (k_B T) of a thermal mode, for finite nbar > 0.

    Taken as log1p(1/nbar), and as log1p(nbar) - log(nbar) only where 1/nbar
    overflows (nbar below ~1e-308), so it stays finite and positive.
    """
    inverse = 1.0 / float(nbar)       # a Python float: inf on overflow, no warning
    return math.log1p(inverse) if inverse < math.inf else math.log1p(nbar) - math.log(nbar)


def mode_temperature(nbar: float, omega: float) -> float:
    """Temperature (K) of a thermal mode with mean occupation ``nbar``.

    T = hbar omega / (k_B ln(1 + 1/nbar)).  ``nbar == 0`` maps to T = 0 by
    convention (flagged with a warning); a negative or non-finite ``nbar``
    or ``omega`` is rejected.
    """
    if not 0.0 <= nbar < math.inf:
        raise DomainError("nbar must be finite and >= 0")
    if not 0.0 < omega < math.inf:
        raise DomainError("omega must be finite and > 0")
    if nbar == 0.0:
        warnings.warn("nbar = 0 mapped to T = 0 by convention", UserWarning, stacklevel=2)
        return 0.0
    return CODATA2014.hbar * omega / (CODATA2014.k_B * _log1p_inverse(nbar))


def refrigeration_ordering(nbars: tuple[float, float, float],
                           freqs: ModeFrequencies) -> bool:
    """True when the mode temperatures obey T_c < T_h < T_w.

    The absorption-refrigerator regime requires this ordering; it is exposed
    as a predicate rather than assumed anywhere in the dynamics.
    """
    t_h = mode_temperature(nbars[0], freqs.omega_h)
    t_w = mode_temperature(nbars[1], freqs.omega_w)
    t_c = mode_temperature(nbars[2], freqs.omega_c)
    return t_c < t_h < t_w


def cooling_power_per_mass(delta_n_c: float, tau: float, omega_c: float) -> float:
    """Single-shot cooling power per unit crystal mass (W/kg).

    P/m = hbar omega_c delta_n_c / (3 m tau) for a three-ion crystal.
    """
    if not 0.0 < tau < math.inf:
        raise DomainError("tau must be finite and > 0")
    if not (math.isfinite(delta_n_c) and 0.0 < omega_c < math.inf):
        raise DomainError("delta_n_c must be finite and omega_c finite and > 0")
    return CODATA2014.hbar * omega_c * delta_n_c / (3.0 * ION_MASS * tau)


# ---------------------------------------------------------------------------
# Reference setups (measured operating points of the reference experiment)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ReferenceSetup:
    """A trap configuration with its directly measured coupling rate.

    ``xi_measured`` quotes the population-oscillation (Rabi) frequency of
    the fundamental |0,1,1> <-> |1,0,0> exchange, the quantity a direct
    oscillation fit yields.  The eigenvalue splitting of that doublet is
    twice the Hamiltonian rate, so the rate entering
    H = hbar xi (a_h^dag a_w a_c + h.c.) is half the quoted value; see
    :attr:`xi_hamiltonian`.  The geometric formula reproduces that half to
    within ~2%, which is what the factor-~2 "discrepancy" in
    :data:`COUPLING_FORMULA_NOTE` amounts to.
    """

    trap: TrapConfig
    xi_measured: float        # rad/s (exchange Rabi frequency, as quoted)
    xi_measured_err: float    # rad/s

    @property
    def xi_hamiltonian(self) -> float:
        """Trilinear Hamiltonian rate (rad/s) implied by the quoted Rabi rate."""
        return 0.5 * self.xi_measured


#: Two reference operating points, keyed by their axial frequency (kHz).
REFERENCE_SETUPS = {
    "z570": ReferenceSetup(
        trap=TrapConfig(
            omega_x=math.tau * 1025.1e3,
            omega_y=math.tau * 937.7e3,
            omega_z=math.tau * 570.0e3,
        ),
        xi_measured=math.tau * 2.64e3,
        xi_measured_err=math.tau * 0.05e3,
    ),
    "z425": ReferenceSetup(
        trap=TrapConfig(
            omega_x=math.tau * 764.9e3,
            omega_y=math.tau * 701.8e3,
            omega_z=math.tau * 425.3e3,
        ),
        xi_measured=math.tau * 1.89e3,
        xi_measured_err=math.tau * 0.04e3,
    ),
}
