"""Classical-thermodynamics benchmarks for the three-mode refrigerator.

Equilibrium occupation balance, the work-mode cooling threshold, entropy
flow of the idealized adiabatic exchange, and the zero-crossing extraction
used to compare simulated sweeps against the equilibrium condition.

The equilibrium condition links the three thermal occupations through

    (1 + 1/nbar_h) = (1 + 1/nbar_w)(1 + 1/nbar_c),

equivalently x_h = x_w x_c with the Boltzmann ratios x = nbar/(nbar+1).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import NamedTuple

from .errors import DomainError
from .trap import CODATA2014, _log1p_inverse


class OccupationTriple(NamedTuple):
    """Mean phonon numbers of (hot, work, cold)."""

    nbar_h: float
    nbar_w: float
    nbar_c: float


@dataclass(frozen=True)
class CoolingReport:
    """Occupation changes epsilon_i between an initial and a final triple.

    Sign convention: final = (nbar_h - eps_h, nbar_w + eps_w, nbar_c + eps_c);
    within the unitary model eps_h = eps_w = eps_c, and cooling of the cold
    mode means eps_c < 0.
    """

    eps_h: float
    eps_w: float
    eps_c: float
    cooled: bool
    threshold_w: float


def _as_triple(occ) -> OccupationTriple:
    """``occ``, any sequence of exactly three entries, as an OccupationTriple."""
    occ = tuple(occ)
    if len(occ) != 3:
        raise DomainError(f"an occupation triple has three entries (hot, work, cold), got {occ}")
    return OccupationTriple(*occ)


def _require_occupations(*nbars: float) -> None:
    if not all(0.0 < nbar < math.inf for nbar in nbars):
        raise DomainError("occupations must be finite and > 0")


def equilibrium_cold_occupation(nbar_h: float, nbar_w: float) -> float:
    """Cold occupation balancing the equilibrium condition for given h, w."""
    _require_occupations(nbar_h, nbar_w)
    ratio = (1.0 + 1.0 / nbar_h) / (1.0 + 1.0 / nbar_w)
    if ratio <= 1.0:
        raise DomainError(
            "no positive solution: work mode must be hotter than the hot mode "
            "in occupation-ratio terms (nbar_w > nbar_h)"
        )
    return 1.0 / (ratio - 1.0)


def cooling_condition(occ: OccupationTriple) -> tuple[bool, float]:
    """Work-mode threshold for refrigeration of the cold mode.

    Returns (cooled_predicted, threshold) with
    threshold = nbar_h (1 + nbar_c) / (nbar_c - nbar_h); the inequality is
    strict, and cooling is impossible when nbar_c <= nbar_h (threshold +inf).
    """
    occ = _as_triple(occ)
    _require_occupations(*occ)
    if occ.nbar_c <= occ.nbar_h:
        return (False, math.inf)
    threshold = occ.nbar_h * (1.0 + occ.nbar_c) / (occ.nbar_c - occ.nbar_h)
    return (occ.nbar_w > threshold, threshold)


def entropy_flow(occ: OccupationTriple, rates: tuple[float, float, float]) -> float:
    """Entropy rate k_B sum_i (dn_i/dt) ln(1 + 1/nbar_i) of the mode triple (W/K).

    That is sum_i hbar omega_i (dn_i/dt) / T_i, as hbar omega / T = k_B ln(1 + 1/nbar).
    Vanishes exactly when the occupations satisfy the equilibrium condition
    and the rates obey dn_h = -dn_w = -dn_c.  ``rates`` must be three finite
    numbers, and each nbar finite and >= 0; one at 0 (T = 0) with a nonzero
    rate has no finite flow: DomainError.
    """
    occ, rates = _as_triple(occ), tuple(rates)
    if len(rates) != 3 or not all(map(math.isfinite, rates)):
        raise DomainError(f"rates must be three finite numbers (hot, work, cold), got {rates}")
    total = 0.0
    for mode, nbar, rate in zip(("hot", "work", "cold"), occ, rates):
        if not 0.0 <= nbar < math.inf:
            raise DomainError(f"{mode} mode: nbar = {nbar:g} must be finite and >= 0")
        if rate == 0.0:
            continue
        if nbar == 0.0:
            raise DomainError(f"{mode} mode: nbar = 0 is at T = 0, where the "
                              f"entropy flow of rate {rate:g} diverges")
        total += rate * _log1p_inverse(nbar)
    return CODATA2014.k_B * total


def cooling_report(initial: OccupationTriple, final: OccupationTriple) -> CoolingReport:
    """Occupation changes and threshold verdict between two triples.

    ``initial`` must pass :func:`cooling_condition`; each ``final`` occupation
    must be finite and >= 0.
    """
    initial, final = _as_triple(initial), _as_triple(final)
    cooled, threshold = cooling_condition(initial)
    if not all(0.0 <= nbar < math.inf for nbar in final):
        raise DomainError(f"final occupations must be finite and >= 0, got {final}")
    return CoolingReport(
        eps_h=initial.nbar_h - final.nbar_h,
        eps_w=final.nbar_w - initial.nbar_w,
        eps_c=final.nbar_c - initial.nbar_c,
        cooled=cooled,
        threshold_w=threshold,
    )


def extract_equilibrium_nc(points: list[tuple[float, float]]) -> float:
    """Zero crossing of eps_h as a function of the injected cold occupation.

    Uses a straight line through the two points with the smallest |eps_h|
    (the sweep-extraction procedure, not a global fit).  If all eps_h share
    a sign the extrapolation is flagged with a warning but still returned.
    """
    if len(points) < 2:
        raise DomainError("need at least two (nbar_c_in, eps_h) points")
    if not all(math.isfinite(x) and math.isfinite(e) for x, e in points):
        raise DomainError("(nbar_c_in, eps_h) points must be finite")
    signs = {e > 0.0 for _, e in points if e != 0.0}
    if len(signs) < 2 and all(e != 0.0 for _, e in points):
        warnings.warn("eps_h does not change sign; extrapolating beyond the sweep",
                      UserWarning, stacklevel=2)
    nearest = sorted(points, key=lambda pt: abs(pt[1]))[:2]
    (x1, y1), (x2, y2) = nearest
    if y1 == y2:
        if y1 == 0.0:
            return 0.5 * (x1 + x2)
        raise DomainError("degenerate points: equal nonzero eps_h")
    return x1 - y1 * (x2 - x1) / (y2 - y1)


def equilibrium_shift(initial: OccupationTriple) -> float:
    """Occupation transfer eps at which the exchange family reaches equilibrium.

    Solves the equilibrium condition for the single-parameter family
    (nbar_h - eps, nbar_w + eps, nbar_c + eps) implied by the conserved
    pairs; eps < 0 corresponds to cooling of the cold mode.
    """
    n_h, n_w, n_c = _as_triple(initial)
    _require_occupations(n_h, n_w, n_c)
    # with a = n_h - eps, b = n_w + eps, c = n_c + eps the condition
    # log1p(1/a) = log1p(1/b) + log1p(1/c) is bc = a(b + c + 1), the quadratic
    # 3 eps^2 + B eps + C = 0.  It is negative at eps = -min(n_w, n_c) and
    # positive at eps = n_h, so its larger root is the one in between; it is
    # taken in the form that does not cancel
    B = 2.0 * (n_w + n_c) + 1.0 - 2.0 * n_h
    C = n_w * n_c - n_h * (n_w + n_c + 1.0)
    root = math.sqrt(B * B - 12.0 * C)
    return (root - B) / 6.0 if B < 0.0 else -2.0 * C / (B + root)
