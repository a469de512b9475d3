"""Phonon-number distributions of the prepared motional states.

Thermal and coherent (displaced-vacuum) states have closed forms.  The
squeezed families are each one three-term recurrence, free of special
functions:

- squeezed-thermal populations (squeezed vacuum is the nbar = 0 case) are
  the Taylor coefficients of a generating function Q(z)^(-1/2), run forward
  from p(0);
- squeezed-number amplitudes <n|S(r)|m> solve the eigenvalue recurrence of
  the squeezed number operator, run forward below the lower turning point
  and backward from far above the upper one; the result is cross-checked
  elsewhere against a dense matrix exponential of the squeeze generator.

All distributions are truncated at a finite cutoff, renormalized, and carry
the pre-renormalization tail mass so callers can audit truncation.  A
``PhononDistribution`` checks its own populations when it is built, so the
sideband models, sector selection and assembly all take one contract; its
mean is derived from them.  The module needs numpy only, so a simulation
never imports scipy.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import CutoffError, DomainError

DEFAULT_CUTOFF = 300
DEFAULT_TAIL_BUDGET = 1e-6
_RESCALE = 1e150          # recurrence runs divide by this before they can overflow
_MAX_LADDER = 2e6         # longest squeezed-number recurrence run (levels)
_FLOAT_MAX = float(np.finfo(float).max)
_MAX_SQUEEZE = math.asinh(math.sqrt(_FLOAT_MAX))   # sinh(r)^2 overflows past this r


# ---------------------------------------------------------------------------
# Distribution container
# ---------------------------------------------------------------------------


def _is_count(value) -> bool:
    """True for a Python or numpy integer that is not a bool: a level or a cap."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


@dataclass(frozen=True, eq=False)
class PhononDistribution:
    """Normalized phonon-number distribution on n = 0..cutoff.

    ``p`` must be a nonempty 1-d array of finite entries >= -1e-12 (the
    rounding floor) that sums to 1 within 1e-9, else ``DomainError``.
    ``tail_mass`` is the probability that sat beyond the cutoff before
    renormalization, finite and >= 0, else ``DomainError``; ``mean`` is
    derived from ``p``.
    """

    p: np.ndarray
    tail_mass: float = 0.0

    def __post_init__(self):
        p = np.asarray(self.p, dtype=float)
        if p.ndim != 1 or p.size == 0:
            raise DomainError(f"a phonon distribution must be a nonempty 1-d array, "
                              f"got shape {p.shape}")
        if not (np.all(np.isfinite(p)) and p.min() >= -1e-12):
            raise DomainError("phonon distribution entries must be finite and >= 0")
        if abs(p.sum() - 1.0) > 1e-9:
            raise DomainError(f"a phonon distribution must sum to 1, got {p.sum():.12g}")
        if not (math.isfinite(self.tail_mass) and self.tail_mass >= 0.0):
            raise DomainError(f"tail_mass must be finite and >= 0, got {self.tail_mass!r}")
        object.__setattr__(self, "p", p)

    @property
    def mean(self) -> float:
        return float(np.arange(self.p.size) @ self.p)


def _require_cutoff(cutoff) -> None:
    if not (_is_count(cutoff) and cutoff >= 0):
        raise DomainError(f"cutoff must be an integer >= 0, got {cutoff!r}")


def _finalize(raw: np.ndarray, tail_mass: float, tail_budget: float) -> PhononDistribution:
    """Renormalize raw populations; the distribution checks their values."""
    tail = max(0.0, float(tail_mass))
    if tail > tail_budget:
        raise CutoffError(
            f"cutoff too small: tail mass {tail:.3e} exceeds budget {tail_budget:.1e}"
        )
    total = raw.sum()
    if total <= 0.0:
        raise DomainError("distribution has zero total mass")
    return PhononDistribution(p=raw / total, tail_mass=tail)


def _fock(n: int, cutoff: int, tail_budget: float) -> PhononDistribution:
    """The Fock state |n> on n = 0..cutoff."""
    _require_cutoff(cutoff)
    if n > cutoff:
        raise CutoffError(f"cutoff {cutoff} below Fock index {n}")
    raw = np.zeros(cutoff + 1)
    raw[n] = 1.0
    return _finalize(raw, 0.0, tail_budget)


# ---------------------------------------------------------------------------
# Elementary distributions
# ---------------------------------------------------------------------------


def thermal_distribution(nbar: float, cutoff: int = DEFAULT_CUTOFF,
                         tail_budget: float = DEFAULT_TAIL_BUDGET) -> PhononDistribution:
    """Geometric (thermal) distribution p(n) = nbar^n / (nbar+1)^(n+1)."""
    if nbar < 0.0:
        raise DomainError("nbar must be >= 0")
    _require_cutoff(cutoff)
    if nbar == 0.0:
        return _fock(0, cutoff, tail_budget)
    n = np.arange(cutoff + 1)
    x = nbar / (nbar + 1.0)
    logp = n * math.log(x) - math.log(nbar + 1.0)
    tail = x ** (cutoff + 1)          # exact geometric tail
    return _finalize(np.exp(logp), tail, tail_budget)


def coherent_distribution(mbar: float, cutoff: int = DEFAULT_CUTOFF,
                          tail_budget: float = DEFAULT_TAIL_BUDGET) -> PhononDistribution:
    """Poissonian distribution of a coherent state with mean ``mbar``."""
    if mbar < 0.0:
        raise DomainError("mbar must be >= 0")
    _require_cutoff(cutoff)
    if mbar == 0.0:
        return _fock(0, cutoff, tail_budget)
    log_factorial = np.fromiter(map(math.lgamma, range(1, cutoff + 2)), float, cutoff + 1)
    raw = np.exp(np.arange(cutoff + 1) * math.log(mbar) - mbar - log_factorial)
    tail = max(0.0, 1.0 - raw.sum())
    return _finalize(raw, tail, tail_budget)


def squeezed_vacuum_distribution(r: float, cutoff: int = DEFAULT_CUTOFF,
                                 tail_budget: float = DEFAULT_TAIL_BUDGET) -> PhononDistribution:
    """Squeezed vacuum: even-only populations

    p(2k) = (2k)! sech(r) tanh(r)^(2k) / (2^k k!)^2,

    the nbar = 0 case of :func:`squeezed_thermal_distribution`.
    """
    return squeezed_thermal_distribution(0.0, r, cutoff, tail_budget)


def squeezed_thermal_distribution(nbar: float, r: float, cutoff: int = DEFAULT_CUTOFF,
                                  tail_budget: float = DEFAULT_TAIL_BUDGET) -> PhononDistribution:
    """Squeezed thermal state S(r) rho_thermal(nbar) S(r)^dagger.

    p(n) are the Taylor coefficients of Q(z)^(-1/2) with Q = q0 + q1 z + q2 z^2
    (Dodonov, Man'ko & Man'ko 1994), which gives the three-term recurrence

        q0 (n+1) p(n+1) = -q1 (n + 1/2) p(n) - q2 n p(n-1),   p(0) = q0^(-1/2).

    It runs forward along the dominant solution, so it is stable.  Q(1) = 1
    normalizes the untruncated series.  Populations do not depend on the
    squeezing phase, so only |r| enters.
    """
    if nbar < 0.0:
        raise DomainError("nbar must be >= 0")
    if r < 0.0:
        raise DomainError("r must be >= 0")
    _require_cutoff(cutoff)
    try:
        d_sh2 = (2.0 * nbar + 1.0) * math.sinh(r) ** 2
        q0 = (nbar + 1.0) ** 2 + d_sh2
    except OverflowError:
        q0 = math.inf
    if q0 > _FLOAT_MAX:
        raise DomainError(f"squeezed thermal state nbar={nbar:g}, r={r:g} overflows: "
                          f"(nbar + 1)^2 + (2 nbar + 1) sinh(r)^2 must stay below "
                          f"{_FLOAT_MAX:.3g} (at nbar = 0, r below {_MAX_SQUEEZE:.1f})")
    q1 = -2.0 * nbar * (nbar + 1.0)
    q2 = nbar ** 2 - d_sh2
    p, p_prev = q0 ** -0.5, 0.0
    raw = [p]
    for n in range(cutoff):
        p, p_prev = -(q1 * (n + 0.5) * p + q2 * n * p_prev) / (q0 * (n + 1)), p
        raw.append(p)
    raw = np.array(raw)
    return _finalize(raw, 1.0 - raw.sum(), tail_budget)


def squeezed_number_distribution(m: int, r: float, cutoff: int = DEFAULT_CUTOFF,
                                 tail_budget: float = DEFAULT_TAIL_BUDGET) -> PhononDistribution:
    """Phonon distribution of a squeezed number state S(r)|m>.

    Parity is conserved: the amplitudes c_n = <n|S(r)|m>, n = m mod 2, m + 2, ...,
    solve the three-term recurrence (b = S a S^dagger, b^dagger b S|m> = m S|m>)

        cs sqrt((n+1)(n+2)) c_{n+2} + (ch^2 n + sh^2 (n+1) - m) c_n
            + cs sqrt(n(n-1)) c_{n-2} = 0,      ch = cosh r, sh = sinh r, cs = ch sh.

    The wanted solution grows with n below the lower turning point
    (m + 1/2) e^{-2r} and decays above the upper one (m + 1/2) e^{2r}.  It is
    run forward from n = m mod 2 to the lower turning point, backward from
    far beyond the upper one, joined at the lower turning point and
    normalized to a unit total.
    """
    if not (_is_count(m) and m >= 0):
        raise DomainError(f"m must be an integer >= 0, got {m!r}")
    if not 0.0 <= r < math.inf:
        raise DomainError("r must be finite and >= 0")
    _require_cutoff(cutoff)
    if r == 0.0:
        return _fock(m, cutoff, tail_budget)
    lo = m % 2
    # beyond twice the upper turning point amplitudes fall by ~tanh r per step
    # of two levels; the extra levels make the start error negligible
    n_top = max(cutoff, 2.0 * (m + 0.5) * math.exp(2.0 * r)
                + 80.0 / abs(math.log(math.tanh(r))))
    if n_top > _MAX_LADDER:
        raise DomainError(f"squeezed number state m={m}, r={r:g} needs a ladder of "
                          f"{n_top:.3g} levels, above the limit {_MAX_LADDER:.0e}")
    k_top = int(n_top - lo) // 2 + 1
    k_join = max(0, int(((m + 0.5) * math.exp(-2.0 * r) - lo) // 2))
    n = lo + 2.0 * np.arange(k_top + 1)               # n_k on the parity ladder
    diag = math.cosh(r) ** 2 * n + math.sinh(r) ** 2 * (n + 1.0) - m
    off = math.cosh(r) * math.sinh(r) * np.sqrt((n + 1.0) * (n + 2.0))  # n_k <-> n_{k+1}
    c = np.zeros(k_top + 2)
    c[0] = 1.0
    for k in range(k_join):
        c[k + 1] = -(diag[k] * c[k] + (off[k - 1] * c[k - 1] if k else 0.0)) / off[k]
        if abs(c[k + 1]) > _RESCALE:
            c[:k + 2] /= _RESCALE
    joined = c[k_join]
    c[k_top] = 1.0
    for k in range(k_top, k_join, -1):
        c[k - 1] = -(off[k] * c[k + 1] + diag[k] * c[k]) / off[k - 1]
        if abs(c[k - 1]) > _RESCALE:
            c[k - 1:] /= _RESCALE
    c[k_join:] *= joined / c[k_join]
    pops = c[:k_top + 1] ** 2
    raw = np.zeros(cutoff + 1)
    raw[lo::2] = (pops / pops.sum())[:raw[lo::2].size]
    return _finalize(raw, 1.0 - raw.sum(), tail_budget)


def squeezed_thermal_mean(nbar: float, r: float) -> float:
    """Closed-form mean occupation nbar cosh(2r) + sinh(r)^2."""
    try:
        mean = nbar * math.cosh(2.0 * r) + math.sinh(r) ** 2
    except OverflowError:
        mean = math.inf
    if mean > _FLOAT_MAX:
        raise DomainError(f"squeezed thermal mean nbar={nbar:g}, r={r:g} overflows: "
                          f"nbar cosh(2r) + sinh(r)^2 must stay below {_FLOAT_MAX:.3g}")
    return mean


# ---------------------------------------------------------------------------
# Preparation descriptors
# ---------------------------------------------------------------------------


#: preparation kind -> ({scenario-file key: the ModePrep field it sets},
#: distribution and untruncated mean, both called with those fields' values in order)
PREP_KINDS = {
    "thermal": ({"nbar": "nbar"}, thermal_distribution, float),
    "coherent": ({"mbar": "alpha_sq"}, coherent_distribution, float),
    "squeezed_thermal": ({"nbar": "nbar", "r": "r"}, squeezed_thermal_distribution,
                         squeezed_thermal_mean),
    "fock": ({"n": "n_fock"}, _fock, float),
}


@dataclass(frozen=True)
class ModePrep:
    """Declarative initial state of one mode.

    Exactly the fields that :data:`PREP_KINDS` lists for ``kind`` are read
    (``alpha_sq`` is the coherent mean phonon number |alpha|^2), and each
    must be >= 0; ``n_fock`` must be an integer.

    Preparations are phase-randomized: a mode enters the dynamics through
    its phonon-number distribution only, as the number-diagonal density.
    For coherent and squeezed preparations this drops the number-basis
    coherences of the phase-definite state.  The difference shows only when
    all three modes carry such coherences; one thermal or Fock mode in the
    triple makes the phase-definite dynamics of number observables the same.
    """

    kind: str
    nbar: float = 0.0
    alpha_sq: float = 0.0
    r: float = 0.0
    n_fock: int = 0

    def __post_init__(self):
        if self.kind not in PREP_KINDS:
            raise DomainError(f"unknown prep kind {self.kind!r}; "
                              f"expected one of {tuple(PREP_KINDS)}")
        if not all(math.isfinite(v) for v in (self.nbar, self.alpha_sq, self.r)):
            raise DomainError("prep parameters must be finite")
        if not _is_count(self.n_fock):
            raise DomainError(f"n_fock must be an integer, got {self.n_fock!r}")
        fields = PREP_KINDS[self.kind][0].values()
        if any(getattr(self, f) < 0 for f in fields):
            raise DomainError(f"{self.kind} prep needs "
                              + " and ".join(f"{f} >= 0" for f in fields))

    @classmethod
    def thermal_state(cls, nbar: float) -> "ModePrep":
        return cls(kind="thermal", nbar=nbar)

    @classmethod
    def squeezed_thermal_state(cls, nbar: float, r: float) -> "ModePrep":
        return cls(kind="squeezed_thermal", nbar=nbar, r=r)


def prep_to_distribution(prep: ModePrep, cutoff: int = DEFAULT_CUTOFF,
                         tail_budget: float = DEFAULT_TAIL_BUDGET) -> PhononDistribution:
    """Phonon-number distribution of a prepared mode."""
    params, distribution, _ = PREP_KINDS[prep.kind]
    return distribution(*(getattr(prep, f) for f in params.values()), cutoff, tail_budget)


def prep_mean(prep: ModePrep) -> float:
    """Untruncated mean occupation implied by a preparation."""
    params, _, mean = PREP_KINDS[prep.kind]
    return mean(*(getattr(prep, f) for f in params.values()))

