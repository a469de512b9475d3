"""Sideband detection models, the linearized thermometry estimator, and
calibration fits.

Two distinct forward models are exposed: a single-time red-sideband
brightness (no decoherence term) used for refrigerator readout, and a
blue-sideband flopping curve with sqrt(n+1)-scaled Rabi rates and
decoherence used for calibration fits.  The flopping curve is a sum of
damped oscillations e^{z_n t}, z_n = sqrt(n+1)(-gamma0 + i Omega), summed
by :func:`~ionfridge.dynamics._kernel_sums` (this module factors no times
itself), as is the periodogram that seeds a fit, with the frequencies as
times.  Fits are weighted least squares on ``scipy.optimize.least_squares``
(trust-region ``trf``) with an analytic Jacobian read from the same sums,
one coefficient column per derivative: the shape columns are closed-form
and the distribution columns difference the populations only.  Fits run in
the reported parameters, the positive ones bounded below by 0, and report
the rank and condition number of the final Jacobian, with an infinite error
for a parameter the data do not resolve or that is held at its bound; the
free-distribution fit parameterizes the simplex with a softmax so the
constraints hold by construction.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .dynamics import _kernel_sums
from .errors import (DomainError, FitConvergenceError, SensitivityError,
                     ValidationError)
from .states import (PhononDistribution, coherent_distribution,
                     mbar_from_curvature, squeezed_thermal_distribution,
                     squeezed_vacuum_distribution, thermal_distribution)

TWO_PI = 2.0 * math.pi

# ---------------------------------------------------------------------------
# Types
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SidebandConfig:
    """Detection parameters shared by the sideband forward models."""

    omega_rabi: float          # base Rabi rate Omega_{0,1} (rad/s)
    t_rsb: float = 0.0         # red-sideband probe duration (s)
    a_bg: float = 0.0          # background brightness of the readout model
    eta: float = 1.0           # detection efficiency of the readout model
    gamma0: float = 0.0        # base decoherence rate of the flopping model (1/s)

    def __post_init__(self):
        if not (math.isfinite(self.omega_rabi) and 0.0 <= self.t_rsb < math.inf
                and 0.0 <= self.gamma0 < math.inf):
            raise DomainError("omega_rabi, t_rsb and gamma0 must be finite; t_rsb, gamma0 >= 0")
        if not 0.0 <= self.a_bg <= 1.0:
            raise DomainError("a_bg must be in [0, 1]")
        if not 0.0 <= self.eta <= 1.0:
            raise DomainError("eta must be in [0, 1]")


@dataclass(frozen=True)
class BrightnessSample:
    """One measured brightness point."""

    t: float          # s
    p_up: float
    sigma: float

    def __post_init__(self):
        if not 0.0 <= self.t < math.inf:
            raise DomainError("t must be finite and >= 0")
        if not 0.0 <= self.p_up <= 1.0:
            raise DomainError("p_up must be in [0, 1]")
        if not (math.isfinite(self.sigma) and self.sigma > 0.0):
            raise DomainError("sigma must be finite and > 0")


@dataclass(frozen=True)
class EstimatorConfig:
    """Finite-difference step of the linearized estimator."""

    delta: float = 0.05

    def __post_init__(self):
        if self.delta <= 0.0:
            raise DomainError("delta must be > 0")


class SimulatedResponse(NamedTuple):
    """Simulated brightness/occupation at the nominal and +/-delta inputs."""

    p_up: float
    nbar: float
    p_up_plus: float
    nbar_plus: float
    p_up_minus: float
    nbar_minus: float


# ---------------------------------------------------------------------------
# Forward models
# ---------------------------------------------------------------------------


def _as_probs(p) -> np.ndarray:
    arr = p.p if isinstance(p, PhononDistribution) else np.asarray(p, dtype=float)
    if arr.ndim != 1 or arr.size == 0:
        raise DomainError("phonon distribution must be a 1-d array")
    if abs(arr.sum() - 1.0) > 1e-6:
        raise DomainError("phonon distribution must be normalized")
    return arr


def red_sideband_brightness(p, cfg: SidebandConfig) -> float:
    """Readout brightness p_up = a + eta sum_n p(n)(1 - cos(sqrt(n) Omega t))/2."""
    probs = _as_probs(p)
    n = np.arange(probs.size)
    flip = 0.5 * (1.0 - np.cos(np.sqrt(n) * cfg.omega_rabi * cfg.t_rsb))
    return float(cfg.a_bg + cfg.eta * (probs @ flip))


def blue_sideband_flopping(p, cfg: SidebandConfig, t_grid,
                           contrast: float = 1.0, background: float = 0.0) -> np.ndarray:
    """Calibration flopping curve

    p_up(t) = (a/2)(1 - sum_n p(n) cos(sqrt(n+1) Omega t) e^{-sqrt(n+1) gamma0 t}) + b

    with contrast a and background b (fit parameters, distinct from the
    readout model's a_bg/eta).  Every time must be finite and >= 0.
    """
    probs = _as_probs(p)
    t = np.asarray(t_grid, dtype=float).reshape(-1)
    if not np.all((0.0 <= t) & (t < math.inf)):
        raise DomainError("every time must be finite and >= 0")
    sums = _flopping_sums(t, cfg.omega_rabi, cfg.gamma0, probs[:, None])
    return 0.5 * contrast * (1.0 - sums[:, 0].real) + background


def _flopping_sums(t: np.ndarray, omega: float, gamma0: float, coef: np.ndarray) -> np.ndarray:
    """sum_n coef[n, k] e^{z_n t}, z_n = sqrt(n+1)(-gamma0 + i omega), at times t >= 0."""
    z = np.sqrt(np.arange(coef.shape[0]) + 1.0) * complex(-gamma0, omega)
    return _kernel_sums(t, z, coef, np.exp)


# ---------------------------------------------------------------------------
# Linearized estimator
# ---------------------------------------------------------------------------


def estimate_nbar(p_up_exp: float, simulated: SimulatedResponse,
                  cfg: EstimatorConfig) -> float:
    """Linearized mean-phonon estimate

    nbar_exp = nbar_th + (d nbar / d p_up) (p_up_exp - p_up_th),

    with the derivative taken as the secant through the +/-delta simulations.
    """
    denom = simulated.p_up_plus - simulated.p_up_minus
    if abs(denom) < 1e-6:
        raise SensitivityError(
            f"brightness insensitive to the occupation shift (|dp| = {abs(denom):.2e})"
        )
    slope = (simulated.nbar_plus - simulated.nbar_minus) / denom
    return simulated.nbar + slope * (p_up_exp - simulated.p_up)


# ---------------------------------------------------------------------------
# Least squares
# ---------------------------------------------------------------------------


@dataclass(eq=False)
class LMSolution:
    theta: np.ndarray
    cov: np.ndarray      # pseudo-inverse: zero along dropped directions and held parameters
    errors: np.ndarray   # sqrt(diag(cov)), inf where a dropped direction loads or held
    cost: float
    cost_history: list[float]
    n_iter: int
    rank: int            # numerical rank of the Jacobian's free columns at the minimum
    cond: float          # its condition number s_max / s_min


#: trf stops when the relative cost change, the relative step or the gradient
#: norm falls below this
_SOLVER_TOL = 1e-10
#: singular values of the final Jacobian below this share of the largest are
#: dropped from the covariance (the distribution columns of a fit Jacobian
#: are forward differences, which resolve no finer)
_RANK_RTOL = math.sqrt(np.finfo(float).eps)
#: a parameter whose squared loading on the dropped singular directions
#: exceeds this is not resolved by the data: its error is reported as inf.
#: Rounding leaves loadings of order eps on the others (at most 2e-15 over
#: the free fits of thermometry records), and a parameter along a dropped
#: direction loads ~1.
_UNRESOLVED_LOADING = 1e-6
#: residual evaluations a fit may spend before it raises FitConvergenceError
_MAX_NFEV = 500


def damped_least_squares(fn: Callable[[np.ndarray], np.ndarray], theta0: np.ndarray,
                         jac: Callable[[np.ndarray], np.ndarray],
                         lower: np.ndarray | float = -np.inf) -> LMSolution:
    """Trust-region minimization of sum(fn(theta)^2) with Jacobian ``jac(theta)``.

    One ``scipy.optimize.least_squares`` call (``trf``); ``jac`` returns the
    (residuals x parameters) derivative matrix of ``fn``, and ``lower`` bounds
    theta from below (unbounded by default).  An evaluation of ``fn`` that
    raises OverflowError, FloatingPointError or ValidationError is an
    infeasible trial point: it returns non-finite residuals, which ``trf``
    rejects by shrinking its trust region.  ``jac`` is called only at the
    start and at accepted points, so the starting point must be feasible.
    ``cost_history`` holds the starting and accepted costs, so it strictly
    decreases.  A parameter left on its bound is held there (error inf, zero
    covariance); ``cov``, ``errors``, ``rank`` and ``cond`` come from
    :func:`_covariance` of the other columns of the final Jacobian.  Running
    out of :data:`_MAX_NFEV` residual evaluations raises ``FitConvergenceError``.
    """
    # imported here, so that only fits pay for loading scipy.optimize
    from scipy.optimize import least_squares

    r0 = None
    costs: list[float] = []

    def residuals(theta: np.ndarray) -> np.ndarray:
        nonlocal r0
        if r0 is None:
            r0 = fn(theta)
            return r0
        try:
            return fn(theta)
        except (OverflowError, FloatingPointError, ValidationError):
            return np.full_like(r0, np.nan)

    def record(intermediate_result) -> None:   # scipy passes its state by this name
        costs.append(2.0 * float(intermediate_result.cost))   # scipy's cost is half

    res = least_squares(residuals, theta0, jac=jac, method="trf", ftol=_SOLVER_TOL,
                        xtol=_SOLVER_TOL, gtol=_SOLVER_TOL, max_nfev=_MAX_NFEV,
                        bounds=(lower, np.inf), callback=record)
    if res.status == 0:
        raise FitConvergenceError(f"no convergence within max_nfev = {_MAX_NFEV}")
    history = [float(r0 @ r0)]
    for cost in costs:              # iterations that accept no step repeat the cost
        if cost < history[-1]:
            history.append(cost)

    free = res.active_mask == 0
    cov, errors = np.zeros((free.size, free.size)), np.full(free.size, math.inf)
    cov[np.ix_(free, free)], errors[free], rank, cond = _covariance(res.jac[:, free])
    return LMSolution(theta=res.x, cov=cov, errors=errors, cost=2.0 * res.cost,
                      cost_history=history, n_iter=len(costs), rank=rank, cond=cond)


def _covariance(jac: np.ndarray) -> tuple[np.ndarray, np.ndarray, int, float]:
    """Covariance, errors, rank and condition number of a least-squares Jacobian J.

    The covariance is the SVD pseudo-inverse of J^T J without the singular
    values below ``_RANK_RTOL`` of the largest.  The errors are the roots of
    its diagonal, or inf for a parameter that loads on a dropped direction.
    """
    _, sv, vt = np.linalg.svd(jac, full_matrices=False)
    keep = sv > _RANK_RTOL * sv[:1]         # [:1]: a J without columns has no sv
    cov = (vt[keep].T / sv[keep] ** 2) @ vt[keep]
    unresolved = (vt[~keep] ** 2).sum(axis=0) > _UNRESOLVED_LOADING
    errors = np.where(unresolved, math.inf, np.sqrt(np.diag(cov)))
    cond = float(sv[0] / sv[-1]) if sv.size and sv[-1] > 0.0 else math.inf
    return cov, errors, int(keep.sum()), cond


# ---------------------------------------------------------------------------
# Distribution fits
# ---------------------------------------------------------------------------

_FIT_CUTOFF = 150          # ladder length for model distributions during fits
FREE_FIT_NMAX = 13         # free-distribution fit covers n = 0..13


def _softmax_with_fixed_head(logits: np.ndarray) -> np.ndarray:
    full = np.concatenate(([0.0], logits))
    full = full - full.max()
    expv = np.exp(full)
    return expv / expv.sum()


#: model name -> (distribution parameters with their default seeds,
#: populations on n = 0..cutoff from those parameters' values, in order)
FIT_MODELS: dict[str, tuple[dict[str, float], Callable[..., np.ndarray]]] = {
    "thermal": ({"nbar": 1.0}, lambda nbar: thermal_distribution(
        nbar, _FIT_CUTOFF, tail_budget=1.0).p),
    "coherent": ({"mbar": 1.0}, lambda mbar: coherent_distribution(
        mbar, _FIT_CUTOFF, tail_budget=1.0).p),
    "squeezed_vacuum": ({"r": 0.5}, lambda r: squeezed_vacuum_distribution(
        r, _FIT_CUTOFF, tail_budget=1.0).p),
    "squeezed_thermal": ({"nbar": 1.0, "r": 0.5}, lambda nbar, r: squeezed_thermal_distribution(
        nbar, r, _FIT_CUTOFF, tail_budget=1.0).p),
    # softmax-parameterized populations on n = 0..FREE_FIT_NMAX, p(0)'s logit fixed at 0
    "free": ({f"logit{n}": 0.0 for n in range(1, FREE_FIT_NMAX + 1)},
             lambda *logits: _softmax_with_fixed_head(np.array(logits))),
}
_SHAPE_PARAMS = ("a", "b", "omega01", "gamma0")
#: parameters bounded below by 0 in the solver; the others are unbounded
_NONNEGATIVE_PARAMS = {"nbar", "mbar", "r", "omega01", "gamma0"}
#: a coherent fit from the periodogram seed above this reduced chi2 is
#: refitted from omega01 seeds omega_peak / sqrt(k), k in _OMEGA_RUNGS.
#: Only coherent: a free fit at omega01 = Omega / sqrt(k) holds every
#: base-rate distribution on its levels k (n + 1) - 1, so a sub-harmonic
#: rung can win on noise alone.
_REFIT_CHI2 = 2.0
_OMEGA_RUNGS = range(2, 7)


@dataclass(eq=False)
class FitResult:
    """Outcome of a distribution fit."""

    model: str
    params: dict[str, float]
    errors: dict[str, float]
    reduced_chi2: float
    cost_history: list[float] = field(repr=False)
    n_iter: int = 0
    rank: int = 0                  # numerical rank of the fit Jacobian
    cond: float = math.nan         # its condition number
    populations: np.ndarray | None = None
    population_errors: np.ndarray | None = None


#: relative step of the population differences (scipy's 2-point default)
_DIFF_STEP = math.sqrt(np.finfo(float).eps)


class _FloppingFit:
    """Residuals (curve - y) / sigma of a :data:`FIT_MODELS` fit and their Jacobian.

    Both take the reported parameters theta: the model's distribution
    parameters, then a, b, omega01 and gamma0, the ``_NONNEGATIVE_PARAMS``
    >= 0.  With p the populations and S the flopping sums
    (:func:`_flopping_sums`) of the columns [p, sqrt(n+1) p, dp/dtheta_dist],
    the Jacobian columns of the
    curve are d/da = (1 - Re S_0) / 2, d/db = 1,
    d/d omega01 = (a/2) t Im S_1 and d/d gamma0 = (a/2) t Re S_1 (because
    d e^{z_n t} / d omega01 = i sqrt(n+1) t e^{z_n t}), and -(a/2) Re S_dist
    for the distribution parameters.  dp/dtheta_dist is a forward difference
    of the populations alone in theta, at scipy's 2-point step, the same for
    every model; a parameter at 0 steps upward, inside its bound.
    """

    def __init__(self, model: str, ts: np.ndarray, ys: np.ndarray, sigmas: np.ndarray):
        dist_seeds, self.populations = FIT_MODELS[model]
        self.n_dist = len(dist_seeds)
        self.ts, self.ys, self.sigmas = ts, ys, sigmas

    def residuals(self, theta: np.ndarray) -> np.ndarray:
        probs = self.populations(*theta[:self.n_dist].tolist())
        a, b = theta[self.n_dist:self.n_dist + 2]
        sums = _flopping_sums(self.ts, *theta[-2:], probs[:, None])
        curve = 0.5 * a * (1.0 - sums[:, 0].real) + b
        return (curve - self.ys) / self.sigmas

    def jacobian(self, theta: np.ndarray) -> np.ndarray:
        probs = self.populations(*theta[:self.n_dist].tolist())
        columns = [probs, np.sqrt(np.arange(probs.size) + 1.0) * probs]
        for j in range(self.n_dist):
            step = theta[:self.n_dist].copy()
            step[j] += _DIFF_STEP * (1.0 if theta[j] >= 0.0 else -1.0) * max(1.0, abs(theta[j]))
            columns.append((self.populations(*step.tolist()) - probs)
                           / (step[j] - theta[j]))
        sums = _flopping_sums(self.ts, *theta[-2:], np.column_stack(columns))
        a = theta[self.n_dist]
        jac = np.empty((self.ts.size, theta.size))
        jac[:, :self.n_dist] = -0.5 * a * sums[:, 2:].real
        jac[:, self.n_dist] = 0.5 * (1.0 - sums[:, 0].real)
        jac[:, self.n_dist + 1] = 1.0
        jac[:, self.n_dist + 2] = 0.5 * a * self.ts * sums[:, 1].imag
        jac[:, self.n_dist + 3] = 0.5 * a * self.ts * sums[:, 1].real
        return jac / self.sigmas[:, None]


def _default_omega_seed(samples: Sequence[BrightnessSample]) -> float:
    """Dominant angular frequency of the detrended brightness record.

    The least-squares cost is multimodal in omega01, so the seed must land
    in the right basin.  A dense periodogram between one cycle per record
    and the Nyquist rate finds the strongest spectral line, which sits at
    the base flopping rate for any low-occupation mixture.
    """
    ts = np.array([s.t for s in samples])
    ys = np.array([s.p_up for s in samples])
    order = np.argsort(ts)
    ts, ys = ts[order], ys[order] - ys.mean()
    span = float(ts[-1] - ts[0])
    if span <= 0.0:
        return TWO_PI / max(float(ts[-1]), 1e-6)
    w_lo = TWO_PI / span
    w_hi = math.pi / max(float(np.median(np.diff(ts))), 1e-12)
    if w_hi <= w_lo:
        return w_lo
    omegas = np.linspace(w_lo, w_hi, 800)
    # |sum_i y_i e^{-i w t_i}| with the frequencies as the kernel's times and
    # -i t_i as its exponents
    power = np.abs(_kernel_sums(omegas, -1j * ts, ys[:, None], np.exp)[:, 0])
    return float(omegas[int(np.argmax(power))])


def fit_distribution(samples: Sequence[BrightnessSample], model: str,
                     seed: dict[str, float] | None = None) -> FitResult:
    """Weighted least-squares fit of the flopping model to brightness data.

    ``model`` selects the phonon distribution, one of :data:`FIT_MODELS`:
    ``thermal``, ``coherent``, ``squeezed_vacuum``, ``squeezed_thermal`` or
    ``free`` (softmax-parameterized populations on n = 0..13).  ``seed``
    overrides the default initial guesses by name; shape parameters are
    a (contrast), b (background), omega01 (rad/s) and gamma0 (1/s).

    The periodogram's strongest line may be a level's sqrt(n+1) Omega line
    instead of the base rate (coherent records above mbar ~ 1).  So unless
    ``seed`` sets omega01, a coherent fit whose reduced chi2 exceeds
    ``_REFIT_CHI2`` is refitted from omega01 = omega_peak / sqrt(k) for
    k = 2..6, and the lowest reduced chi2 is kept; a refit that does not
    converge is skipped.  The other models are fitted once.
    """
    if model not in FIT_MODELS:
        raise ValidationError(f"unknown model {model!r}")
    dist_seeds, populations = FIT_MODELS[model]
    samples, seed = list(samples), seed or {}
    names = tuple(dist_seeds) + _SHAPE_PARAMS
    n_params = len(names)
    if len(samples) < 3 * n_params:
        raise ValidationError(f"need at least {3 * n_params} samples for {n_params} "
                              f"parameters, got {len(samples)}")

    ts = np.array([s.t for s in samples])
    ys = np.array([s.p_up for s in samples])
    sigmas = np.array([s.sigma for s in samples])

    defaults = {
        **dist_seeds,
        "a": max(float(ys.max() - ys.min()), 0.1),
        "b": float(ys.min()),
        "omega01": seed["omega01"] if "omega01" in seed else _default_omega_seed(samples),
        "gamma0": 0.05 / max(float(ts.max()), 1e-12),
    }
    problem = _FloppingFit(model, ts, ys, sigmas)
    lower = np.array([0.0 if name in _NONNEGATIVE_PARAMS else -math.inf for name in names])
    start = np.array([float(seed.get(name, defaults[name])) for name in names])

    solution = damped_least_squares(problem.residuals, np.maximum(start, lower),
                                    problem.jacobian, lower=lower)
    values = solution.theta.tolist()
    result = FitResult(model=model, params=dict(zip(names, values)),
                       errors=dict(zip(names, solution.errors.tolist())),
                       reduced_chi2=solution.cost / max(len(samples) - n_params, 1),
                       cost_history=solution.cost_history, n_iter=solution.n_iter,
                       rank=solution.rank, cond=solution.cond,
                       populations=populations(*values[:len(dist_seeds)]))
    if model == "free":
        # softmax sensitivity to the free logits (head fixed at 0)
        probs = result.populations
        smax_jac = np.diag(probs)[:, 1:] - np.outer(probs, probs[1:])
        cov_p = smax_jac @ solution.cov[:FREE_FIT_NMAX, :FREE_FIT_NMAX] @ smax_jac.T
        result.population_errors = np.sqrt(np.clip(np.diag(cov_p), 0.0, None))
    if model == "coherent" and result.reduced_chi2 > _REFIT_CHI2 and "omega01" not in seed:
        for k in _OMEGA_RUNGS:
            try:
                refit = fit_distribution(samples, model, {
                    **seed, "omega01": defaults["omega01"] / math.sqrt(k)})
            except FitConvergenceError:
                continue
            if refit.reduced_chi2 < result.reduced_chi2:
                result = refit
    return result


# ---------------------------------------------------------------------------
# Preparation-curve calibration
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PreparationFits:
    """Calibration-curve fits with 1-sigma standard errors (SI units)."""

    beta: float = math.nan            # phonons / s^2
    beta_err: float = math.nan
    nbar0: float = math.nan           # residual occupation of the quadratic fit
    nbar0_err: float = math.nan
    mbar: float = math.nan            # phonons per calibration step
    step_slope: float = math.nan      # phonons per random-walk step
    step_slope_err: float = math.nan
    step_offset: float = math.nan
    step_offset_err: float = math.nan
    rho_rate: float = math.nan        # squeezing parameter growth rate (1/s)
    rho_rate_err: float = math.nan


def fit_preparation_curves(coherent_curve: tuple[np.ndarray, np.ndarray] | None = None,
                           steps_curve: tuple[np.ndarray, np.ndarray] | None = None,
                           squeeze_curve: tuple[np.ndarray, np.ndarray] | None = None
                           ) -> PreparationFits:
    """Fit the preparation calibration curves by linear least squares.

    - ``coherent_curve``: (t, mbar) fitted to n0 + beta t^2
    - ``steps_curve``:    (steps, nbar) fitted to offset + slope * steps
    - ``squeeze_curve``:  (t, r) fitted through the origin to rho_rate * t

    Each curve is two 1-d arrays of the same length, at least 3 finite
    points.  Errors are those of :func:`_covariance` of the design matrix
    with unit-norm columns, scaled by the residual variance, so a coefficient
    the design does not resolve (all x equal) reports an infinite error.
    ``mbar`` is beta at the standard step duration (:func:`mbar_from_curvature`).
    """
    curves = (
        ("coherent", coherent_curve, lambda x: (np.ones_like(x), x ** 2), ("nbar0", "beta")),
        ("steps", steps_curve, lambda x: (np.ones_like(x), x), ("step_offset", "step_slope")),
        ("squeeze", squeeze_curve, lambda x: (x,), ("rho_rate",)),
    )
    out: dict[str, float] = {}
    for label, curve, columns, names in curves:
        if curve is None:
            continue
        x, y = (np.asarray(v, dtype=float) for v in curve)
        if x.ndim != 1 or x.shape != y.shape or x.size < 3:
            raise ValidationError(f"{label} curve needs >= 3 (x, y) points as two 1-d arrays")
        if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
            raise ValidationError(f"{label} curve must be finite")
        design = np.column_stack(columns(x))
        coef = np.linalg.lstsq(design, y, rcond=None)[0]
        resid = y - design @ coef
        scale = math.sqrt(float(resid @ resid) / max(y.size - len(names), 1))
        # unit-norm columns make the rank cut independent of the units of x
        norms = np.linalg.norm(design, axis=0)
        norms[norms == 0.0] = 1.0           # an all-zero column stays unresolved
        _, errors, _, _ = _covariance(design / norms)
        for name, value, err, norm in zip(names, coef, errors, norms):
            out[name] = float(value)
            out[f"{name}_err"] = float(err * scale / norm) if err < math.inf else math.inf
    if not out:
        raise ValidationError("no calibration curves supplied")
    return PreparationFits(**out, mbar=mbar_from_curvature(out.get("beta", math.nan)))


# ---------------------------------------------------------------------------
# Data ingestion
# ---------------------------------------------------------------------------

_CSV_HEADER = ["t_us", "p_up", "sigma"]


def load_brightness_csv(path) -> list[BrightnessSample]:
    """Read brightness samples from CSV with header ``t_us,p_up,sigma``."""
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            lines = fh.readlines()
    except UnicodeDecodeError as exc:
        raise ValidationError(f"{path}: not UTF-8 text ({exc})") from None
    reader = csv.reader(lines)
    try:
        header = next(reader)
    except StopIteration:
        raise ValidationError("empty brightness CSV") from None
    if [h.strip() for h in header] != _CSV_HEADER:
        raise ValidationError(
            f"bad header {header!r}; expected {','.join(_CSV_HEADER)}")
    samples = []
    for row in reader:
        if not row:
            continue
        where = f"{path}, line {reader.line_num}"
        if len(row) != 3:
            raise ValidationError(f"{where}: bad row {row!r}")
        try:
            t_us, p_up, sigma = (float(v) for v in row)
            samples.append(BrightnessSample(t=t_us * 1e-6, p_up=p_up, sigma=sigma))
        except ValueError as exc:       # DomainError is a ValueError too
            raise ValidationError(f"{where}: {exc}") from None
    return samples


def save_brightness_csv(path, samples: Sequence[BrightnessSample]) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(_CSV_HEADER) + "\n")
        for s in samples:
            fh.write(f"{s.t * 1e6:.12g},{s.p_up:.12g},{s.sigma:.12g}\n")


def synthetic_brightness(p, cfg: SidebandConfig, t_grid, contrast: float,
                         background: float, sigma: float,
                         rng: np.random.Generator) -> list[BrightnessSample]:
    """Noisy flopping samples for round-trip tests and demos."""
    curve = blue_sideband_flopping(p, cfg, t_grid, contrast, background)
    noisy = np.clip(curve + rng.normal(0.0, sigma, curve.size), 0.0, 1.0)
    return [BrightnessSample(t=float(t), p_up=float(y), sigma=sigma)
            for t, y in zip(np.atleast_1d(t_grid), noisy)]
