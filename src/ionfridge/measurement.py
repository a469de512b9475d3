"""Sideband detection models, the linearized thermometry estimator, and
phonon-distribution fits.

Two distinct forward models are exposed: a single-time red-sideband
brightness (no decoherence term) used for refrigerator readout, and a
blue-sideband flopping curve with sqrt(n+1)-scaled Rabi rates and
decoherence used for distribution fits.  The flopping curve is a sum of
damped oscillations e^{z_n t}, z_n = sqrt(n+1)(-gamma0 + i Omega), summed
by :func:`~ionfridge.dynamics._kernel_sums` (this module factors no times
itself), as is the periodogram that seeds a fit, with the frequencies as
times.  Fits are weighted least squares on a bounded Levenberg-Marquardt
loop in numpy (:func:`damped_least_squares`; no scipy) with an analytic
Jacobian read from the same sums, one coefficient column per derivative:
the shape columns are closed-form and the distribution columns difference
the populations only.  Fits run in the reported parameters, the positive
ones bounded below by 0, and report the rank and condition number of the
final Jacobian, with an infinite error for a parameter the data do not
resolve or that is held at its bound; the free-distribution fit
parameterizes the simplex with a softmax so the constraints hold by
construction.  A record's distinct instants, counted once per fit, gate
the fit and bound the periodogram at their Nyquist rate.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .dynamics import _kernel_sums
from .errors import (DomainError, FitConvergenceError, SensitivityError,
                     ValidationError)
from .states import (PhononDistribution, coherent_distribution,
                     squeezed_thermal_distribution, squeezed_vacuum_distribution,
                     thermal_distribution)


# ---------------------------------------------------------------------------
# Types
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SidebandConfig:
    """Detection parameters shared by the sideband forward models.

    The readout brightness a_bg + eta * flip is a probability, so
    a_bg + eta <= 1.
    """

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
        if self.a_bg + self.eta > 1.0:
            raise DomainError(f"a_bg + eta must be <= 1, so the brightness stays a "
                              f"probability; got {self.a_bg!r} + {self.eta!r}")


#: the rules every sample of a brightness record keeps: field, test (on an
#: array of the field's values; NaN fails every test) and the message of the
#: error it raises
_SAMPLE_RULES = (
    ("t", lambda t: (0.0 <= t) & (t < math.inf), "t must be finite and >= 0"),
    ("p_up", lambda p: (0.0 <= p) & (p <= 1.0), "p_up must be in [0, 1]"),
    ("sigma", lambda s: (0.0 < s) & (s < math.inf), "sigma must be finite and > 0"),
)


def _first_invalid(columns) -> tuple[int, str] | None:
    """Index of the first sample that breaks a :data:`_SAMPLE_RULES` rule and
    the first rule it breaks, or None."""
    ok = np.array([test(col) for (_, test, _), col in zip(_SAMPLE_RULES, columns)])
    bad = np.flatnonzero(~ok.all(axis=0))
    if not bad.size:
        return None
    return int(bad[0]), _SAMPLE_RULES[int(np.argmin(ok[:, bad[0]]))][2]


class BrightnessRecord:
    """A brightness record: the columns t (s), p_up and sigma as read-only
    float arrays of one length, every sample checked once by
    :data:`_SAMPLE_RULES` (``DomainError``, naming the sample)."""

    __slots__ = ("t", "p_up", "sigma")

    def __init__(self, t, p_up, sigma):
        columns = [np.array(c, dtype=float) for c in (t, p_up, sigma)]
        if any(c.ndim != 1 or c.size != columns[0].size for c in columns):
            raise DomainError(f"t, p_up and sigma must be 1-d columns of one length, got "
                              f"shapes {[c.shape for c in columns]}")
        invalid = _first_invalid(columns)
        if invalid is not None:
            raise DomainError(f"{invalid[1]} (sample {invalid[0]})")
        for column in columns:
            column.flags.writeable = False
        self.t, self.p_up, self.sigma = columns

    def __len__(self) -> int:
        return self.t.size


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
    return (p if isinstance(p, PhononDistribution) else PhononDistribution(p)).p


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
    return _kernel_sums(t, z, coef)


# ---------------------------------------------------------------------------
# Linearized estimator
# ---------------------------------------------------------------------------


def estimate_nbar(p_up_exp: float, simulated: SimulatedResponse,
                  cfg: EstimatorConfig) -> float:
    """Linearized mean-phonon estimate

    nbar_exp = nbar_th + (d nbar / d p_up) (p_up_exp - p_up_th),

    with the derivative taken as the secant through the +/-delta simulations.
    ``p_up_exp`` and every field of ``simulated`` must be finite.
    """
    if not all(map(math.isfinite, (p_up_exp, *simulated))):
        raise DomainError(f"estimate_nbar needs finite inputs, got p_up_exp = {p_up_exp!r} "
                          f"and {simulated!r}")
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


#: the solver stops when an accepted step lowers the cost by less than this
#: share, when a step is shorter than this share of |theta|, or when the
#: largest gradient entry of the free parameters falls below it; a parameter
#: this close to its bound, with its gradient pointing out, is held there
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
#: evaluations a fit may spend before it raises FitConvergenceError
_MAX_NFEV = 500
#: starting damping as a share of the largest squared singular value, the
#: least factor an accepted step may shrink the damping by, and the least
#: damping (so that a zero singular value takes a zero step)
_DAMPING_START = 1e-12
_DAMPING_SHRINK = 0.1
_DAMPING_FLOOR = np.finfo(float).tiny


def damped_least_squares(fn: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]],
                         theta0: np.ndarray,
                         lower: np.ndarray | float = -np.inf) -> LMSolution:
    """Levenberg-Marquardt minimization of sum(r^2), where ``fn(theta)`` returns
    the residuals r and their (residuals x parameters) Jacobian.

    ``lower`` bounds theta from below (unbounded by default).  Each
    accepted point takes one SVD U diag(s) V^T of the free Jacobian columns;
    every trial step from it is the damped Gauss-Newton step
    -V diag(s / (s^2 + lam)) U^T r, projected onto the bound.  The damping
    is lam times the identity, not scaled by the Jacobian's columns: it
    starts at 1e-12 s_max^2 and follows Nielsen's rule, an accepted step
    with gain ratio rho scaling it by max(0.1, 1 - (2 rho - 1)^3) and
    rejected ones by 2, 4, 8, ...  ``fn`` is evaluated at the start and once
    per trial, and an accepted trial keeps the Jacobian of its evaluation.
    A trial whose evaluation raises OverflowError, FloatingPointError or
    ValidationError, or returns non-finite residuals, is infeasible and is
    rejected; the starting point must be feasible.  ``cost_history`` holds
    the starting and accepted costs, so it strictly decreases, and
    ``n_iter`` counts the trial steps.  A parameter within
    ``_SOLVER_TOL`` of its bound whose gradient points out of the bounds is
    held there (error inf, zero covariance); ``cov``, ``errors``, ``rank``
    and ``cond`` come from :func:`_covariance` of the other columns of the
    final Jacobian.  Running out of :data:`_MAX_NFEV` evaluations
    raises ``FitConvergenceError``.
    """
    theta = np.asarray(theta0, dtype=float)
    lower = np.broadcast_to(np.asarray(lower, dtype=float), theta.shape)
    r, jmat = fn(theta)
    cost = float(r @ r)
    history = [cost]
    nfev, n_iter, lam, nu, stop = 1, 0, math.nan, 2.0, False
    while True:
        free = ~((theta - lower <= _SOLVER_TOL) & (jmat.T @ r > 0.0))
        jfree = jmat[:, free]
        if stop or np.abs(jfree.T @ r).max(initial=0.0) < _SOLVER_TOL:
            break
        u, sv, vt = np.linalg.svd(jfree, full_matrices=False)
        utr = u.T @ r
        if math.isnan(lam):
            lam = max(_DAMPING_START * float(sv[0]) ** 2, _DAMPING_FLOOR)
        while not stop:
            if nfev >= _MAX_NFEV:
                raise FitConvergenceError(f"no convergence within max_nfev = {_MAX_NFEV}")
            trial = theta.copy()
            trial[free] -= vt.T @ (sv / (sv * sv + lam) * utr)
            step = np.maximum(trial, lower) - theta
            nfev += 1
            n_iter += 1
            try:
                r_new, j_new = fn(theta + step)
                cost_new = float(r_new @ r_new)
            except (OverflowError, FloatingPointError, ValidationError):
                cost_new = math.inf
            model = r + jfree @ step[free]
            predicted = cost - float(model @ model)
            rho = (cost - cost_new) / predicted if predicted > 0.0 else -1.0
            stop = bool(np.linalg.norm(step)
                        < _SOLVER_TOL * (_SOLVER_TOL + np.linalg.norm(theta)))
            if rho > 0.0:              # nan (non-finite residuals) is rejected too
                stop |= rho > 0.25 and cost - cost_new < _SOLVER_TOL * cost
                theta, r, cost, jmat = theta + step, r_new, cost_new, j_new
                history.append(cost)
                shrink = max(_DAMPING_SHRINK, 1.0 - (2.0 * rho - 1.0) ** 3)
                lam, nu = max(lam * shrink, _DAMPING_FLOOR), 2.0
                break
            lam *= nu
            nu *= 2.0

    cov, errors = np.zeros((free.size, free.size)), np.full(free.size, math.inf)
    cov[np.ix_(free, free)], errors[free], rank, cond = _covariance(jfree)
    return LMSolution(theta=theta, cov=cov, errors=errors, cost=cost,
                      cost_history=history, n_iter=n_iter, rank=rank, cond=cond)


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
#: shots whose sorted gap is at most this share of the gap scale are one time
_SAME_INSTANT = 0.1


@dataclass(eq=False)
class FitResult:
    """Outcome of a distribution fit."""

    model: str
    params: dict[str, float]
    errors: dict[str, float]
    reduced_chi2: float
    n_iter: int
    rank: int                      # numerical rank of the fit Jacobian
    cond: float                    # its condition number
    populations: np.ndarray
    population_errors: np.ndarray | None = None   # free fits only


#: relative step of the population differences (the root of machine epsilon,
#: the usual forward-difference step)
_DIFF_STEP = math.sqrt(np.finfo(float).eps)


class _FloppingFit:
    """Residuals (curve - y) / sigma of a :data:`FIT_MODELS` fit and their Jacobian.

    :meth:`evaluate` takes the reported parameters theta: the model's
    distribution parameters, then a, b, omega01 and gamma0, the
    ``_NONNEGATIVE_PARAMS`` >= 0.  It builds the populations p and their
    forward differences once, and takes one set of flopping sums S
    (:func:`_flopping_sums`) of the columns [p, sqrt(n+1) p, dp/dtheta_dist].
    The curve is (a/2)(1 - Re S_0) + b, and its Jacobian columns are
    d/da = (1 - Re S_0) / 2, d/db = 1, d/d omega01 = (a/2) t Im S_1 and
    d/d gamma0 = (a/2) t Re S_1 (because d e^{z_n t} / d omega01 =
    i sqrt(n+1) t e^{z_n t}), and -(a/2) Re S_dist for the distribution
    parameters.  dp/dtheta_dist is a forward difference of the populations
    alone in theta, at the ``_DIFF_STEP`` step, the same for every model; a
    parameter at 0 steps upward, inside its bound.
    """

    def __init__(self, model: str, ts: np.ndarray, ys: np.ndarray, sigmas: np.ndarray):
        dist_seeds, self.populations = FIT_MODELS[model]
        self.n_dist = len(dist_seeds)
        self.ts, self.ys, self.sigmas = ts, ys, sigmas

    def evaluate(self, theta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        probs = self.populations(*theta[:self.n_dist].tolist())
        columns = [probs, np.sqrt(np.arange(probs.size) + 1.0) * probs]
        for j in range(self.n_dist):
            step = theta[:self.n_dist].copy()
            step[j] += _DIFF_STEP * (1.0 if theta[j] >= 0.0 else -1.0) * max(1.0, abs(theta[j]))
            columns.append((self.populations(*step.tolist()) - probs)
                           / (step[j] - theta[j]))
        sums = _flopping_sums(self.ts, *theta[-2:], np.column_stack(columns))
        a, b = theta[self.n_dist:self.n_dist + 2]
        curve = 0.5 * a * (1.0 - sums[:, 0].real) + b
        jac = np.empty((self.ts.size, theta.size))
        jac[:, :self.n_dist] = -0.5 * a * sums[:, 2:].real
        jac[:, self.n_dist] = 0.5 * (1.0 - sums[:, 0].real)
        jac[:, self.n_dist + 1] = 1.0
        jac[:, self.n_dist + 2] = 0.5 * a * self.ts * sums[:, 1].imag
        jac[:, self.n_dist + 3] = 0.5 * a * self.ts * sums[:, 1].real
        return (curve - self.ys) / self.sigmas, jac / self.sigmas[:, None]


def _default_omega_seed(ts: np.ndarray, ys: np.ndarray, spacing: float) -> float:
    """Dominant angular frequency of the detrended brightness record.

    The least-squares cost is multimodal in omega01, so the seed must land
    in the right basin.  A dense periodogram from one cycle per span to the
    Nyquist rate pi / ``spacing`` of the distinct times finds the strongest
    spectral line, the base flopping rate for any low-occupation mixture.
    """
    span = float(ts.max() - ts.min())
    omegas = np.linspace(math.tau / span, math.pi / spacing, 800)
    # |sum_i y_i e^{-i w t_i}| with the frequencies as the kernel's times and
    # -i t_i as its exponents
    power = np.abs(_kernel_sums(omegas, -1j * ts, (ys - ys.mean())[:, None])[:, 0])
    return float(omegas[int(np.argmax(power))])


def _median(x: np.ndarray) -> float:
    """np.median(x), without the numpy.ma import of np.median's first call."""
    s = np.sort(x)
    return 0.5 * float(s[(s.size - 1) // 2] + s[s.size // 2])


def fit_distribution(record: BrightnessRecord, model: str) -> FitResult:
    """Weighted least-squares fit of the flopping model to a brightness record.

    ``model`` selects the phonon distribution, one of :data:`FIT_MODELS`:
    ``thermal``, ``coherent``, ``squeezed_vacuum``, ``squeezed_thermal`` or
    ``free`` (softmax-parameterized populations on n = 0..13).  A record
    needs 3 x (number of parameters) distinct times, else ``ValidationError``;
    shots at most 0.1 of the gap scale apart (the median, over neighbouring
    pairs of sorted gaps, of the larger gap) are one time.  A fit starts
    from the model's default seeds, a (contrast) = the record's range,
    b (background) = its minimum, omega01 (rad/s) = the periodogram peak
    omega_peak and gamma0 (1/s) = 0.05 / the last time.

    The periodogram's strongest line may be a level's sqrt(n+1) Omega line
    instead of the base rate (coherent records above mbar ~ 1).  So a
    coherent fit whose reduced chi2 exceeds ``_REFIT_CHI2`` is fitted again
    from omega01 = omega_peak / sqrt(k) for k = 2..6, and the lowest reduced
    chi2 is kept; a refit that does not converge is skipped.  The other
    models are fitted once.
    """
    if model not in FIT_MODELS:
        raise ValidationError(f"unknown model {model!r}")
    dist_seeds, populations = FIT_MODELS[model]
    names = tuple(dist_seeds) + _SHAPE_PARAMS
    n_params = len(names)
    ts, ys, sigmas = record.t, record.p_up, record.sigma
    gaps = np.diff(np.sort(ts))
    scale = _median(np.maximum(gaps[:-1], gaps[1:])) if gaps.size > 1 else 0.0
    distinct = gaps[gaps > _SAME_INSTANT * scale]
    instants = min(ts.size, 1 + distinct.size)
    if instants < 3 * n_params:
        raise ValidationError(f"need at least {3 * n_params} distinct times for {n_params} "
                              f"parameters, got {instants}")
    problem = _FloppingFit(model, ts, ys, sigmas)
    lower = np.array([0.0 if name in _NONNEGATIVE_PARAMS else -math.inf for name in names])
    omega_peak = _default_omega_seed(ts, ys, _median(distinct))

    def fit_from(omega01: float) -> FitResult:
        start = np.array([*dist_seeds.values(), max(float(ys.max() - ys.min()), 0.1),
                          float(ys.min()), omega01, 0.05 / float(ts.max())])
        solution = damped_least_squares(problem.evaluate, start, lower=lower)
        values = solution.theta.tolist()
        result = FitResult(model=model, params=dict(zip(names, values)),
                           errors=dict(zip(names, solution.errors.tolist())),
                           reduced_chi2=solution.cost / (ts.size - n_params),
                           n_iter=solution.n_iter, rank=solution.rank, cond=solution.cond,
                           populations=populations(*values[:len(dist_seeds)]))
        if model == "free":
            # softmax sensitivity to the free logits (head fixed at 0)
            probs = result.populations
            smax_jac = np.diag(probs)[:, 1:] - np.outer(probs, probs[1:])
            cov_p = smax_jac @ solution.cov[:FREE_FIT_NMAX, :FREE_FIT_NMAX] @ smax_jac.T
            result.population_errors = np.sqrt(np.clip(np.diag(cov_p), 0.0, None))
        return result

    result = fit_from(omega_peak)
    if model == "coherent" and result.reduced_chi2 > _REFIT_CHI2:
        for k in _OMEGA_RUNGS:
            try:
                refit = fit_from(omega_peak / math.sqrt(k))
            except FitConvergenceError:
                continue
            if refit.reduced_chi2 < result.reduced_chi2:
                result = refit
    return result


# ---------------------------------------------------------------------------
# Data ingestion
# ---------------------------------------------------------------------------

_CSV_HEADER = ["t_us", "p_up", "sigma"]


def load_brightness_csv(path) -> BrightnessRecord:
    """Read a brightness record from CSV with header ``t_us,p_up,sigma``; a
    malformed row or a sample that breaks a :data:`_SAMPLE_RULES` rule is a
    ``ValidationError`` naming its line."""
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
    rows, line_nums = [], []
    for row in reader:
        if not row:
            continue
        if len(row) != 3:
            raise ValidationError(f"{path}, line {reader.line_num}: bad row {row!r}")
        try:
            rows.append([float(v) for v in row])
        except ValueError as exc:
            raise ValidationError(f"{path}, line {reader.line_num}: {exc}") from None
        line_nums.append(reader.line_num)
    t_us, p_up, sigma = np.array(rows, dtype=float).reshape(-1, 3).T
    columns = (t_us * 1e-6, p_up, sigma)
    invalid = _first_invalid(columns)
    if invalid is not None:
        raise ValidationError(f"{path}, line {line_nums[invalid[0]]}: {invalid[1]}")
    return BrightnessRecord(*columns)


def save_brightness_csv(path, record: BrightnessRecord) -> None:
    """Write a brightness record as CSV with header ``t_us,p_up,sigma``."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(_CSV_HEADER) + "\n")
        for t, p_up, sigma in zip(record.t.tolist(), record.p_up.tolist(),
                                  record.sigma.tolist()):
            fh.write(f"{t * 1e6:.12g},{p_up:.12g},{sigma:.12g}\n")


def synthetic_brightness(p, cfg: SidebandConfig, t_grid, contrast: float,
                         background: float, sigma: float,
                         rng: np.random.Generator) -> BrightnessRecord:
    """Noisy flopping record for round-trip tests and demos."""
    curve = blue_sideband_flopping(p, cfg, t_grid, contrast, background)
    noisy = np.clip(curve + rng.normal(0.0, sigma, curve.size), 0.0, 1.0)
    return BrightnessRecord(np.ravel(t_grid), noisy, np.full(curve.size, sigma))
