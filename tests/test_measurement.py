"""Sideband detection models, the damped least-squares engine, and fits."""

import math
import warnings

import numpy as np
import pytest
from scipy.optimize import least_squares

from ionfridge import measurement
from ionfridge.errors import (DomainError, FitConvergenceError,
                              SensitivityError, ValidationError)
from ionfridge.measurement import (FIT_MODELS, FREE_FIT_NMAX, BrightnessSample,
                                   EstimatorConfig, SidebandConfig, SimulatedResponse,
                                   _default_omega_seed, _FloppingFit,
                                   blue_sideband_flopping,
                                   damped_least_squares, estimate_nbar,
                                   fit_distribution, fit_preparation_curves,
                                   load_brightness_csv, red_sideband_brightness,
                                   save_brightness_csv, synthetic_brightness)
from ionfridge.states import coherent_distribution, thermal_distribution

TWO_PI = 2.0 * math.pi
OMEGA = TWO_PI * 50e3


# ---------------------------------------------------------------------------
# Forward models
# ---------------------------------------------------------------------------


def test_red_sideband_brightness_hand_formula():
    cfg = SidebandConfig(omega_rabi=OMEGA, t_rsb=7e-6, a_bg=0.02, eta=0.9)
    p = np.array([0.5, 0.5])
    # n = 0 never flips; only the n = 1 term contributes
    expected = 0.02 + 0.9 * 0.5 * 0.5 * (1.0 - math.cos(OMEGA * 7e-6))
    assert red_sideband_brightness(p, cfg) == pytest.approx(expected, rel=1e-12)


def test_red_sideband_vacuum_is_background():
    cfg = SidebandConfig(omega_rabi=OMEGA, t_rsb=11e-6, a_bg=0.03, eta=0.95)
    assert red_sideband_brightness(np.array([1.0]), cfg) == pytest.approx(0.03)


def test_blue_sideband_flopping_ground_state():
    cfg = SidebandConfig(omega_rabi=OMEGA, gamma0=800.0)
    t = np.array([0.0, 4e-6, 9e-6])
    out = blue_sideband_flopping(np.array([1.0]), cfg, t, contrast=0.9, background=0.05)
    expected = 0.45 * (1.0 - np.cos(OMEGA * t) * np.exp(-800.0 * t)) + 0.05
    np.testing.assert_allclose(out, expected, rtol=1e-12)


def _direct_flopping(p, cfg, t, contrast, background):
    """The flopping curve as the dense cos * exp sum over levels and times."""
    root = np.sqrt(np.arange(p.size) + 1.0)
    osc = np.cos(np.outer(t, root) * cfg.omega_rabi) * np.exp(-np.outer(t, root) * cfg.gamma0)
    return 0.5 * contrast * (1.0 - osc @ p) + background


@pytest.mark.parametrize("gamma0", [0.0, 600.0])
def test_blue_sideband_flopping_matches_the_direct_sum(gamma0):
    """The factored kernel (rows x offsets of a uniform grid, one column
    otherwise) equals the dense cos * exp sum to 1e-13."""
    cfg = SidebandConfig(omega_rabi=OMEGA, gamma0=gamma0)
    p = thermal_distribution(1.8, cutoff=150, tail_budget=1.0).p
    grids = [np.linspace(0.5e-6, 150e-6, n) for n in (2, 3, 17, 300)]
    grids += [np.sort(np.random.default_rng(4).uniform(0.0, 150e-6, 40)), np.array([37e-6])]
    for t in grids:
        np.testing.assert_allclose(blue_sideband_flopping(p, cfg, t, 0.93, 0.02),
                                   _direct_flopping(p, cfg, t, 0.93, 0.02), rtol=0, atol=1e-13)


def test_flopping_rejects_negative_and_non_finite_times():
    """Before, a negative pulse length was accepted and the curve grew as
    e^{+sqrt(n+1) gamma0 |t|}."""
    cfg = SidebandConfig(omega_rabi=OMEGA, gamma0=800.0)
    for t in ([1e-6, -1e-6], [math.nan], [0.0, math.inf]):
        with pytest.raises(DomainError, match="time"):
            blue_sideband_flopping(np.array([1.0]), cfg, t)
    with pytest.raises(DomainError):
        BrightnessSample(t=-1e-6, p_up=0.5, sigma=0.01)


def test_forward_models_reject_unnormalized_input():
    cfg = SidebandConfig(omega_rabi=OMEGA, t_rsb=5e-6)
    with pytest.raises(DomainError):
        red_sideband_brightness(np.array([0.5, 0.2]), cfg)
    with pytest.raises(DomainError):
        blue_sideband_flopping(np.array([[1.0]]), cfg, [1e-6])


def test_sideband_config_validation():
    with pytest.raises(DomainError):
        SidebandConfig(omega_rabi=OMEGA, a_bg=1.5)
    with pytest.raises(DomainError):
        SidebandConfig(omega_rabi=OMEGA, eta=-0.1)
    with pytest.raises(DomainError):
        SidebandConfig(omega_rabi=OMEGA, gamma0=-1.0)
    # non-finite values and a negative probe time (before, accepted: the
    # forward models returned NaN)
    for field, value in (("omega_rabi", math.nan), ("omega_rabi", math.inf),
                         ("t_rsb", math.inf), ("t_rsb", math.nan), ("t_rsb", -1e-6),
                         ("gamma0", math.inf), ("gamma0", math.nan)):
        with pytest.raises(DomainError):
            SidebandConfig(**{"omega_rabi": OMEGA, field: value})
    with pytest.raises(DomainError):
        BrightnessSample(t=1e-6, p_up=1.2, sigma=0.01)
    with pytest.raises(DomainError):
        BrightnessSample(t=1e-6, p_up=0.5, sigma=0.0)
    for t, sigma in ((math.inf, 0.01), (math.nan, 0.01), (1e-6, math.nan), (1e-6, math.inf)):
        with pytest.raises(DomainError):
            BrightnessSample(t=t, p_up=0.5, sigma=sigma)


# ---------------------------------------------------------------------------
# Linearized estimator
# ---------------------------------------------------------------------------


def test_estimate_nbar_secant():
    sim = SimulatedResponse(p_up=0.40, nbar=2.00,
                            p_up_plus=0.45, nbar_plus=2.05,
                            p_up_minus=0.35, nbar_minus=1.95)
    cfg = EstimatorConfig(delta=0.05)
    assert estimate_nbar(0.42, sim, cfg) == pytest.approx(2.02, rel=1e-12)
    assert estimate_nbar(0.40, sim, cfg) == pytest.approx(2.00)


def test_estimate_nbar_insensitive_raises():
    sim = SimulatedResponse(p_up=0.4, nbar=2.0,
                            p_up_plus=0.4, nbar_plus=2.05,
                            p_up_minus=0.4, nbar_minus=1.95)
    with pytest.raises(SensitivityError):
        estimate_nbar(0.42, sim, EstimatorConfig())
    with pytest.raises(DomainError):
        EstimatorConfig(delta=0.0)


# ---------------------------------------------------------------------------
# Damped least squares
# ---------------------------------------------------------------------------


def test_lm_quadratic_exact():
    # residuals linear in theta: one Gauss-Newton step must land on (2, -3)
    def fn(theta):
        return np.array([theta[0] - 2.0, theta[1] + 3.0, 0.5 * (theta[0] - 2.0)])

    jac = lambda theta: np.array([[1.0, 0.0], [0.0, 1.0], [0.5, 0.0]])
    sol = damped_least_squares(fn, np.array([10.0, 10.0]), jac)
    np.testing.assert_allclose(sol.theta, [2.0, -3.0], atol=1e-10)
    assert sol.cost == pytest.approx(0.0, abs=1e-20)


def test_lm_cost_history_monotone_on_rosenbrock():
    def fn(theta):
        return np.array([10.0 * (theta[1] - theta[0] ** 2), 1.0 - theta[0]])

    def jac(theta):
        return np.array([[-20.0 * theta[0], 10.0], [-1.0, 0.0]])

    sol = damped_least_squares(fn, np.array([-1.2, 1.0]), jac)
    np.testing.assert_allclose(sol.theta, [1.0, 1.0], atol=1e-6)
    hist = np.array(sol.cost_history)
    assert np.all(np.diff(hist) < 0.0)
    assert sol.n_iter <= 500


def test_lm_zero_iterations_raises(monkeypatch):
    fn = lambda theta: np.array([theta[0] - 1.0])
    jac = lambda theta: np.array([[1.0]])
    monkeypatch.setattr(measurement, "_MAX_NFEV", 1)    # the start only
    with pytest.raises(FitConvergenceError, match="max_nfev = 1"):
        damped_least_squares(fn, np.array([5.0]), jac)


def test_lm_rank_deficient_jacobian_reports_rank():
    # second parameter never enters the residuals
    def fn(theta):
        return np.array([theta[0] - 2.0, 2.0 * (theta[0] - 2.0)])

    jac = lambda theta: np.array([[1.0, 0.0], [2.0, 0.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        sol = damped_least_squares(fn, np.array([7.0, 1.0]), jac)
    assert sol.theta[0] == pytest.approx(2.0, abs=1e-8)
    assert sol.rank == 1
    assert sol.cond > 1e12
    # the pseudo-inverse puts no variance on the null direction; the resolved
    # parameter keeps 1/|J|^2, the unresolved one reports an infinite error
    np.testing.assert_allclose(sol.cov, [[0.2, 0.0], [0.0, 0.0]], atol=1e-9)
    assert sol.errors[0] == pytest.approx(math.sqrt(0.2), rel=1e-6)
    assert sol.errors[1] == math.inf


def test_lm_infeasible_trial_points_are_rejected():
    # fn blows up past a limit; the fit must survive by shrinking its steps
    for start, limit in ((9.0, 10.0), (-3.0, 3.5)):
        infeasible = []

        def fn(theta):
            if theta[0] > limit:
                infeasible.append(theta[0])
                raise OverflowError("model exploded")
            return np.array([math.exp(theta[0]) - math.exp(3.0)])

        jac = lambda theta: np.array([[math.exp(theta[0])]])
        sol = damped_least_squares(fn, np.array([start]), jac)
        assert sol.theta[0] == pytest.approx(3.0, abs=1e-6)
    assert infeasible       # the start from below overshoots the limit


def test_lm_parameter_held_at_its_lower_bound():
    """The unbounded minimum (-1, 2) lies below theta[0]'s bound 0: the
    solution sits on the bound, reports an infinite error there and leaves
    that column out of the covariance, rank and condition number."""
    def fn(theta):
        return np.array([theta[0] + 1.0, theta[1] - 2.0, 0.5 * (theta[1] - 2.0)])

    jac = lambda theta: np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.5]])
    sol = damped_least_squares(fn, np.array([3.0, 0.0]), jac,
                               lower=np.array([0.0, -math.inf]))
    assert 0.0 <= sol.theta[0] <= 1e-10
    assert sol.theta[1] == pytest.approx(2.0, abs=1e-8)
    assert sol.errors[0] == math.inf
    assert sol.errors[1] == pytest.approx(math.sqrt(1.0 / 1.25), rel=1e-9)
    np.testing.assert_allclose(sol.cov, [[0.0, 0.0], [0.0, 0.8]], atol=1e-12)
    assert sol.rank == 1
    assert sol.cond == pytest.approx(1.0)
    # with every parameter held nothing is resolved
    sol = damped_least_squares(lambda theta: theta + 1.0, np.array([3.0]),
                               lambda theta: np.eye(1), lower=np.zeros(1))
    assert sol.errors[0] == math.inf and sol.rank == 0 and sol.cond == math.inf


# ---------------------------------------------------------------------------
# Distribution fits
# ---------------------------------------------------------------------------

_DESIGN = dict(contrast=0.95, background=0.02, sigma=0.02)
_SEED = {"omega01": OMEGA * 1.03, "gamma0": 500.0, "a": 0.9, "b": 0.03}


def _samples(model_p, rng):
    cfg = SidebandConfig(omega_rabi=OMEGA, gamma0=600.0)
    t_grid = np.linspace(0.5e-6, 150e-6, 300)
    return synthetic_brightness(model_p, cfg, t_grid, _DESIGN["contrast"],
                                _DESIGN["background"], _DESIGN["sigma"], rng)


def test_fit_thermal_round_trip():
    true_nbar = 1.82
    p = thermal_distribution(true_nbar, cutoff=150, tail_budget=1.0)
    samples = _samples(p, np.random.default_rng(42))
    res = fit_distribution(samples, "thermal", seed={**_SEED, "nbar": 1.5})
    assert res.params["nbar"] == pytest.approx(true_nbar, abs=0.1)
    assert res.errors["nbar"] < 0.1
    assert res.params["omega01"] == pytest.approx(OMEGA, rel=0.01)
    assert res.reduced_chi2 < 2.0
    assert np.all(np.diff(res.cost_history) < 0.0)
    assert res.populations.sum() == pytest.approx(1.0, rel=1e-9)


def _thermal_record(seed):
    """Seeded thermal flopping record drawn like the benchmark's."""
    rng = np.random.default_rng(seed)
    nbar, contrast, background, gamma0 = (
        rng.uniform(lo, hi) for lo, hi in ((1.5, 2.1), (0.92, 0.97), (0.01, 0.03),
                                           (500.0, 700.0)))
    return synthetic_brightness(thermal_distribution(nbar, 150, 1.0),
                                SidebandConfig(omega_rabi=OMEGA, gamma0=gamma0),
                                np.linspace(0.5e-6, 150e-6, 300), contrast,
                                background, 0.02, rng)


@pytest.mark.parametrize("model", list(FIT_MODELS))
def test_fit_jacobian_matches_central_differences(model):
    """The analytic Jacobian of every fit model against central differences
    of its residuals, at seeded internal parameters."""
    rng = np.random.default_rng(sorted(FIT_MODELS).index(model))
    samples = _thermal_record(7)
    ts, ys, sigmas = (np.array([getattr(s, f) for s in samples]) for f in ("t", "p_up", "sigma"))
    fit = _FloppingFit(model, ts, ys, sigmas)
    dist_seeds = FIT_MODELS[model][0]
    start = [v * rng.uniform(0.7, 1.3) if v else rng.normal(0.0, 1.0)
             for v in dist_seeds.values()]
    start += [rng.uniform(0.85, 1.0), rng.uniform(0.01, 0.04),
              OMEGA * rng.uniform(0.97, 1.03), rng.uniform(400.0, 800.0)]
    theta = np.array(start)
    jac = fit.jacobian(theta)
    h = 1e-6
    central = np.column_stack([(fit.residuals(theta + h * e) - fit.residuals(theta - h * e))
                               / (2.0 * h) for e in np.eye(theta.size)])
    np.testing.assert_allclose(jac, central, rtol=1e-6, atol=1e-6 * np.abs(central).max())
    # the residuals at theta, then the Jacobian at theta from the kept kernel
    fit.residuals(theta)
    np.testing.assert_array_equal(fit.jacobian(theta), jac)


@pytest.mark.parametrize("seed", [0, 1])
def test_fits_of_a_vacuum_record_leave_the_distribution_unresolved(seed):
    """A ground-state record carries no population information: the thermal,
    coherent and squeezed-vacuum fits report rank 4 of 5 and an infinite
    error on their distribution parameter."""
    samples = synthetic_brightness(np.array([1.0]), SidebandConfig(omega_rabi=OMEGA, gamma0=600.0),
                                   np.linspace(0.5e-6, 150e-6, 300), 0.95, 0.02, 0.02,
                                   np.random.default_rng(seed))
    for model, name in (("thermal", "nbar"), ("coherent", "mbar"), ("squeezed_vacuum", "r")):
        res = fit_distribution(samples, model)
        assert res.rank == 4
        assert res.errors[name] == math.inf
        assert all(math.isfinite(res.errors[k]) for k in ("a", "b", "omega01", "gamma0"))


@pytest.mark.parametrize("mbar", [1.5, 3.0])
def test_coherent_fit_above_mbar_one_finds_the_base_rate(mbar):
    """Above mbar ~ 1 the periodogram's strongest line is a sqrt(n+1) Omega
    line; the refit from omega_peak / sqrt(k) lands on the base rate.  Before,
    these fits settled at sqrt(2) or sqrt(3) Omega with reduced chi2 of 25-35."""
    samples = _samples(coherent_distribution(mbar, 150, 1.0), np.random.default_rng(3))
    res = fit_distribution(samples, "coherent")
    assert abs(res.params["mbar"] - mbar) <= 6.0 * res.errors["mbar"]
    assert res.reduced_chi2 <= 2.0
    assert res.params["omega01"] == pytest.approx(OMEGA, rel=0.01)


@pytest.mark.parametrize("model", ["free", "thermal"])
def test_fit_above_chi2_two_keeps_the_base_rate(model):
    """Only coherent fits are refitted from sub-harmonic omega01 seeds.  A free
    fit at Omega / sqrt(k) holds the base-rate populations on its levels
    k (n + 1) - 1, so on a cold thermal record with its sigma column halved
    (reduced chi2 ~ 4) the Omega / sqrt(3) rung fits the noise better; it
    was kept before, with omega01 = 0.577 Omega."""
    samples = [BrightnessSample(s.t, s.p_up, 0.5 * s.sigma) for s in
               _samples(thermal_distribution(0.2, 150, 1.0), np.random.default_rng(0))]
    res = fit_distribution(samples, model)
    assert res.reduced_chi2 > 2.0
    assert res.params["omega01"] == pytest.approx(OMEGA, rel=0.01)


def test_thermal_fit_of_an_undamped_record_holds_gamma0_at_zero():
    """A record without decoherence drives gamma0 onto its bound 0, where it
    is held: error inf, rank 4 of 5, the other parameters resolved."""
    samples = synthetic_brightness(thermal_distribution(1.8, 150, 1.0),
                                   SidebandConfig(omega_rabi=OMEGA, gamma0=0.0),
                                   np.linspace(0.5e-6, 150e-6, 300), 0.95, 0.02, 0.02,
                                   np.random.default_rng(0))
    res = fit_distribution(samples, "thermal")
    assert 0.0 <= res.params["gamma0"] <= 1e-12
    assert res.errors["gamma0"] == math.inf
    assert res.rank == 4
    assert all(math.isfinite(res.errors[k]) for k in ("nbar", "a", "b", "omega01"))


def test_omega_seed_is_the_direct_periodogram_peak():
    """The periodogram factored over the tableau peaks where the direct sum
    over samples does, on a uniform and on a shuffled non-uniform record."""
    uniform = _thermal_record(3)
    rng = np.random.default_rng(9)
    t = rng.uniform(0.5e-6, 150e-6, 120)
    p = thermal_distribution(1.2, cutoff=150, tail_budget=1.0)
    ragged = synthetic_brightness(p, SidebandConfig(omega_rabi=OMEGA, gamma0=600.0),
                                  t, 0.95, 0.02, 0.02, rng)
    for samples in (uniform, ragged):
        ts = np.array([s.t for s in samples])
        ys = np.array([s.p_up for s in samples])
        order = np.argsort(ts)
        ts, ys = ts[order], ys[order] - ys.mean()
        omegas = np.linspace(TWO_PI / (ts[-1] - ts[0]), math.pi / np.median(np.diff(ts)), 800)
        power = np.abs(np.exp(-1j * np.outer(omegas, ts)) @ ys)
        assert _default_omega_seed(samples) == omegas[np.argmax(power)]


def test_free_fit_reaches_a_true_minimum():
    """An independent least-squares run started from the returned point finds
    nothing lower.  On this record the free fit once stopped short, at reduced
    chi^2 1.1054 where 1.0751 is reachable."""
    samples = _thermal_record(18)
    res = fit_distribution(samples, "free")
    ts, ys = np.array([s.t for s in samples]), np.array([s.p_up for s in samples])

    # external parameters (logits, a, b, omega01 / OMEGA, gamma0 / 1e3)
    names = [f"logit{n}" for n in range(1, FREE_FIT_NMAX + 1)]
    names += ["a", "b", "omega01", "gamma0"]
    unit = np.array([1.0] * (FREE_FIT_NMAX + 2) + [OMEGA, 1e3])

    def residuals(x):
        v = x * unit
        logits = np.concatenate(([0.0], v[:FREE_FIT_NMAX]))
        weights = np.exp(logits - logits.max())
        cfg = SidebandConfig(omega_rabi=v[-2], gamma0=abs(v[-1]))
        curve = blue_sideband_flopping(weights / weights.sum(), cfg, ts,
                                       contrast=v[-4], background=v[-3])
        return (curve - ys) / 0.02

    x0 = np.array([res.params[name] for name in names]) / unit
    independent = least_squares(residuals, x0, method="lm", xtol=1e-14, ftol=1e-14,
                                gtol=1e-14)
    chi2 = 2.0 * independent.cost / (len(samples) - len(names))
    assert res.reduced_chi2 <= chi2 * (1.0 + 1e-9)
    assert res.reduced_chi2 < 1.08


def test_free_fit_reports_infinite_errors_along_dropped_directions():
    """Logits of populations the record cannot see sit on dropped singular
    directions; their errors are inf (before, ~1e-9 from the pseudo-inverse)."""
    res = fit_distribution(_thermal_record(16), "free")
    unresolved = [name for name, err in res.errors.items() if math.isinf(err)]
    assert len(unresolved) == len(res.errors) - res.rank > 0    # rank 14 of 17 here
    assert all(name.startswith("logit") for name in unresolved)
    assert all(0.0 < err < math.inf for name, err in res.errors.items()
               if name not in unresolved)
    # population errors keep the pseudo-inverse covariance
    assert np.all(np.isfinite(res.population_errors))


def test_fit_is_deterministic_for_fixed_data():
    p = thermal_distribution(0.9, cutoff=150, tail_budget=1.0)
    samples = _samples(p, np.random.default_rng(3))
    a = fit_distribution(samples, "thermal", seed={**_SEED, "nbar": 1.0})
    b = fit_distribution(samples, "thermal", seed={**_SEED, "nbar": 1.0})
    assert a.params == b.params


def test_fit_validation_errors():
    p = thermal_distribution(0.9, cutoff=150, tail_budget=1.0)
    samples = _samples(p, np.random.default_rng(5))
    with pytest.raises(ValidationError):
        fit_distribution(samples, "gaussian")
    with pytest.raises(ValidationError):
        fit_distribution(samples[:5], "thermal")  # < 3 x n_params


# ---------------------------------------------------------------------------
# Calibration curves
# ---------------------------------------------------------------------------


def test_fit_preparation_curves_exact_recovery():
    t = np.linspace(0.0, 400e-6, 9)
    beta, n0 = 3.0e6, 0.08
    steps = np.arange(0, 12, dtype=float)
    rho = 2.5e3
    fits = fit_preparation_curves(
        coherent_curve=(t, n0 + beta * t ** 2),
        steps_curve=(steps, 0.11 + 0.042 * steps),
        squeeze_curve=(t, rho * t),
    )
    assert fits.beta == pytest.approx(beta, rel=1e-9)
    assert fits.nbar0 == pytest.approx(n0, rel=1e-9)
    assert fits.mbar == pytest.approx(beta * (100e-6) ** 2, rel=1e-9)
    assert fits.step_slope == pytest.approx(0.042, rel=1e-9)
    assert fits.step_offset == pytest.approx(0.11, rel=1e-9)
    assert fits.rho_rate == pytest.approx(rho, rel=1e-9)
    # exact data: errors collapse to ~0
    assert fits.beta_err == pytest.approx(0.0, abs=1e-3)


def test_fit_preparation_curves_validation():
    with pytest.raises(ValidationError):
        fit_preparation_curves()
    with pytest.raises(ValidationError):
        fit_preparation_curves(coherent_curve=(np.array([0.0, 1e-4]),
                                               np.array([0.1, 0.2])))
    with pytest.raises(ValidationError):
        fit_preparation_curves(squeeze_curve=(np.array([0.0]), np.array([0.0])))
    # x and y of different lengths (before, numpy's LinAlgError)
    with pytest.raises(ValidationError, match="points"):
        fit_preparation_curves(steps_curve=(np.arange(5.0), np.arange(4.0)))
    # a non-finite point on any curve (before, it went into LAPACK, which
    # printed DLASCL errors)
    for curve in ("coherent_curve", "steps_curve", "squeeze_curve"):
        for axis, value in ((0, math.inf), (1, math.nan)):
            points = [np.linspace(1e-4, 4e-4, 5), np.linspace(0.1, 0.5, 5)]
            points[axis][2] = value
            with pytest.raises(ValidationError, match="finite"):
                fit_preparation_curves(**{curve: tuple(points)})


def test_fit_preparation_curve_errors_do_not_depend_on_the_units_of_x():
    """The rank cut sees unit-norm design columns: a 50 us coherent curve in
    seconds (t^2 ~ 1e-9) and in microseconds give the same errors, which
    match the textbook inverse of the normal matrix."""
    t = np.linspace(0.0, 50e-6, 9)
    y = 0.08 + 3e6 * t ** 2 + np.random.default_rng(1).normal(0.0, 0.01, 9)
    si = fit_preparation_curves(coherent_curve=(t, y))
    us = fit_preparation_curves(coherent_curve=(t * 1e6, y))
    design = np.column_stack([np.ones_like(t), t ** 2])
    resid = y - design @ [si.nbar0, si.beta]
    textbook = np.sqrt(np.diag(np.linalg.inv(design.T @ design)) * (resid @ resid) / 7)
    assert [si.nbar0_err, si.beta_err] == pytest.approx(textbook, rel=1e-9)
    assert us.beta_err * 1e12 == pytest.approx(si.beta_err, rel=1e-9)
    assert us.nbar0_err == pytest.approx(si.nbar0_err, rel=1e-9)


def test_fit_preparation_curves_degenerate_design_reports_infinite_errors():
    """All x equal leaves the design rank-deficient: every coefficient that
    loads on the dropped direction reports an infinite error.  Before, all
    three curves raised numpy's LinAlgError (singular matrix)."""
    x = np.full(5, 2e-4)
    y = np.array([0.10, 0.12, 0.11, 0.13, 0.09])
    fits = fit_preparation_curves(coherent_curve=(x, y), steps_curve=(x * 1e4, y),
                                  squeeze_curve=(np.zeros(5), y))
    for err in (fits.nbar0_err, fits.beta_err, fits.step_offset_err,
                fits.step_slope_err, fits.rho_rate_err):
        assert err == math.inf
    assert math.isfinite(fits.beta) and math.isfinite(fits.rho_rate)
    # a one-column design through the origin with equal nonzero x is resolved
    fits = fit_preparation_curves(squeeze_curve=(x, y))
    assert fits.rho_rate == pytest.approx(y.mean() / 2e-4, rel=1e-12)
    assert fits.rho_rate_err == pytest.approx(y.std(ddof=1) / (2e-4 * math.sqrt(5)),
                                              rel=1e-12)


# ---------------------------------------------------------------------------
# CSV I/O and synthetic data
# ---------------------------------------------------------------------------


def test_brightness_csv_round_trip(tmp_path):
    samples = [BrightnessSample(t=1.5e-6, p_up=0.25, sigma=0.02),
               BrightnessSample(t=42e-6, p_up=0.75, sigma=0.015)]
    path = tmp_path / "brightness.csv"
    save_brightness_csv(path, samples)
    back = load_brightness_csv(path)
    assert len(back) == 2
    for orig, rt in zip(samples, back):
        assert rt.t == pytest.approx(orig.t, rel=1e-12)
        assert rt.p_up == orig.p_up
        assert rt.sigma == orig.sigma


def test_brightness_csv_bad_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("time,up,err\n1,0.5,0.1\n")
    with pytest.raises(ValidationError):
        load_brightness_csv(path)
    (tmp_path / "empty.csv").write_text("")
    with pytest.raises(ValidationError):
        load_brightness_csv(tmp_path / "empty.csv")


def test_brightness_csv_negative_time_names_its_line(tmp_path):
    path = tmp_path / "negative.csv"
    path.write_text("t_us,p_up,sigma\n1.0,0.5,0.02\n-2.0,0.5,0.02\n")
    with pytest.raises(ValidationError, match="line 3"):
        load_brightness_csv(path)


def test_synthetic_brightness_is_seeded():
    p = thermal_distribution(0.7, cutoff=60)
    cfg = SidebandConfig(omega_rabi=OMEGA, gamma0=500.0)
    t = np.linspace(1e-6, 60e-6, 20)
    a = synthetic_brightness(p, cfg, t, 0.9, 0.03, 0.02, np.random.default_rng(11))
    b = synthetic_brightness(p, cfg, t, 0.9, 0.03, 0.02, np.random.default_rng(11))
    assert [s.p_up for s in a] == [s.p_up for s in b]
    assert all(0.0 <= s.p_up <= 1.0 for s in a)
