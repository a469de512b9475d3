"""The paper's studies as seeded sequences of ops.

Each workload builds its inputs from the seed through the public
``ionfridge`` API (scenario parsing with the trap-geometry coupling
included), runs them one op at a time, and checks every op's result with a
seed-independent criterion.  The seed only jitters input values within
fixed ranges, so the amount of work stays about the same from seed to seed.
Pass ``p`` draws from its own stream ``[seed, p]``: its inputs do not
depend on how many passes a run makes, and no two passes share inputs.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ionfridge.benchmarks import equilibrium_cold_occupation, extract_equilibrium_nc
from ionfridge.dynamics import EnsembleSpectrum, assemble_initial, dense_oracle_evolve
from ionfridge.experiments import (SQUEEZED_RELAXATION_ROWS, THERMAL_RELAXATION_ROWS,
                                   RelaxationStudy, RelaxationTrace, SteadyStateRule,
                                   run_scenario, scenario_from_dict, single_shot_point,
                                   steady_state, with_prep, with_thermal)
from ionfridge.fockspace import TruncationPolicy
from ionfridge.measurement import (FREE_FIT_NMAX, EstimatorConfig, SidebandConfig,
                                   SimulatedResponse, estimate_nbar, fit_distribution,
                                   red_sideband_brightness, synthetic_brightness)
from ionfridge.states import (ModePrep, coherent_distribution, prep_mean,
                              squeezed_thermal_distribution, squeezed_vacuum_distribution,
                              thermal_distribution)
from ionfridge.trap import REFERENCE_SETUPS

TWO_PI = 2.0 * math.pi
JITTER = 0.01                     # relative half-width of every seeded input
ORACLE_STREAM = 1_000_000         # rng stream of the oracle spot check

#: conserved sums and the dense oracle agree to solver precision (criteria 01, 03)
SOLVER_TOL = 1e-9
#: stationarity tolerance of the equilibrium triple (criterion 04)
EQUILIBRIUM_RTOL = 1e-2
#: incoherent-floor slack of criterion 06
FLOOR_SLACK = 1e-6
#: a fitted distribution parameter recovers its generating value within this
#: many reported errors
FIT_Z_MAX = 6.0
#: reduced chi^2 of an acceptable fit (300 points, sigma-weighted)
CHI2_MAX = 2.0
#: linearization error allowed to the single-point estimator (guess within 5 %)
ESTIMATOR_RTOL = 2e-2


@dataclass(frozen=True, eq=False)
class Op:
    op_id: int
    pass_id: int
    label: str
    args: tuple
    closes: bool = False          # last op of its row or pass


def pass_rng(seed: int, pass_id: int) -> np.random.Generator:
    return np.random.default_rng([seed, pass_id])


def _trap_json(setup: str) -> dict:
    trap = REFERENCE_SETUPS[setup].trap
    return {"omega_x_khz": trap.omega_x / (TWO_PI * 1e3),
            "omega_y_khz": trap.omega_y / (TWO_PI * 1e3),
            "omega_z_khz": trap.omega_z / (TWO_PI * 1e3)}


def _scenario(setup: str, grid_us, name: str, **extra):
    """Parse a scenario whose coupling comes from the trap-geometry formula."""
    return scenario_from_dict({
        "schema_version": 1, "name": name,
        "coupling": {"trap": _trap_json(setup)},
        "preps": {"hot": {"kind": "thermal", "nbar": 0.66},
                  "work": {"kind": "thermal", "nbar": 4.44},
                  "cold": {"kind": "thermal", "nbar": 2.63}},
        "time_grid_us": grid_us, "truncation": {"epsilon": 1e-4}, **extra})


def _thermal_triple(s, nh: float, nw: float, nc: float):
    return with_thermal(with_thermal(with_thermal(s, "hot", nh), "work", nw), "cold", nc)


def _sha256(paths) -> str:
    digest = hashlib.sha256()
    for path in paths:
        digest.update(Path(path).read_bytes())
    return digest.hexdigest()


class Workload:
    """Inputs for ``passes`` passes of one study, and how to run and check an op.

    ``run`` returns a summary dict (floats, arrays or strings) that must be
    identical between untraced and traced runs; its float entries for pass 0
    at the default seed are compared with the stored reference values.
    """

    name = ""
    #: typical time of one pass on a shared 2-vCPU x86-64 host (sizes a run to --seconds)
    nominal_pass_s = 1.0
    #: op of pass 0 run once during set-up (clamped to the pass length)
    warmup = 0

    def __init__(self, seed: int, passes: int, tiny: bool, out_dir: Path):
        self.seed, self.passes, self.tiny, self.out_dir = seed, passes, tiny, out_dir

    def jitter(self, rng: np.random.Generator, value: float) -> float:
        return value * float(rng.uniform(1.0 - JITTER, 1.0 + JITTER))

    def generate(self) -> list[Op]:
        ops: list[Op] = []
        for p in range(self.passes):
            rng = pass_rng(self.seed, p)
            for label, args, closes in self.pass_inputs(rng):
                ops.append(Op(len(ops), p, label, args, closes))
        return ops

    def pass_inputs(self, rng):                   # pragma: no cover - abstract
        raise NotImplementedError

    def run(self, op: Op, ctx: dict) -> dict:     # pragma: no cover - abstract
        raise NotImplementedError

    def check(self, op: Op, summary: dict) -> list[str]:   # pragma: no cover
        raise NotImplementedError


class Relaxation(Workload):
    """Fig3: 6 thermal rows at z570 and 4 squeezed-work rows at z425.

    An op is one scenario trace on a dense grid (all three modes); the last
    op of a pass writes the fig3 CSVs.  The steady state is the windowed
    average of the measurement procedure, so the time-grid kernel does
    nearly all the work.
    """

    name = "relaxation"
    nominal_pass_s = 7.5
    warmup = 5                    # thermal row nw = 0.19, the cheapest

    def pass_inputs(self, rng):
        grid = {"start": 0.0, "stop": 700.0, "num": 29 if self.tiny else 281}
        bases = {setup: _scenario(setup, grid, f"relaxation_{setup}")
                 for setup in ("z570", "z425")}
        thermal = THERMAL_RELAXATION_ROWS[-2:] if self.tiny else THERMAL_RELAXATION_ROWS
        squeezed = SQUEEZED_RELAXATION_ROWS[-2:] if self.tiny else SQUEEZED_RELAXATION_ROWS
        rows = []
        for nh, nw, nc, measured in thermal:
            s = _thermal_triple(bases["z570"], *(self.jitter(rng, v) for v in (nh, nw, nc)))
            rows.append((dataclasses.replace(s, name=f"thermal_nw{nw:g}"), measured))
        for nh, nw, r, nc, measured in squeezed:
            s = with_thermal(with_thermal(bases["z425"], "hot", self.jitter(rng, nh)),
                             "cold", self.jitter(rng, nc))
            work = ModePrep.squeezed_thermal_state(self.jitter(rng, nw), self.jitter(rng, r))
            rows.append((dataclasses.replace(with_prep(s, "work", work),
                                             name=f"squeezed_r{r:g}"), measured))
        for i, (s, measured) in enumerate(rows):
            yield s.name, (s, measured), i == len(rows) - 1

    def run(self, op, ctx):
        s, measured = op.args
        traj = run_scenario(s)
        window = traj.tau > SteadyStateRule(method="window_average").start_for(s)
        trace = RelaxationTrace(
            label=s.name, nbar_w_eff=prep_mean(s.preps[1]), nbar_c_in=prep_mean(s.preps[2]),
            nbar_c_ss=float(traj.nbar[2, window].mean()), tau=traj.tau,
            nbar_c=traj.nbar[2], measured_ss=measured)
        traces = ctx.setdefault("traces", [])
        traces.append(trace)
        out = {"nbar": traj.nbar, "nbar_c_ss": trace.nbar_c_ss,
               "nbar_c_min": float(traj.nbar[2].min()), "nbar_c_end": float(traj.nbar[2, -1]),
               "retained_weight": traj.metadata["retained_weight"],
               "epsilon": s.truncation.epsilon}
        if op.closes:
            study = RelaxationStudy(traces=traces, metadata=dict(traj.metadata, dataset="fig3"))
            paths = study.write(self.out_dir / f"pass{op.pass_id}")
            out["csv_sha256"] = _sha256(paths)
            out["csv_rows"] = len(Path(paths[0]).read_text().splitlines()) - 2
            out["csv_rows_expected"] = sum(t.tau.size for t in traces)
        return out

    def check(self, op, out):
        problems = []
        nbar = out["nbar"]
        drift = max(float(np.ptp(nbar[0] + nbar[1])), float(np.ptp(nbar[0] + nbar[2])))
        if not drift < SOLVER_TOL:
            problems.append(f"conserved-sum drift {drift:.3e} >= {SOLVER_TOL:g}")
        if not out["retained_weight"] >= 1.0 - out["epsilon"]:
            problems.append(f"retained weight {out['retained_weight']:.12f} < 1 - epsilon")
        if "csv_rows" in out and out["csv_rows"] != out["csv_rows_expected"]:
            problems.append(f"fig3 traces CSV has {out['csv_rows']} rows, "
                            f"expected {out['csv_rows_expected']}")
        return problems


class Equilibrium(Workload):
    """Fig2: a grid of thermal (work, cold) cells, dephased steady state only.

    Each work row scans the cold input around its balance value, so the
    zero crossing of eps_h = nbar_h_in - nbar_h_ss lies inside the row.
    An op is one cell; the last cell of a row also extracts the crossing.
    Not listed in BENCHMARK.json (run budget); runs by name and in --smoke.
    """

    name = "equilibrium"
    nominal_pass_s = 2.2
    WORK = (1.7, 2.2, 2.9, 3.7, 4.5)
    COLD_FACTORS = (0.7, 0.85, 0.97, 1.06, 1.15, 1.3)

    def pass_inputs(self, rng):
        base = _scenario("z570", [0.0], "equilibrium_z570")
        work = self.WORK[:2] if self.tiny else self.WORK
        factors = self.COLD_FACTORS[1:5] if self.tiny else self.COLD_FACTORS
        nh = self.jitter(rng, 0.66)
        for nw in (self.jitter(rng, v) for v in work):
            nc_eq = equilibrium_cold_occupation(nh, nw)
            for j, factor in enumerate(factors):
                nc = nc_eq * factor
                yield (f"w{nw:.3f}_c{nc:.3f}", (_thermal_triple(base, nh, nw, nc), nh, nw, nc),
                       j == len(factors) - 1)

    def run(self, op, ctx):
        s, nh, nw, nc = op.args
        ss = steady_state(s)
        row = ctx.setdefault(nw, [])
        out = {"nbar_h_ss": ss.nbar_h, "nbar_c_ss": ss.nbar_c, "eps_h": nh - ss.nbar_h}
        if row:
            out["eps_h_prev"] = row[-1][1]
        row.append((nc, out["eps_h"]))
        if op.closes:
            out["nc_eq_sim"] = extract_equilibrium_nc(row)
            out["nc_eq_formula"] = equilibrium_cold_occupation(nh, nw)
        return out

    def check(self, op, out):
        problems = []
        if "eps_h_prev" in out and not out["eps_h"] < out["eps_h_prev"]:
            problems.append("eps_h does not fall as the cold input rises")
        if "nc_eq_sim" in out:
            rel = abs(out["nc_eq_sim"] - out["nc_eq_formula"]) / out["nc_eq_formula"]
            if not rel < EQUILIBRIUM_RTOL:
                problems.append(f"crossing {out['nc_eq_sim']:.5f} vs balance "
                                f"{out['nc_eq_formula']:.5f} (rel {rel:.2e})")
        return problems


class SingleShot(Workload):
    """Fig4: work-occupation sweep with the incoherent twin, cooling regime.

    Every point lies above the cooling threshold (about 1.2 here); below it
    the cold mode heats, the minimum sits at t = 0 and the criterion-06
    relations do not apply.  An op is one sweep point: one grid call, a
    golden-section search of one-point calls, and the incoherent grid.
    """

    name = "single_shot"
    nominal_pass_s = 6.5
    WORK = (1.6, 2.0, 2.5, 3.1, 3.8, 4.44)

    def pass_inputs(self, rng):
        grid = {"start": 0.0, "stop": 400.0, "num": 81 if self.tiny else 161}
        base = _scenario("z570", grid, "single_shot_z570")
        nh, nc = self.jitter(rng, 0.66), self.jitter(rng, 2.63)
        for nw in (self.jitter(rng, v) for v in (self.WORK[:2] if self.tiny else self.WORK)):
            yield f"nw{nw:.3f}", (_thermal_triple(base, nh, nw, nc),), False

    def run(self, op, ctx):
        (s,) = op.args
        pt = single_shot_point(s, include_incoherent=True)
        return {"tau_star": pt.tau_star, "nbar_c_min": pt.nbar_c_min,
                "nbar_c_ss": prep_mean(s.preps[2]) - pt.delta_dephased,
                "nbar_c_min_incoherent": pt.nbar_c_min_incoherent,
                "delta_classical": pt.delta_classical}

    def check(self, op, out):
        problems = []
        if not out["nbar_c_min"] < out["nbar_c_ss"]:
            problems.append("transient minimum not below the dephased steady state")
        if not out["nbar_c_min_incoherent"] >= out["nbar_c_ss"] - FLOOR_SLACK:
            problems.append("incoherent floor below the dephased steady state")
        return problems


class Thermometry(Workload):
    """Sideband thermometry: every fit model plus the linearized estimator.

    Blue-sideband records are synthesized at set-up with seeded noise; each
    model is fitted to a record of its own kind and the free fit to a thermal
    record (which makes the fitter warn about a rank-deficient Jacobian).
    Occupations stay in the low-occupation regime where the periodogram
    seed of the flopping rate is documented to land in the right basin.
    Checked are the fit quality and the distribution parameters, the
    quantities thermometry reports; contrast, background and decoherence
    are nuisance parameters that a squeezed-thermal fit can trade against
    each other.
    """

    name = "thermometry"
    nominal_pass_s = 0.8
    OMEGA = TWO_PI * 50e3
    GRID = np.linspace(0.5e-6, 150e-6, 300)
    NOISE = 0.02
    ESTIMATOR_DELTA = 0.05

    def pass_inputs(self, rng):
        readout = scenario_from_dict({
            "schema_version": 1, "name": "sideband_readout",
            "coupling": {"trap": _trap_json("z570")},
            "preps": {mode: {"kind": "thermal", "nbar": nbar}
                      for mode, nbar in (("hot", 0.66), ("work", 4.44), ("cold", 2.63))},
            "time_grid_us": [0.0],
            "sideband": {"omega_rabi_khz": 20.0, "t_rsb_us": 10.0, "a_bg": 0.02, "eta": 0.98}})
        u = lambda lo, hi: float(rng.uniform(lo, hi))
        nbar, mbar, r_sv = u(1.5, 2.1), u(0.4, 0.9), u(0.9, 1.2)
        st_nbar, st_r = u(0.6, 0.9), u(1.0, 1.3)
        dists = {
            "thermal": (thermal_distribution(nbar, 150, 1.0), {"nbar": nbar}),
            "coherent": (coherent_distribution(mbar, 150, 1.0), {"mbar": mbar}),
            "squeezed_vacuum": (squeezed_vacuum_distribution(r_sv, 150, 1.0), {"r": r_sv}),
            "squeezed_thermal": (squeezed_thermal_distribution(st_nbar, st_r, 150, 1.0),
                                 {"nbar": st_nbar, "r": st_r}),
            "free": (thermal_distribution(nbar, 150, 1.0), {}),
        }
        for model, (dist, truth) in dists.items():
            contrast, background, gamma0 = u(0.92, 0.97), u(0.01, 0.03), u(500.0, 700.0)
            cfg = SidebandConfig(omega_rabi=self.OMEGA, gamma0=gamma0)
            samples = synthetic_brightness(dist, cfg, self.GRID, contrast, background,
                                           self.NOISE, rng)
            if model == "free":
                head = dist.p[:FREE_FIT_NMAX + 1]
                truth = {"populations": head / head.sum()}
            yield f"fit_{model}", ("fit", model, samples, truth), False
        modes = []
        for true in (self.jitter(rng, v) for v in (p.nbar for p in readout.preps)):
            p_up = red_sideband_brightness(thermal_distribution(true), readout.sideband)
            modes.append((true, true * u(0.95, 1.05), p_up))
        yield "estimate", ("estimate", readout.sideband, modes), True

    def run(self, op, ctx):
        if op.args[0] == "estimate":
            return self._estimate(*op.args[1:])
        _, model, samples, truth = op.args
        res = fit_distribution(samples, model)
        out = {"chi2": res.reduced_chi2}
        if model == "free":
            out["populations"] = res.populations
            out["population_errors"] = res.population_errors
            out["truth"] = truth["populations"]
            return out
        for name in truth:
            out[name] = res.params[name]
            out[f"{name}.err"] = res.errors[name]
            out[f"{name}.truth"] = truth[name]
        return out

    def _estimate(self, sideband, modes):
        cfg, delta = EstimatorConfig(delta=self.ESTIMATOR_DELTA), self.ESTIMATOR_DELTA
        out = {}
        for i, (true, guess, p_up_exp) in enumerate(modes):
            brightness = [red_sideband_brightness(thermal_distribution(n), sideband)
                          for n in (guess, guess + delta, guess - delta)]
            sim = SimulatedResponse(brightness[0], guess, brightness[1], guess + delta,
                                    brightness[2], guess - delta)
            out[f"nbar{i}"] = estimate_nbar(p_up_exp, sim, cfg)
            out[f"nbar{i}.truth"] = true
        return out

    def check(self, op, out):
        problems = []
        if "chi2" in out and not out["chi2"] <= CHI2_MAX:
            problems.append(f"reduced chi2 {out['chi2']:.3f} > {CHI2_MAX:g}")
        if "populations" in out:
            # softmax populations n = 0..6 against the truncated generating ones
            miss = np.abs(out["populations"] - out["truth"])[:7]
            if not np.all(miss <= FIT_Z_MAX * out["population_errors"][:7]):
                problems.append("free-fit populations n <= 6 miss the generating ones")
            return problems
        for key in [k for k in out if k.endswith(".truth")]:
            name = key[:-len(".truth")]
            miss = abs(out[name] - out[key])
            if f"{name}.err" in out:
                if not miss <= FIT_Z_MAX * out[f"{name}.err"]:
                    problems.append(f"{name} = {out[name]:.5g} misses {out[key]:.5g} "
                                    f"(error {out[f'{name}.err']:.2g})")
            elif not miss <= ESTIMATOR_RTOL * out[key]:
                problems.append(f"estimate {out[name]:.5g} misses {out[key]:.5g}")
        return problems


WORKLOADS = {cls.name: cls for cls in (Relaxation, Equilibrium, SingleShot, Thermometry)}


def oracle_deviation(seed: int) -> float:
    """Capped sector evolution vs the dense full-space oracle (criterion 01)."""
    rng = np.random.default_rng([seed, ORACLE_STREAM])
    preps = tuple(ModePrep.thermal_state(v * rng.uniform(0.9, 1.1)) for v in (0.3, 0.5, 0.4))
    cap, xi = 6, REFERENCE_SETUPS["z570"].xi_hamiltonian
    grid = np.linspace(0.0, 400e-6, 10)
    policy = TruncationPolicy(epsilon=1e-12, n_max_h=cap, n_max_w=cap, n_max_c=cap)
    sector = EnsembleSpectrum(assemble_initial(preps, policy, xi)).means_at(grid)
    dense = dense_oracle_evolve(preps, xi, grid, (cap, cap, cap))
    return float(np.abs(sector - dense).max())
