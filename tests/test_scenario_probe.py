"""Seeded probe over the scenario domain: every file the parser accepts runs
to the end of every study that reads it, or stops on a resource limit or on
a figure study's own requirement, and what it returns keeps the invariants
that hold for any input."""

import json
import math
from collections import Counter

import numpy as np
import pytest

from ionfridge.cli import main as cli_main
from ionfridge.errors import DomainError, ScenarioError, TruncationError
from ionfridge.experiments import (SCHEMA_VERSION, SteadyStateRule, build_ensemble,
                                   fig2_dataset, fig4_dataset, load_scenario,
                                   read_dataset_csv, run_scenario, steady_state)
from ionfridge.states import PREP_KINDS

N_DRAWS = 40
#: rounding allowed past a brightness bound; means are floored at 0 exactly
ROUNDING = 1e-12

#: the figure studies' own requirements on a scenario
_STUDY_ERRORS = ("fig2 needs both work_nbar and cold_nbar sweeps",
                 "fig4 needs a work_nbar sweep",
                 "single-shot search needs >= 3 grid points",
                 "single-shot grid must be <= 5 us spaced")


def _is_resource_limit(exc: Exception) -> bool:
    return (isinstance(exc, TruncationError)
            or isinstance(exc, DomainError) and "MAX_SECTOR_PAIRS" in str(exc))


def _draw_prep(rng, kind):
    """A preparation of ``kind``; one in four is at zero occupation."""
    zero = rng.random() < 0.25
    if kind == "thermal":
        return {"kind": kind, "nbar": 0.0 if zero else rng.uniform(0.05, 2.5)}
    if kind == "coherent":
        return {"kind": kind, "mbar": 0.0 if zero else rng.uniform(0.05, 2.0)}
    if kind == "squeezed_thermal":
        return {"kind": kind, "nbar": 0.0 if zero else rng.uniform(0.0, 1.0),
                "r": 0.0 if zero else rng.uniform(0.0, 0.8)}
    return {"kind": kind, "n": 0 if zero else int(rng.integers(1, 4))}


def _draw_sweep(rng):
    """One to three occupations, with 0.0 among them half the time."""
    values = [round(float(v), 3) for v in rng.uniform(0.05, 3.0, rng.integers(1, 4))]
    if rng.random() < 0.5:
        values[rng.integers(len(values))] = 0.0
    return values


def _draw_scenario(rng, index):
    kinds = list(PREP_KINDS)
    # the first draws cycle through the kinds on each mode, so every kind appears
    preps = {mode: _draw_prep(rng, kinds[(index + k) % len(kinds)] if index < len(kinds)
                              else kinds[rng.integers(len(kinds))])
             for k, mode in enumerate(("hot", "work", "cold"))}
    num = int(np.exp(rng.uniform(0.0, math.log(200.0))).round())
    spacing = rng.uniform(0.5, 8.0)
    start = 0.0 if rng.random() < 0.5 else rng.uniform(0.0, 20.0)
    if num == 1:
        start = max(start, 1.0)     # a one-point grid at t > 0, so a window has a point
    d = {
        "schema_version": SCHEMA_VERSION,
        "name": f"probe{index}",
        "coupling": {"xi_khz": rng.uniform(0.5, 3.0)},
        "preps": preps,
        "time_grid_us": {"start": start, "stop": start + spacing * (num - 1), "num": num},
        "truncation": {"epsilon": float(10.0 ** rng.uniform(-6.0, -2.0))},
    }
    for mode, prep in preps.items():
        if rng.random() < 0.3:
            d["truncation"][f"n_max_{mode[0]}"] = int(prep.get("n", 0) + rng.integers(0, 8))
    if rng.random() < 0.3:
        d["detuning_khz"] = rng.uniform(-5.0, 5.0)
    if rng.random() < 0.4:
        a_bg = rng.uniform(0.0, 0.1)
        d["sideband"] = {"omega_rabi_khz": rng.uniform(10.0, 100.0),
                         "t_rsb_us": rng.uniform(0.0, 20.0), "a_bg": a_bg,
                         "eta": rng.uniform(0.5, 1.0 - a_bg)}
    sweep = {key: _draw_sweep(rng) for key in ("work_nbar", "cold_nbar")
             if rng.random() < 0.6}
    if sweep:
        d["sweep"] = sweep
    return d


def _check_study(run, counts, name):
    """``run()``, or None where it stops on a resource limit or on the study's
    own requirement; any other error fails the probe."""
    try:
        return run()
    except Exception as exc:
        if _is_resource_limit(exc):
            counts["resource"] += 1
            return None
        if isinstance(exc, ScenarioError) and str(exc) in _STUDY_ERRORS:
            counts[f"{name}_declined"] += 1
            return None
        raise


def test_every_parsed_scenario_runs_to_the_end(tmp_path, capsys):
    """40 seeded draws over every preparation kind, zero occupations, caps,
    detuning, sideband sections, sweeps with 0.0, grids of 1 to 200 points
    and epsilon 1e-6 to 1e-2, each through run_scenario, both steady-state
    rules, fig2, fig4 and ``ionfridge simulate``.  Before, fig4 raised
    DomainError ("occupations must be finite and > 0") on a sweep with 0.0
    or a preparation at zero occupation."""
    rng = np.random.default_rng(20261020)
    counts = Counter()
    for index in range(N_DRAWS):
        d = _draw_scenario(rng, index)
        path = tmp_path / f"probe{index}.json"
        path.write_text(json.dumps(d))
        s = load_scenario(path)
        grid = s.time_grid

        result = _check_study(lambda: run_scenario(s), counts, "simulate")
        rc = cli_main(["simulate", str(path), "--out", str(tmp_path)])
        if result is None:
            assert rc in (2, 3), d
            continue
        assert rc == 0, d
        _, _, data = read_dataset_csv(tmp_path / f"probe{index}_trajectory.csv")
        assert data.shape[0] == grid.size
        nbar = result.nbar
        assert np.all(nbar >= 0.0), d
        for pair in (nbar[0] + nbar[1], nbar[0] + nbar[2]):
            assert np.abs(pair - pair[0]).max() <= 1e-9, d
        if s.sideband is not None:
            lo, hi = s.sideband.a_bg, s.sideband.a_bg + s.sideband.eta
            assert np.all((lo - ROUNDING <= result.p_up) & (result.p_up <= hi + ROUNDING)), d

        retained = result.metadata["retained_weight"]
        window = SteadyStateRule(method="window_average", window_start=0.5 * grid[-1])
        for rule in (SteadyStateRule(), window):
            occ = steady_state(s, rule)
            assert min(occ) >= 0.0, d
            assert occ.nbar_h + occ.nbar_w == pytest.approx(
                retained * (nbar[0, 0] + nbar[1, 0]), abs=1e-9)
            assert occ.nbar_h + occ.nbar_c == pytest.approx(
                retained * (nbar[0, 0] + nbar[2, 0]), abs=1e-9)

        sweep = _check_study(lambda: fig2_dataset(s), counts, "fig2")
        if sweep is not None:
            assert all(min(c.nbar_h_ss, c.nbar_c_ss) >= 0.0 for c in sweep.cells), d

        study = _check_study(lambda: fig4_dataset(s), counts, "fig4")
        if study is not None:
            means = build_ensemble(s).ladder_means     # the means the dynamics ran
            for point in study.points:
                assert point.delta_single_shot >= 0.0, d
                assert grid[0] <= point.tau_star <= grid[-1], d
                assert point.nbar_c_min >= 0.0, d
                zero = min(means[0], point.nbar_w, means[2]) == 0.0
                assert math.isnan(point.delta_classical) == zero, d
                counts["fig4_zero"] += zero
    capsys.readouterr()
    # the draws reach the zero-occupation rows and both kinds of declined study
    assert counts["fig4_zero"] >= 3 and counts["fig4_declined"] >= 3, counts
    assert counts["fig2_declined"] >= 3 and counts["resource"] <= N_DRAWS // 4, counts
