"""Scenario schema, dataset builders, CSV format, and the CLI."""

import copy
import json
import math
import subprocess
import sys

import numpy as np
import pytest

from ionfridge.cli import main as cli_main
from ionfridge.errors import ScenarioError, ValidationError
from ionfridge.experiments import (SCHEMA_VERSION, WINDOW_DEFAULT,
                                   WINDOW_SQUEEZED, RelaxationStudy,
                                   RelaxationTrace, Scenario, SteadyStateRule,
                                   fig2_dataset, fig3_dataset, fig4_dataset,
                                   load_scenario, read_dataset_csv,
                                   reference_scenario, relaxation_scenarios,
                                   run_scenario, scenario_from_dict,
                                   single_shot_point, steady_state,
                                   with_thermal, write_dataset_csv)
from ionfridge.measurement import SidebandConfig, save_brightness_csv, synthetic_brightness
from ionfridge.states import ModePrep, prep_mean, thermal_distribution
from ionfridge.trap import REFERENCE_SETUPS

TWO_PI = 2.0 * math.pi


def _base_dict():
    return {
        "schema_version": SCHEMA_VERSION,
        "name": "unit",
        "coupling": {"xi_khz": 1.32},
        "preps": {
            "hot": {"kind": "thermal", "nbar": 0.66},
            "work": {"kind": "thermal", "nbar": 4.44},
            "cold": {"kind": "thermal", "nbar": 2.63},
        },
        "time_grid_us": {"start": 0.0, "stop": 400.0, "num": 81},
        "truncation": {"epsilon": 1e-4},
    }


# ---------------------------------------------------------------------------
# Schema
# ---------------------------------------------------------------------------


def test_scenario_from_dict_minimal():
    s = scenario_from_dict(_base_dict())
    assert s.name == "unit"
    assert s.xi == pytest.approx(TWO_PI * 1.32e3)
    assert s.detuning == 0.0
    assert s.time_grid[0] == 0.0
    assert s.time_grid[-1] == pytest.approx(400e-6)
    assert s.time_grid.size == 81
    assert s.preps[1].nbar == 4.44
    assert s.truncation.epsilon == 1e-4
    assert s.sideband is None
    assert s.outputs == ("trajectory",)


def test_scenario_from_dict_full_sections():
    d = _base_dict()
    d["preps"]["work"] = {"kind": "squeezed_thermal", "nbar": 0.5, "r": 1.34}
    d["sideband"] = {"omega_rabi_khz": 20.0, "t_rsb_us": 10.0, "a_bg": 0.02, "eta": 0.98}
    d["sweep"] = {"work_nbar": [4.44, 2.16], "cold_nbar": [0.5, 1.5, 2.5]}
    d["outputs"] = ["trajectory", "fig3"]
    d["seed"] = 7
    d["detuning_khz"] = -40.0
    s = scenario_from_dict(d)
    assert s.preps[1].kind == "squeezed_thermal" and s.preps[1].r == 1.34
    assert s.sideband.omega_rabi == pytest.approx(TWO_PI * 20e3)
    assert s.sideband.t_rsb == pytest.approx(10e-6)
    assert s.sweep.work_nbar == (4.44, 2.16)
    assert s.seed == 7
    assert s.detuning == pytest.approx(-TWO_PI * 40e3)


def _mutate(path, value):
    """Return a base dict with the nested ``path`` set to ``value``."""
    d = copy.deepcopy(_base_dict())
    node = d
    for key in path[:-1]:
        node = node[key]
    if value is _DELETE:
        del node[path[-1]]
    else:
        node[path[-1]] = value
    return d


_DELETE = object()

_BAD_SCENARIOS = [
    ("unknown_top_key", _mutate(("comment",), "hi")),
    ("wrong_version", _mutate(("schema_version",), 99)),
    ("missing_version", _mutate(("schema_version",), _DELETE)),
    ("coupling_empty", _mutate(("coupling",), {})),
    ("coupling_both", _mutate(("coupling",), {"xi_khz": 1.0, "trap": {
        "omega_x_khz": 1025.1, "omega_y_khz": 937.7, "omega_z_khz": 570.0}})),
    ("coupling_unknown_key", _mutate(("coupling",), {"xi_khz": 1.0, "units": "kHz"})),
    ("bad_prep_kind", _mutate(("preps", "hot"), {"kind": "displaced", "nbar": 1.0})),
    ("prep_unknown_key", _mutate(("preps", "hot"), {"kind": "thermal", "nbar": 1.0, "r": 0.5})),
    ("prep_missing_param", _mutate(("preps", "cold"), {"kind": "thermal"})),
    ("prep_negative", _mutate(("preps", "cold"), {"kind": "thermal", "nbar": -1.0})),
    ("missing_preps_mode", _mutate(("preps", "work"), _DELETE)),
    ("grid_empty_list", _mutate(("time_grid_us",), [])),
    ("grid_zero_points", _mutate(("time_grid_us",), {"start": 0.0, "stop": 1.0, "num": 0})),
    ("grid_unknown_key", _mutate(("time_grid_us",), {"start": 0.0, "stop": 1.0, "n": 5})),
    ("grid_decreasing", _mutate(("time_grid_us",), [0.0, 10.0, 5.0])),
    ("grid_negative", _mutate(("time_grid_us",), [-5.0, 0.0, 5.0])),
    ("truncation_unknown_key", _mutate(("truncation",), {"eps": 1e-4})),
    ("truncation_bad_epsilon", _mutate(("truncation",), {"epsilon": 2.0})),
    ("sideband_unknown_key", _mutate(("sideband",), {"omega_rabi_khz": 20.0,
                                                     "t_rsb_us": 1.0, "gamma": 0.1})),
    ("sideband_missing_rabi", _mutate(("sideband",), {"t_rsb_us": 1.0})),
    ("sweep_unknown_key", _mutate(("sweep",), {"hot_nbar": [1.0]})),
    ("unknown_output", _mutate(("outputs",), ["trajectory", "fig9"])),
    ("zero_coupling", _mutate(("coupling",), {"xi_khz": 0.0})),
    ("nan_coupling", _mutate(("coupling",), {"xi_khz": math.nan})),
    ("inf_coupling", _mutate(("coupling",), {"xi_khz": math.inf})),
    ("nan_detuning", _mutate(("detuning_khz",), math.nan)),
    ("inf_detuning", _mutate(("detuning_khz",), -math.inf)),
    ("grid_infinite", _mutate(("time_grid_us",), [0.0, 5.0, math.inf])),
    ("grid_nan_stop", _mutate(("time_grid_us",), {"start": 0.0, "stop": math.nan,
                                                  "num": 5})),
    ("prep_nan", _mutate(("preps", "hot"), {"kind": "thermal", "nbar": math.nan})),
    ("prep_inf_mbar", _mutate(("preps", "work"), {"kind": "coherent", "mbar": math.inf})),
    ("prep_nan_r", _mutate(("preps", "work"), {"kind": "squeezed_thermal", "nbar": 0.5,
                                               "r": math.nan})),
]


@pytest.mark.parametrize("label,data", _BAD_SCENARIOS, ids=[b[0] for b in _BAD_SCENARIOS])
def test_scenario_schema_rejections(label, data):
    with pytest.raises(ScenarioError):
        scenario_from_dict(data)


def test_scenario_error_is_validation_error():
    assert issubclass(ScenarioError, ValidationError)


def test_load_scenario_bad_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(ScenarioError):
        load_scenario(path)


def test_shipped_scenarios_parse():
    import pathlib
    root = pathlib.Path(__file__).resolve().parents[1] / "scenarios"
    files = sorted(root.glob("*.json"))
    assert len(files) >= 5
    for f in files:
        s = load_scenario(f)
        assert s.name == f.stem


# ---------------------------------------------------------------------------
# Steady-state rules
# ---------------------------------------------------------------------------


def test_steady_state_rule_parse():
    assert SteadyStateRule.parse("dephasing").method == "dephasing"
    bare = SteadyStateRule.parse("window")
    assert bare.method == "window_average" and bare.window_start is None
    timed = SteadyStateRule.parse("window:350")
    assert timed.window_start == pytest.approx(350e-6)
    for bad in ("window:", "window:abc", "average", ""):
        with pytest.raises(ValidationError):
            SteadyStateRule.parse(bad)
    with pytest.raises(ValidationError):
        SteadyStateRule(method="midpoint")


def test_steady_state_rule_presets():
    thermal = scenario_from_dict(_base_dict())
    d = _base_dict()
    d["preps"]["work"] = {"kind": "squeezed_thermal", "nbar": 0.5, "r": 1.34}
    squeezed = scenario_from_dict(d)
    rule = SteadyStateRule(method="window_average")
    assert rule.start_for(thermal) == WINDOW_DEFAULT
    assert rule.start_for(squeezed) == WINDOW_SQUEEZED
    explicit = SteadyStateRule(method="window_average", window_start=100e-6)
    assert explicit.start_for(squeezed) == 100e-6
    np.testing.assert_array_equal(rule.window_mask(thermal),
                                  thermal.time_grid > WINDOW_DEFAULT)
    late = SteadyStateRule(method="window_average", window_start=500e-6)
    with pytest.raises(ValidationError, match="after window_start = 500 us"):
        late.window_mask(thermal)


def test_window_average_matches_dephasing():
    """The measurement-style window agrees with the exact infinite-time
    average once the grid extends well past the relaxation scale."""
    s = reference_scenario("z570", t_stop=1e-3, num=201)
    exact = steady_state(s, SteadyStateRule())
    windowed = steady_state(s, SteadyStateRule(method="window_average"))
    for a, b in zip(exact.as_tuple(), windowed.as_tuple()):
        assert b == pytest.approx(a, rel=0.02)


def test_window_average_needs_grid_points():
    s = reference_scenario("z570", t_stop=100e-6, num=11)  # all before 240 us
    with pytest.raises(ValidationError):
        steady_state(s, SteadyStateRule(method="window_average"))


# ---------------------------------------------------------------------------
# Trajectories
# ---------------------------------------------------------------------------


def test_single_point_grid_echoes_initial_means():
    d = _base_dict()
    d["time_grid_us"] = [0.0]
    d["truncation"] = {"epsilon": 1e-6}
    s = scenario_from_dict(d)
    res = run_scenario(s)
    for i, prep in enumerate(s.preps):
        assert res.nbar[i, 0] == pytest.approx(prep_mean(prep), rel=1e-3)


def test_trajectory_columns_and_sideband():
    d = _base_dict()
    d["time_grid_us"] = {"start": 0.0, "stop": 100.0, "num": 5}
    s = scenario_from_dict(d)
    res = run_scenario(s)
    assert res.columns == ["tau_us", "nbar_h", "nbar_w", "nbar_c"]
    assert res.rows().shape == (5, 4)
    assert res.metadata["dataset"] == "trajectory"
    assert 0.99 < res.metadata["retained_weight"] <= 1.0

    d["sideband"] = {"omega_rabi_khz": 20.0, "t_rsb_us": 10.0, "a_bg": 0.02, "eta": 0.98}
    res = run_scenario(scenario_from_dict(d))
    assert res.columns[-3:] == ["p_up_h", "p_up_w", "p_up_c"]
    assert np.all(res.p_up >= 0.0) and np.all(res.p_up <= 1.0)
    # hotter marginals flop brighter
    assert res.p_up[1, 0] > res.p_up[0, 0]


def test_reference_scenario_presets():
    s = reference_scenario("z570")
    assert s.name == "reference_z570"
    assert s.xi == pytest.approx(REFERENCE_SETUPS["z570"].xi_hamiltonian)
    assert s.trap is REFERENCE_SETUPS["z570"].trap
    assert s.time_grid.size == 161
    assert [p.nbar for p in s.preps] == [0.66, 4.44, 2.63]
    with pytest.raises(KeyError):
        reference_scenario("z999")


# ---------------------------------------------------------------------------
# Dataset builders
# ---------------------------------------------------------------------------


def test_fig2_single_cell_has_no_crossing():
    s = reference_scenario("z570", num=2)
    sweep = fig2_dataset(s, nbar_c_values=[2.63], nbar_w_values=[4.44])
    assert len(sweep.cells) == 1
    row = sweep.rows[0]
    assert not row.crossing
    assert math.isnan(row.nc_eq_sim)
    assert row.nc_eq_formula == pytest.approx(0.949841269841, abs=1e-9)


def test_fig2_requires_sweeps():
    s = reference_scenario("z570", num=2)
    with pytest.raises(ScenarioError):
        fig2_dataset(s)


def test_fig3_preset_labels_and_coupling():
    base = reference_scenario("z570", num=3)
    pairs = relaxation_scenarios(base)
    assert len(pairs) == 10
    labels = [s.name for s, _ in pairs]
    assert labels[0] == "thermal_nw4.44"
    assert labels[5] == "thermal_nw0.19"
    assert labels[6] == "squeezed_r1.34"
    assert labels[9] == "squeezed_r0"
    for s, _ in pairs[:6]:
        assert s.xi == base.xi
    for s, _ in pairs[6:]:
        assert s.xi == pytest.approx(REFERENCE_SETUPS["z425"].xi_hamiltonian)
    # squeezed rows keep their own hot/cold occupations
    assert pairs[6][0].preps[0].nbar == 0.47
    assert pairs[6][0].preps[1].r == 1.34


def test_fig3_dataset_subset():
    base = reference_scenario("z570", t_stop=400e-6, num=41)
    pairs = relaxation_scenarios(base)[:2]
    study = fig3_dataset(base, scenarios=pairs)
    assert [tr.label for tr in study.traces] == ["thermal_nw4.44", "thermal_nw2.16"]
    tr = study.traces[0]
    assert tr.nbar_c.size == 41
    assert tr.nbar_c_in == pytest.approx(2.63)
    assert tr.measured_ss == pytest.approx(2.11)
    # cooling row: steady state below the input occupation
    assert tr.nbar_c_ss < tr.nbar_c_in
    # an empty averaging window is an error, named by its start in us
    late = SteadyStateRule(method="window_average", window_start=500e-6)
    with pytest.raises(ValidationError, match="after window_start = 500 us"):
        fig3_dataset(base, scenarios=pairs[:1], rule=late)


def test_single_shot_grid_validation():
    s = reference_scenario("z570", t_stop=10e-6, num=2)
    with pytest.raises(ScenarioError):
        single_shot_point(s)
    coarse = reference_scenario("z570", t_stop=400e-6, num=11)  # 40 us spacing
    with pytest.raises(ScenarioError):
        single_shot_point(coarse)


def test_single_shot_point_cooling_row():
    s = reference_scenario("z570", t_stop=200e-6, num=81)
    pt = single_shot_point(s)
    assert 0.0 < pt.tau_star < 200e-6
    assert pt.nbar_c_min < 2.63
    assert pt.delta_single_shot == pytest.approx(2.63 - pt.nbar_c_min, rel=1e-9)
    assert pt.delta_single_shot > pt.delta_dephased > 0.0
    assert pt.delta_classical > 0.0
    assert math.isnan(pt.nbar_c_min_incoherent)


def test_fig4_dataset_uses_sweep(tmp_path):
    s = reference_scenario("z570", t_stop=150e-6, num=61)
    study = fig4_dataset(s, nbar_w_values=[4.44, 2.16])
    assert [p.nbar_w for p in study.points] == [4.44, 2.16]
    # stronger work drive cools deeper
    assert study.points[0].delta_single_shot > study.points[1].delta_single_shot
    (path,) = study.write(tmp_path)
    meta, cols, data = read_dataset_csv(path)
    assert cols[0] == "nbar_w_in"
    assert data.shape == (2, 7)
    with pytest.raises(ScenarioError):
        fig4_dataset(s)  # no sweep on the reference scenario


# ---------------------------------------------------------------------------
# Dataset CSV format
# ---------------------------------------------------------------------------


def test_dataset_csv_round_trip(tmp_path):
    path = tmp_path / "data.csv"
    rows = [[1.0, 2.5e-7], [3.0, 4.123456789012e3]]
    write_dataset_csv(path, ["a", "b"], rows, {"k": 1, "scenario": {"x": 2.5}})
    meta, cols, data = read_dataset_csv(path)
    assert meta == {"k": 1, "scenario": {"x": 2.5}}
    assert cols == ["a", "b"]
    np.testing.assert_allclose(data, rows, rtol=1e-11)
    text = path.read_text()
    assert text.startswith("# {")
    assert "\r" not in text


def test_fig3_csv_row_text_is_pinned(tmp_path):
    """Labels pass through as text; every number is written with %.12g."""
    trace = RelaxationTrace(label="thermal_nw4.44", nbar_w_eff=4.44, nbar_c_in=2.63,
                            nbar_c_ss=2.1, tau=np.array([0.0, 2.5e-6]),
                            nbar_c=np.array([2.63, 2.6012345678901234]))
    traces_path, summary_path = RelaxationStudy([trace], {"k": 1}).write(tmp_path)
    assert traces_path.read_text().splitlines() == [
        '# {"k":1}',
        "label,tau_us,nbar_c,delta_nbar_c",
        "thermal_nw4.44,0,2.63,0.53",
        "thermal_nw4.44,2.5,2.60123456789,0.50123456789",
    ]
    assert summary_path.read_text().splitlines()[1:] == [
        "label,nbar_w_eff,nbar_c_in,nbar_c_ss,delta_nc0,measured_ss",
        "thermal_nw4.44,4.44,2.63,2.1,0.53,nan",
    ]


def test_dataset_csv_missing_metadata(tmp_path):
    path = tmp_path / "plain.csv"
    path.write_text("a,b\n1,2\n")
    with pytest.raises(ScenarioError):
        read_dataset_csv(path)


def test_dataset_determinism_byte_identical(tmp_path):
    base = reference_scenario("z570", t_stop=300e-6, num=31)
    pairs = relaxation_scenarios(base)[:2]
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    for out in (out_a, out_b):
        fig3_dataset(base, scenarios=pairs).write(out)
    for name in ("fig3_traces.csv", "fig3_summary.csv"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


def _write_scenario(tmp_path, d):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(d))
    return str(path)


def test_cli_simulate_writes_trajectory(tmp_path, capsys):
    d = _base_dict()
    d["time_grid_us"] = {"start": 0.0, "stop": 100.0, "num": 11}
    rc = cli_main(["simulate", _write_scenario(tmp_path, d), "--out", str(tmp_path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "wrote" in out
    meta, cols, data = read_dataset_csv(tmp_path / "unit_trajectory.csv")
    assert data.shape == (11, 4)
    assert meta["scenario"]["name"] == "unit"


def test_cli_steady_state_prints_occupations(tmp_path, capsys):
    rc = cli_main(["steady-state", _write_scenario(tmp_path, _base_dict()),
                   "--rule", "dephasing"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "nbar_c=" in out
    nc = float(out.split("nbar_c=")[1].split()[0])
    assert nc == pytest.approx(2.24, abs=0.02)


def test_cli_bad_scenario_exit_code(tmp_path, capsys):
    d = _mutate(("coupling",), {})
    rc = cli_main(["simulate", _write_scenario(tmp_path, d)])
    assert rc == 2
    assert "error:" in capsys.readouterr().err
    rc = cli_main(["simulate", str(tmp_path / "missing.json")])
    assert rc == 2


@pytest.mark.parametrize("path,value", [
    (("coupling",), {"xi_khz": math.nan}),
    (("detuning_khz",), math.inf),
    (("time_grid_us",), [0.0, 5.0, math.inf]),
    (("preps", "cold"), {"kind": "thermal", "nbar": math.inf}),
], ids=["xi_nan", "detuning_inf", "grid_inf", "nbar_inf"])
def test_cli_non_finite_scenario_exit_code(tmp_path, capsys, path, value):
    """Non-finite numbers (JSON NaN / Infinity) are validation errors, exit 2;
    before they raised from scipy, returned NaN or exited 3."""
    rc = cli_main(["steady-state", _write_scenario(tmp_path, _mutate(path, value))])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def test_cli_epsilon_override(tmp_path, capsys):
    d = _base_dict()
    d["time_grid_us"] = [0.0, 50.0]
    rc = cli_main(["simulate", _write_scenario(tmp_path, d),
                   "--out", str(tmp_path), "--epsilon", "1e-2"])
    assert rc == 0
    meta, _, _ = read_dataset_csv(tmp_path / "unit_trajectory.csv")
    assert meta["scenario"]["epsilon"] == 1e-2
    assert meta["retained_weight"] >= 0.99


def test_cli_out_env_var(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("IONFRIDGE_OUT", str(tmp_path / "envdir"))
    d = _base_dict()
    d["time_grid_us"] = [0.0, 50.0]
    rc = cli_main(["simulate", _write_scenario(tmp_path, d)])
    assert rc == 0
    assert (tmp_path / "envdir" / "unit_trajectory.csv").exists()


def test_cli_coupling_report(tmp_path, capsys):
    trap = {"omega_x_khz": 1025.1, "omega_y_khz": 937.7, "omega_z_khz": 570.0}
    path = tmp_path / "trap.json"
    path.write_text(json.dumps(trap))
    with pytest.warns(UserWarning):
        rc = cli_main(["coupling", "--trap", str(path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "omega_h/2pi = 1372.74 kHz" in out
    assert "xi/2pi = 1.3418 kHz" in out


def test_cli_fit_thermal(tmp_path, capsys):
    rng = np.random.default_rng(21)
    cfg = SidebandConfig(omega_rabi=TWO_PI * 50e3, gamma0=600.0)
    p = thermal_distribution(0.8, cutoff=150, tail_budget=1.0)
    t_grid = np.linspace(0.5e-6, 150e-6, 300)
    samples = synthetic_brightness(p, cfg, t_grid, 0.95, 0.02, 0.02, rng)
    path = tmp_path / "flops.csv"
    save_brightness_csv(path, samples)
    rc = cli_main(["fit", str(path), "--model", "thermal"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "nbar =" in out and "reduced_chi2" in out
    nbar = float(out.split("nbar = ")[1].split()[0])
    assert nbar == pytest.approx(0.8, abs=0.15)


def test_cli_oracle_check_subprocess():
    """End-to-end check through the real module entry point."""
    proc = subprocess.run([sys.executable, "-m", "ionfridge", "oracle-check"],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "PASS" in proc.stdout
