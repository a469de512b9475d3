"""Scenario schema, dataset builders, CSV format, and the CLI."""

import copy
import dataclasses
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from ionfridge.cli import main as cli_main
from ionfridge.errors import NumericsError, ScenarioError, ValidationError
from ionfridge.experiments import (GRID_TABLE, MAX_GRID_POINTS, PREP_TABLES,
                                   PREPS_TABLE, SCHEMA_VERSION, SIDEBAND_TABLE,
                                   SWEEP_TABLE, TRAP_TABLE, TRUNCATION_TABLE,
                                   WINDOW_DEFAULT, WINDOW_SQUEEZED, RelaxationStudy,
                                   RelaxationTrace, Scenario, SteadyStateRule, SweepSpec,
                                   build_ensemble, fig2_dataset, fig3_dataset,
                                   fig4_dataset, load_scenario, read_dataset_csv,
                                   reference_scenario, relaxation_scenarios,
                                   run_scenario, scenario_echo, scenario_from_dict,
                                   single_shot_point, steady_state,
                                   with_thermal, write_dataset_csv,
                                   _prep_echo, _prep_from_dict)
from ionfridge.dynamics import EnsembleSpectrum
from ionfridge.fockspace import TruncationPolicy
from ionfridge.measurement import (FIT_MODELS, SidebandConfig, fit_distribution,
                                   load_brightness_csv, red_sideband_brightness,
                                   save_brightness_csv, synthetic_brightness)
from ionfridge.states import (DEFAULT_CUTOFF, PREP_KINDS, ModePrep, prep_mean,
                              thermal_distribution)
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


def test_scenario_from_dict_full_sections():
    d = _base_dict()
    d["preps"]["work"] = {"kind": "squeezed_thermal", "nbar": 0.5, "r": 1.34}
    d["sideband"] = {"omega_rabi_khz": 20.0, "t_rsb_us": 10.0, "a_bg": 0.02, "eta": 0.98}
    d["sweep"] = {"work_nbar": [4.44, 2.16], "cold_nbar": [0.5, 1.5, 2.5]}
    d["detuning_khz"] = -40.0
    s = scenario_from_dict(d)
    assert s.preps[1].kind == "squeezed_thermal" and s.preps[1].r == 1.34
    assert s.sideband.omega_rabi == pytest.approx(TWO_PI * 20e3)
    assert s.sideband.t_rsb == pytest.approx(10e-6)
    assert s.sweep.work_nbar == (4.44, 2.16)
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
    # keys that nothing acted on are unknown keys like any other
    ("seed", _mutate(("seed",), 7)),
    ("outputs", _mutate(("outputs",), ["trajectory"])),
    ("wrong_version", _mutate(("schema_version",), 99)),
    ("missing_version", _mutate(("schema_version",), _DELETE)),
    ("coupling_empty", _mutate(("coupling",), {})),
    ("coupling_both", _mutate(("coupling",), {"xi_khz": 1.0, "trap": {
        "omega_x_khz": 1025.1, "omega_y_khz": 937.7, "omega_z_khz": 570.0}})),
    ("coupling_unknown_key", _mutate(("coupling",), {"xi_khz": 1.0, "units": "kHz"})),
    ("trap_not_object", _mutate(("coupling",), {"trap": 5})),
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
    # malformed numbers: integers must be integral, numbers must be numbers
    ("fock_infinite_n", _mutate(("preps", "hot"), {"kind": "fock", "n": math.inf})),
    ("fock_fractional_n", _mutate(("preps", "hot"), {"kind": "fock", "n": 2.7})),
    ("fock_string_n", _mutate(("preps", "hot"), {"kind": "fock", "n": "2"})),
    ("prep_string_nbar", _mutate(("preps", "hot"), {"kind": "thermal", "nbar": "hot"})),
    ("prep_null_nbar", _mutate(("preps", "hot"), {"kind": "thermal", "nbar": None})),
    ("prep_huge_integer", _mutate(("preps", "hot"), {"kind": "thermal", "nbar": 10 ** 400})),
    ("truncation_fractional_cap", _mutate(("truncation",), {"n_max_h": 2.5})),
    ("truncation_string_cap", _mutate(("truncation",), {"n_max_h": "4"})),
    ("truncation_bool_cap", _mutate(("truncation",), {"n_max_c": True})),
    ("grid_fractional_num", _mutate(("time_grid_us",), {"start": 0.0, "stop": 1.0,
                                                        "num": 2.7})),
    ("grid_string_point", _mutate(("time_grid_us",), [0.0, "5"])),
    ("sweep_string", _mutate(("sweep",), {"work_nbar": "4.44"})),
    ("sweep_negative", _mutate(("sweep",), {"work_nbar": [4.44, -1.0]})),
    ("sweep_nan", _mutate(("sweep",), {"cold_nbar": [math.nan]})),
    ("sweep_inf", _mutate(("sweep",), {"work_nbar": [math.inf]})),
    ("coupling_bool", _mutate(("coupling",), {"xi_khz": True})),
]


@pytest.mark.parametrize("label,data", _BAD_SCENARIOS, ids=[b[0] for b in _BAD_SCENARIOS])
def test_scenario_schema_rejections(label, data):
    with pytest.raises(ScenarioError):
        scenario_from_dict(data)


def test_scenario_outputs_must_be_a_list():
    # before, a string was iterated by character ("unknown output kind 'f'");
    # the outputs key is gone, so a value of any type names the key as unknown
    with pytest.raises(ScenarioError, match=r"unknown key\(s\) in .*'outputs'"):
        scenario_from_dict(_mutate(("outputs",), "fig3"))


def test_scenario_integral_floats_are_integers():
    d = _mutate(("preps", "hot"), {"kind": "fock", "n": 2.0})
    d["time_grid_us"]["num"] = 81.0
    d["truncation"]["n_max_w"] = 30.0
    s = scenario_from_dict(d)
    assert s.preps[0].n_fock == 2 and isinstance(s.preps[0].n_fock, int)
    assert s.time_grid.size == 81
    assert s.truncation.n_max_w == 30 and isinstance(s.truncation.n_max_w, int)


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


def _capped_work_scenario():
    """The reference triple with a coherent work mode (mbar 1.01) capped at n = 0."""
    d = _base_dict()
    d["preps"]["work"] = {"kind": "coherent", "mbar": 1.01}
    d["truncation"]["n_max_w"] = 0
    return scenario_from_dict(d)


def test_a_capped_mode_reports_the_mass_its_cap_drops():
    """A cap at n = 0 runs the coherent work mode in vacuum, so its
    preparation loses 1 - e^-1.01 of its mass; the ensemble and the
    ``simulate`` metadata carry that tail mass beside the retained weight.
    Before, the metadata reported only the retained weight (0.9999) and a
    discarded weight, 1 minus it."""
    s = _capped_work_scenario()
    dropped = 1.0 - math.exp(-1.01)
    assert build_ensemble(s).tail_mass[1] == pytest.approx(dropped, abs=1e-12)
    meta = run_scenario(s).metadata
    assert meta["tail_mass"][1] == pytest.approx(dropped, abs=1e-12)
    assert meta["retained_weight"] > 0.9999 and "discarded_weight" not in meta


def test_a_mode_capped_at_zero_has_a_mean_of_exactly_zero(tmp_path):
    """n_w = N - n_h is 0 in every sector when the work mode is capped at
    n = 0, and every mean is floored at 0, so ``run_scenario``, its
    trajectory CSV and both steady-state rules read nbar_w = 0.0.  Before,
    each read -3.3e-16."""
    s = _capped_work_scenario()
    result = run_scenario(s)
    assert np.all(result.nbar[1] == 0.0) and not np.signbit(result.nbar).any()
    result.to_csv(tmp_path / "trajectory.csv")
    _, cols, data = read_dataset_csv(tmp_path / "trajectory.csv")
    assert np.all(data[:, cols.index("nbar_w")] == 0.0)
    for rule in (SteadyStateRule(), SteadyStateRule(method="window_average")):
        assert steady_state(s, rule).nbar_w == 0.0


def test_absent_optional_keys_take_the_dataclass_defaults():
    """The parser holds no defaults: an absent optional key is left out of the
    constructor call, and a null cap is no cap."""
    d = _base_dict()
    del d["truncation"]
    d["sideband"] = {"omega_rabi_khz": 20.0, "t_rsb_us": 10.0}
    s = scenario_from_dict(d)
    assert s.truncation == TruncationPolicy()
    assert s.sideband == SidebandConfig(omega_rabi=s.sideband.omega_rabi,
                                        t_rsb=s.sideband.t_rsb)
    assert (s.detuning, s.sweep) == (0.0, SweepSpec())
    d["truncation"] = {"n_max_h": None, "n_max_w": 30}
    assert scenario_from_dict(d).truncation == TruncationPolicy(n_max_w=30)


# ---------------------------------------------------------------------------
# Size bounds and the parse-level leaf probe
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("num", [MAX_GRID_POINTS + 1, 1e12, 1e300, 10 ** 400],
                         ids=["limit_plus_one", "1e12", "1e300", "huge_integer"])
def test_grid_num_above_the_limit_is_rejected(num):
    """The point count is checked before any allocation, and the error names
    the limit; before, 1e12 raised MemoryError (7.28 TiB) and 1e300 a bare
    ValueError."""
    with pytest.raises(ScenarioError, match=f"MAX_GRID_POINTS = {MAX_GRID_POINTS}"):
        scenario_from_dict(_mutate(("time_grid_us", "num"), num))


def test_grid_list_above_the_limit_is_rejected():
    """Explicit grids and constructed scenarios obey the same limit."""
    too_long = list(range(MAX_GRID_POINTS + 1))
    with pytest.raises(ScenarioError, match="MAX_GRID_POINTS"):
        scenario_from_dict(_mutate(("time_grid_us",), too_long))
    s = scenario_from_dict(_mutate(("time_grid_us", "num"), MAX_GRID_POINTS))
    assert s.time_grid.size == MAX_GRID_POINTS
    with pytest.raises(ScenarioError, match="MAX_GRID_POINTS"):
        dataclasses.replace(s, time_grid=np.arange(MAX_GRID_POINTS + 1.0))


@pytest.mark.parametrize("cap", [DEFAULT_CUTOFF + 1, 1e12, 1e300])
def test_truncation_cap_above_the_default_cutoff_is_rejected(cap):
    """A cap above the uncapped ladder length only lengthens the ladder; before,
    1e12 parsed and then asked for a 2.5 GiB array."""
    with pytest.raises(ScenarioError, match=f"DEFAULT_CUTOFF = {DEFAULT_CUTOFF}"):
        scenario_from_dict(_mutate(("truncation", "n_max_h"), cap))
    s = scenario_from_dict(_mutate(("truncation", "n_max_h"), DEFAULT_CUTOFF))
    assert s.truncation.n_max_h == DEFAULT_CUTOFF


_PROBE_VALUES = (0, -1, 1e-300, 1e-12, 2.5, 7, 1e3, 1e6, 1e12, 1e300)
_TRAP_KHZ = {"omega_x_khz": 1025.1, "omega_y_khz": 937.7, "omega_z_khz": 570.0}


def _probe_leaves():
    """(label, sections to set, leaf path, list-valued) for every leaf a
    scenario file can hold, read off the section tables."""
    leaves = [("coupling.xi_khz", {}, ("coupling", "xi_khz"), False),
              ("detuning_khz", {}, ("detuning_khz",), False)]
    leaves += [(f"coupling.trap.{key}", {"coupling": {"trap": _TRAP_KHZ}},
                ("coupling", "trap", key), False) for key in TRAP_TABLE]
    leaves += [(f"time_grid_us.{key}", {}, ("time_grid_us", key), False)
               for key in GRID_TABLE]
    for mode in PREPS_TABLE:
        for kind, table in PREP_TABLES.items():
            prep = {key: kind if key == "kind" else 1 for key in table}
            leaves += [(f"preps.{mode}.{kind}.{key}", {"preps": {mode: prep}},
                        ("preps", mode, key), False) for key in table if key != "kind"]
    for section, table in (("truncation", TRUNCATION_TABLE), ("sideband", SIDEBAND_TABLE),
                           ("sweep", SWEEP_TABLE)):
        leaves += [(f"{section}.{key}", {}, (section, key), table is SWEEP_TABLE)
                   for key in table]
    return leaves


_PROBE_LEAVES = _probe_leaves()


def _readout_base() -> dict:
    base = json.loads((Path(__file__).resolve().parents[1] / "scenarios"
                       / "sideband_readout.json").read_text())
    base.setdefault("sweep", {})
    return base


def _probe_dicts(base, sections, path, as_list):
    """(probe value, scenario dict): ``base`` with ``sections`` set, then the
    leaf at ``path`` set to each probe value in turn."""
    for key, value in sections.items():
        base[key] = {**base[key], **copy.deepcopy(value)} if key == "preps" else value
    for value in _PROBE_VALUES:
        d = copy.deepcopy(base)
        node = d
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = [value] if as_list else value
        yield value, d


@pytest.mark.filterwarnings("ignore::ionfridge.trap.CouplingFormulaWarning")
@pytest.mark.parametrize("label,sections,path,as_list", _PROBE_LEAVES,
                         ids=[leaf[0] for leaf in _PROBE_LEAVES])
def test_every_scenario_leaf_parses_or_raises_scenario_error(label, sections, path,
                                                              as_list):
    """One leaf of the shipped readout scenario at a time takes each probe
    value; parsing returns a Scenario or raises ScenarioError, never anything
    else.  (Before, out-of-range trap frequencies raised OverflowError and
    ZeroDivisionError, and grid and cap sizes the errors above.)"""
    failures = []
    for value, d in _probe_dicts(_readout_base(), sections, path, as_list):
        try:
            assert isinstance(scenario_from_dict(d), Scenario)
        except ScenarioError:
            pass
        except Exception as exc:                 # noqa: BLE001 - the probe's point
            failures.append(f"{label} = {value!r}: {type(exc).__name__}: {exc}")
    assert not failures, failures


@pytest.mark.filterwarnings("ignore::ionfridge.trap.CouplingFormulaWarning")
@pytest.mark.parametrize("label,sections,path,as_list", _PROBE_LEAVES,
                         ids=[leaf[0] for leaf in _PROBE_LEAVES])
def test_every_parsed_scenario_leaf_runs_or_raises_a_library_error(label, sections, path,
                                                                   as_list):
    """Each probe scenario that parses also runs: run_scenario raises a
    ValidationError or NumericsError, or returns finite occupations (and
    brightness) whose conserved sums n_h + n_w and n_h + n_c hold at 1e-9.
    To keep the sweep at a few seconds the grid is 3 points, the sideband
    readout runs only on its own leaves, and epsilon is 0.1 outside the
    truncation leaves; epsilon 1e-12 on the readout's occupations is the
    one case that costs seconds."""
    base = _readout_base()
    base["time_grid_us"] = {"start": 0.0, "stop": 400.0, "num": 3}
    if not label.startswith("sideband."):
        del base["sideband"]
    if not label.startswith("truncation."):
        base["truncation"] = {"epsilon": 0.1}
    failures = []
    for value, d in _probe_dicts(base, sections, path, as_list):
        try:
            s = scenario_from_dict(d)
        except ScenarioError:
            continue
        try:
            res = run_scenario(s)
        except (ValidationError, NumericsError):
            continue
        except Exception as exc:                 # noqa: BLE001 - the probe's point
            failures.append(f"{label} = {value!r}: {type(exc).__name__}: {exc}")
            continue
        outputs = res.nbar if res.p_up is None else np.vstack((res.nbar, res.p_up))
        sums = res.nbar[0] + res.nbar[1:]       # rows n_h + n_w and n_h + n_c
        drift = np.abs(sums - sums[:, :1]).max() / max(1.0, np.abs(sums[:, 0]).max())
        if not (np.all(np.isfinite(outputs)) and drift <= 1e-9):
            failures.append(f"{label} = {value!r}: non-finite output or drift {drift:.2g}")
    assert not failures, failures


_NO_SCIPY_RUN = """
import importlib.abc, json, pathlib, sys

class NoScipy(importlib.abc.MetaPathFinder):
    def find_spec(self, name, path=None, target=None):
        if name.split(".")[0] == "scipy":
            raise ImportError(f"{name} is blocked")

sys.meta_path.insert(0, NoScipy())

import numpy as np
from ionfridge.cli import main
from ionfridge.measurement import SidebandConfig, save_brightness_csv, synthetic_brightness
from ionfridge.oracle import dense_oracle_evolve
from ionfridge.states import ModePrep, thermal_distribution

tmp, scenarios = map(pathlib.Path, sys.argv[1:])
record, trap = tmp / "flops.csv", tmp / "trap.json"
cfg = SidebandConfig(omega_rabi=2 * np.pi * 50e3, gamma0=600.0)
save_brightness_csv(record, synthetic_brightness(
    thermal_distribution(0.8, 150, 1.0), cfg, np.linspace(0.5e-6, 150e-6, 100),
    0.95, 0.02, 0.02, np.random.default_rng(0)))
trap.write_text(json.dumps({"omega_x_khz": 1025.1, "omega_y_khz": 937.7,
                            "omega_z_khz": 570.0}))
for argv in (["simulate", scenarios / "sideband_readout.json", "--out", tmp / "simulate"],
             ["steady-state", scenarios / "relaxation_thermal.json"],
             ["fig2", scenarios / "equilibrium_sweep.json", "--out", tmp / "fig2"],
             ["fig3", scenarios / "relaxation_thermal.json", "--out", tmp / "fig3"],
             ["fig4", scenarios / "single_shot.json", "--out", tmp / "fig4"],
             ["oracle-check"], ["fit", record, "--model", "thermal"],
             ["coupling", "--trap", trap]):
    assert main([str(a) for a in argv]) == 0, argv
thermal = ModePrep.thermal_state(0.3)
for prep in (ModePrep.squeezed_thermal_state(0.2, 0.5), ModePrep(kind="coherent", alpha_sq=0.5)):
    means = dense_oracle_evolve((thermal, prep, thermal), 2 * np.pi * 2.64e3,
                                np.linspace(0.0, 400e-6, 5), (8, 8, 8))
    assert np.all(np.isfinite(means)), prep
"""


def test_the_runtime_needs_no_scipy(tmp_path):
    """Every subcommand and the squeezed and coherent dense oracle run in an
    interpreter where importing scipy raises: numpy is the one runtime
    dependency, and scipy serves only the tests as a reference."""
    root = Path(__file__).resolve().parents[1]
    proc = subprocess.run([sys.executable, "-c", _NO_SCIPY_RUN, str(tmp_path),
                           str(root / "scenarios")], capture_output=True, text=True,
                          timeout=300, env={**os.environ, "PYTHONPATH": str(root / "src")})
    assert proc.returncode == 0, proc.stderr


def test_the_package_exports_names_not_submodules():
    """``ionfridge.__all__`` lists the 71 public names and none of the
    submodules, which stay importable as attributes.  Before, its ``dir()``
    comprehension also picked up the nine submodule objects (80 names)."""
    import types
    import ionfridge
    assert not [name for name in ionfridge.__all__
                if isinstance(getattr(ionfridge, name), types.ModuleType)]
    assert len(ionfridge.__all__) == 71
    assert ionfridge.dynamics.EnsembleSpectrum is ionfridge.EnsembleSpectrum


# ---------------------------------------------------------------------------
# Steady-state rules
# ---------------------------------------------------------------------------


def test_steady_state_rule_parse():
    assert SteadyStateRule.parse("dephasing").method == "dephasing"
    bare = SteadyStateRule.parse("window")
    assert bare.method == "window_average" and bare.window_start is None
    timed = SteadyStateRule.parse("window:350")
    assert timed.window_start == pytest.approx(350e-6)
    for bad in ("window:", "window:abc", "window:nan", "window:inf", "average", ""):
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
    spectrum = EnsembleSpectrum(build_ensemble(thermal))
    window = thermal.time_grid[thermal.time_grid > WINDOW_DEFAULT]
    np.testing.assert_array_equal(rule.occupations(spectrum, thermal),
                                  spectrum.means_at(window).mean(axis=1))
    late = SteadyStateRule(method="window_average", window_start=500e-6)
    with pytest.raises(ValidationError, match="after window_start = 500 us"):
        late.occupations(spectrum, thermal)


def test_window_average_matches_dephasing():
    """The measurement-style window agrees with the exact infinite-time
    average once the grid extends well past the relaxation scale."""
    s = reference_scenario("z570", t_stop=1e-3, num=201)
    exact = steady_state(s, SteadyStateRule())
    windowed = steady_state(s, SteadyStateRule(method="window_average"))
    for a, b in zip(exact, windowed):
        assert b == pytest.approx(a, rel=0.02)


def test_only_run_scenario_divides_by_the_retained_weight():
    """simulate's trajectory is divided by the retained weight and the steady
    states are not, so its window mean times that weight is steady-state's."""
    d = _base_dict()
    d["truncation"] = {"epsilon": 1e-2}
    s = scenario_from_dict(d)
    rule = SteadyStateRule(method="window_average", window_start=200e-6)
    res = run_scenario(s)
    retained = res.metadata["retained_weight"]
    assert retained < 1.0 - 1e-4          # the two conventions differ visibly
    windowed = res.nbar[:, s.time_grid > 200e-6].mean(axis=1) * retained
    np.testing.assert_allclose(windowed, steady_state(s, rule), rtol=1e-12)


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


def test_trajectory_columns_and_sideband(tmp_path):
    d = _base_dict()
    d["time_grid_us"] = {"start": 0.0, "stop": 100.0, "num": 5}
    s = scenario_from_dict(d)
    res = run_scenario(s)
    res.to_csv(tmp_path / "plain.csv")
    _, columns, rows = read_dataset_csv(tmp_path / "plain.csv")
    assert columns == ["tau_us", "nbar_h", "nbar_w", "nbar_c"]
    assert rows.shape == (5, 4)
    assert res.metadata["dataset"] == "trajectory"
    assert 0.99 < res.metadata["retained_weight"] <= 1.0

    d["sideband"] = {"omega_rabi_khz": 20.0, "t_rsb_us": 10.0, "a_bg": 0.02, "eta": 0.98}
    s = scenario_from_dict(d)
    res = run_scenario(s)
    res.to_csv(tmp_path / "sideband.csv")
    _, columns, rows = read_dataset_csv(tmp_path / "sideband.csv")
    assert columns[-3:] == ["p_up_h", "p_up_w", "p_up_c"]
    assert rows.shape == (5, 7)
    assert np.all(res.p_up >= 0.0) and np.all(res.p_up <= 1.0)
    # hotter marginals flop brighter
    assert res.p_up[1, 0] > res.p_up[0, 0]
    # each entry is the readout model applied to the normalized marginal
    ensemble = build_ensemble(s)
    marginals = EnsembleSpectrum(ensemble).marginals_at(s.time_grid)
    for i, marg in enumerate(marginals):
        for k in range(s.time_grid.size):
            expected = red_sideband_brightness(marg[:, k] / ensemble.retained_weight,
                                               s.sideband)
            assert res.p_up[i, k] == pytest.approx(expected, abs=1e-12)


def test_scenario_echo_carries_the_sideband_block():
    """The p_up columns trace back to the readout model in the metadata; a
    scenario without a sideband block echoes none."""
    assert "sideband" not in scenario_echo(scenario_from_dict(_base_dict()))
    block = {"omega_rabi_khz": 20.0, "t_rsb_us": 10.0, "a_bg": 0.02, "eta": 0.98}
    res = run_scenario(scenario_from_dict(_mutate(("sideband",), block)))
    assert res.metadata["scenario"]["sideband"] == pytest.approx(block, rel=1e-15)


def test_fig2_and_fig4_csv_metadata_carry_the_sweep(tmp_path):
    """The sweep defines the fig2 and fig4 datasets; before, the echo dropped
    it, and a scenario without one still echoes none."""
    assert "sweep" not in scenario_echo(scenario_from_dict(_base_dict()))
    d = _base_dict()
    d["time_grid_us"] = {"start": 0.0, "stop": 60.0, "num": 13}
    d["sweep"] = {"work_nbar": [4.44, 2.16], "cold_nbar": [1.0, 2.0]}
    s = scenario_from_dict(d)
    for path in [*fig2_dataset(s).write(tmp_path), *fig4_dataset(s).write(tmp_path)]:
        meta, _, _ = read_dataset_csv(path)
        assert meta["scenario"]["sweep"] == d["sweep"], path.name


@pytest.mark.parametrize("kind", sorted(PREP_KINDS))
def test_prep_echo_round_trips_every_kind(kind):
    """Parsing and echoing read the same table, so the echo of a parsed
    preparation is the scenario-file object it came from."""
    d = {"kind": kind, **{key: 2 + i for i, key in enumerate(PREP_KINDS[kind][0])}}
    echo = _prep_echo(_prep_from_dict(d, "preps.hot"))
    assert echo == d and list(echo) == list(d)


def test_reference_scenario_presets():
    s = reference_scenario("z570")
    assert s.name == "reference_z570"
    assert s.xi == pytest.approx(REFERENCE_SETUPS["z570"].xi_hamiltonian)
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


def test_fig3_dataset_subset(tmp_path):
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
    # delta_nc0 takes both ends from the truncated ensemble: the trace's first
    # value, not the preparation's mean (which carries the discarded tail)
    meta, cols, data = read_dataset_csv(study.write(tmp_path)[1])
    assert "first grid time" in meta["deltas"]
    for row, trace in zip(data, study.traces):
        assert row[cols.index("delta_nc0")] == pytest.approx(
            trace.nbar_c[0] - trace.nbar_c_ss, rel=1e-11)
        assert row[cols.index("nbar_c_in")] == pytest.approx(trace.nbar_c_in, rel=1e-11)
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
    start = EnsembleSpectrum(build_ensemble(s)).means_at(s.time_grid[:1])[2, 0]
    assert pt.delta_single_shot == pytest.approx(start - pt.nbar_c_min, rel=1e-9)
    assert pt.delta_single_shot > pt.delta_dephased > 0.0
    assert pt.delta_classical > 0.0
    assert math.isnan(pt.nbar_c_min_incoherent)


def test_single_shot_point_at_a_zero_cold_occupation():
    """A cold mode prepared in vacuum only heats: tau* is the first grid time,
    no single-shot cooling is reported, the dephased state lies above the
    preparation, and the exchange balance has no finite value, so
    delta_classical is NaN.  Before, equilibrium_shift's DomainError escaped."""
    s = with_thermal(reference_scenario("z570", t_stop=200e-6, num=81), "cold", 0.0)
    pt = single_shot_point(s, include_incoherent=True)
    assert pt.tau_star == 0.0
    assert pt.delta_single_shot == 0.0
    assert abs(pt.nbar_c_min) < 1e-12
    assert pt.delta_dephased < 0.0
    assert math.isnan(pt.delta_classical)
    assert math.isfinite(pt.nbar_c_min_incoherent)


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


def test_fig4_single_shot_delta_takes_both_ends_from_one_ensemble(tmp_path):
    """On ``scenarios/single_shot.json`` (epsilon 1e-4) the cold mode only
    heats at nbar_w 1.1, 0.67, 0.37 and 0.19, so the minimum is the first
    grid point, t = 0, and no single-shot cooling may be reported there;
    the two cooling points lie within 5e-4 of an epsilon 1e-8 run.  Before,
    delta_single_shot subtracted the truncated minimum from the
    preparation's mean and read +1.71e-3 to +1.77e-3 at the four points,
    and 1.5e-3 and 1.7e-3 above the tight run at the other two; and the
    golden-section search, which never evaluates its bracket's ends,
    reported tau* = 0.0430523 us and delta_single_shot -1.5e-8 to -1.3e-7
    there."""
    base = load_scenario(_SHIPPED / "single_shot.json")
    study = fig4_dataset(base)
    by_nbar = {p.nbar_w: p for p in study.points}
    for nbar_w in (1.1, 0.67, 0.37, 0.19):
        assert by_nbar[nbar_w].tau_star == 0.0
        assert by_nbar[nbar_w].delta_single_shot == 0.0
    tight = dataclasses.replace(base, truncation=dataclasses.replace(base.truncation,
                                                                     epsilon=1e-8))
    for converged in fig4_dataset(tight, nbar_w_values=[4.44, 2.16]).points:
        assert abs(by_nbar[converged.nbar_w].delta_single_shot
                   - converged.delta_single_shot) <= 5e-4
    meta, cols, data = read_dataset_csv(study.write(tmp_path)[0])
    assert "first grid time" in meta["deltas"]
    assert np.all(data[2:, cols.index("delta_single_shot")] == 0.0)


def test_fig4_csv_carries_the_incoherent_minimum(tmp_path):
    """Before, fig4 always wrote nbar_c_min_incoherent as nan: no caller of
    fig4_dataset turned the incoherent twin on."""
    s = reference_scenario("z570", t_stop=150e-6, num=61)
    (path,) = fig4_dataset(s, nbar_w_values=[4.44]).write(tmp_path)
    _, cols, data = read_dataset_csv(path)
    assert np.all(np.isfinite(data[:, cols.index("nbar_c_min_incoherent")]))


def test_fig4_reports_nan_delta_classical_at_a_zero_occupation(tmp_path, capsys):
    """The exchange balance has no finite value where an occupation is 0, so
    that row's delta_classical is NaN and every other column and row is as
    without it.  Before, fig4 exited 2 with "occupations must be finite and
    > 0" after building the first spectrum, while steady-state ran the same
    file."""
    d = json.loads((_SHIPPED / "single_shot.json").read_text())
    d["sweep"]["work_nbar"] = [0.0, 4.44, 2.16]
    scenario = _write_scenario(tmp_path, d)
    assert cli_main(["steady-state", scenario]) == 0
    assert cli_main(["fig4", scenario, "--out", str(tmp_path / "zero_work")]) == 0
    _, cols, data = read_dataset_csv(tmp_path / "zero_work" / "fig4_summary.csv")
    classical = data[:, cols.index("delta_classical")]
    assert math.isnan(classical[0]) and np.all(np.isfinite(classical[1:]))
    assert data[0, cols.index("tau_star_us")] == 0.0
    assert data[0, cols.index("delta_single_shot")] == 0.0
    base = load_scenario(scenario)
    reference = fig4_dataset(base, nbar_w_values=[4.44, 2.16]).points
    assert fig4_dataset(base).points[1:] == reference

    d["preps"]["hot"]["nbar"] = 0.0
    scenario = _write_scenario(tmp_path, d)
    assert cli_main(["steady-state", scenario]) == 0
    assert cli_main(["fig4", scenario, "--out", str(tmp_path / "zero_hot")]) == 0
    _, cols, data = read_dataset_csv(tmp_path / "zero_hot" / "fig4_summary.csv")
    assert np.all(np.isnan(data[:, cols.index("delta_classical")]))
    assert np.all(np.isfinite(np.delete(data, cols.index("delta_classical"), axis=1)))


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


def test_dataset_csv_rejects_a_row_of_the_wrong_length(tmp_path):
    """Before, the row was written and only read_dataset_csv rejected the file."""
    path = tmp_path / "data.csv"
    with pytest.raises(ValidationError, match=r"rows\[1\] has 3 cells, the header 2"):
        write_dataset_csv(path, ["a", "b"], [[1.0, 2.0], [3.0, 4.0, 5.0]], {})
    assert not path.exists()
    # rows are read twice, to check them and to write them: a generator too
    write_dataset_csv(path, ["a", "b"], ([float(i), 2.0 * i] for i in range(3)), {})
    assert read_dataset_csv(path)[2].tolist() == [[0.0, 0.0], [1.0, 2.0], [2.0, 4.0]]


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


def test_fig3_csvs_read_back_with_their_labels(tmp_path):
    """Labels come back as strings and numbers as floats.  Before, reading
    either fig3 CSV raised ValueError on its label column."""
    trace = RelaxationTrace(label="thermal_nw4.44", nbar_w_eff=4.44, nbar_c_in=2.63,
                            nbar_c_ss=2.1, tau=np.array([0.0, 2.5e-6]),
                            nbar_c=np.array([2.63, 2.6012345678901234]))
    traces_path, summary_path = RelaxationStudy([trace], {"k": 1}).write(tmp_path)
    meta, cols, data = read_dataset_csv(traces_path)
    assert meta == {"k": 1}
    assert cols == ["label", "tau_us", "nbar_c", "delta_nbar_c"]
    assert data.tolist() == [["thermal_nw4.44", 0.0, 2.63, 0.53],
                             ["thermal_nw4.44", 2.5, 2.60123456789, 0.50123456789]]
    _, cols, data = read_dataset_csv(summary_path)
    assert cols[0] == "label" and data.shape == (1, 6)
    assert data[0, 0] == "thermal_nw4.44"
    assert data[0, 1:5].tolist() == [4.44, 2.63, 2.1, 0.53]
    assert math.isnan(data[0, 5])


def test_dataset_csv_missing_metadata(tmp_path):
    path = tmp_path / "plain.csv"
    path.write_text("a,b\n1,2\n")
    with pytest.raises(ScenarioError):
        read_dataset_csv(path)


@pytest.mark.parametrize("content,where", [
    (b'# {bad\na,b\n1,2\n', "line 1"),
    (b'# {"k":1}\n', "line 2"),
    ('# {"k":1}\na,b\n1,2\n'.encode("utf-16"), "not UTF-8"),
    (b'# {"k":1}\na,b\n1,2\n3\n', "line 4"),
    (b'# 5\na\n1\n', "line 1: metadata is not a JSON object"),
], ids=["bad_metadata", "no_header", "utf16", "short_row", "metadata_not_object"])
def test_dataset_csv_malformed_file_is_a_scenario_error(tmp_path, content, where):
    """Each names the file and, where one applies, the line; before, they
    escaped as JSONDecodeError, IndexError, UnicodeDecodeError and numpy's
    ValueError, and metadata that was not an object was returned as is."""
    path = tmp_path / "data.csv"
    path.write_bytes(content)
    with pytest.raises(ScenarioError) as exc:
        read_dataset_csv(path)
    assert str(exc.value).startswith(f"{path}: ") and where in str(exc.value)


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


_TRAJECTORY = ["tau_us", "nbar_h", "nbar_w", "nbar_c"]
_FIG2_CELLS = ["nbar_w_in", "nbar_c_in", "nbar_h_ss", "nbar_c_ss", "eps_h",
               "retained_weight", "n_sectors"]
_FIG2_SUMMARY = ["nbar_w_in", "crossing", "nc_eq_sim", "nc_eq_formula"]
_FIG3_TRACES = ["label", "tau_us", "nbar_c", "delta_nbar_c"]
_FIG3_SUMMARY = ["label", "nbar_w_eff", "nbar_c_in", "nbar_c_ss", "delta_nc0", "measured_ss"]
_FIG4_SUMMARY = ["nbar_w_in", "tau_star_us", "nbar_c_min", "delta_single_shot",
                 "delta_dephased", "delta_classical", "nbar_c_min_incoherent"]
#: past both window presets (240 and 600 us), 8 points
_FIG3_GRID = {"start": 0.0, "stop": 700.0, "num": 8}
_SIDEBAND = {"omega_rabi_khz": 20.0, "t_rsb_us": 10.0}


@pytest.mark.parametrize("argv,changes,csvs", [
    (["simulate"], {"time_grid_us": {"start": 0.0, "stop": 100.0, "num": 5},
                    "sideband": _SIDEBAND},
     {"unit_trajectory.csv": (_TRAJECTORY + ["p_up_h", "p_up_w", "p_up_c"], 5)}),
    # work 0.3 below hot 0.66: the balance formula has no solution (NaN)
    (["fig2"], {"sweep": {"work_nbar": [4.44, 0.3], "cold_nbar": [0.5, 1.5, 2.5]}},
     {"fig2_cells.csv": (_FIG2_CELLS, 6), "fig2_summary.csv": (_FIG2_SUMMARY, 2)}),
    (["fig3"], {"time_grid_us": _FIG3_GRID},
     {"fig3_traces.csv": (_FIG3_TRACES, 80), "fig3_summary.csv": (_FIG3_SUMMARY, 10)}),
    (["fig3", "--rule", "window"], {"time_grid_us": _FIG3_GRID},
     {"fig3_traces.csv": (_FIG3_TRACES, 80), "fig3_summary.csv": (_FIG3_SUMMARY, 10)}),
    (["fig4"], {"time_grid_us": {"start": 0.0, "stop": 60.0, "num": 13},
                "sweep": {"work_nbar": [4.44, 1.1]}},
     {"fig4_summary.csv": (_FIG4_SUMMARY, 2)}),
    (["steady-state", "--rule", "window:200"], {}, {}),
], ids=["simulate_sideband", "fig2", "fig3", "fig3_window", "fig4", "steady_state"])
def test_cli_scenario_subcommand_output(tmp_path, capsys, argv, changes, csvs):
    """Each scenario subcommand runs through the CLI's one handler and writes
    CSVs that read back with the columns and rows of their dataset."""
    command, *flags = argv
    scenario = _write_scenario(tmp_path, {**_base_dict(), **changes})
    out = ["--out", str(tmp_path / "out")] if csvs else []
    assert cli_main([command, scenario, *flags, *out]) == 0
    printed = capsys.readouterr().out.splitlines()
    if not csvs:
        assert len(printed) == 1 and printed[0].startswith("nbar_h=")
        return
    assert [line.split()[1] for line in printed] == [
        str(tmp_path / "out" / name) for name in csvs]
    for name, (columns, n_rows) in csvs.items():
        meta, cols, data = read_dataset_csv(tmp_path / "out" / name)
        assert (cols, len(data)) == (columns, n_rows), name
        assert meta["scenario"]["name"] == "unit"
    if command == "fig2":
        _, cols, data = read_dataset_csv(tmp_path / "out" / "fig2_summary.csv")
        formula = data[:, cols.index("nc_eq_formula")]
        assert np.isfinite(formula[0]) and math.isnan(formula[1])


def test_cli_bad_scenario_exit_code(tmp_path, capsys):
    d = _mutate(("coupling",), {})
    rc = cli_main(["simulate", _write_scenario(tmp_path, d)])
    assert rc == 2
    assert "error:" in capsys.readouterr().err
    rc = cli_main(["simulate", str(tmp_path / "missing.json")])
    assert rc == 2


def test_cli_readout_brightness_above_one_exit_code(tmp_path, capsys):
    """A sideband section with a_bg + eta > 1 is a scenario error, exit 2;
    before, it parsed and its readout reached a brightness of 1.5."""
    d = _mutate(("sideband",), {"omega_rabi_khz": 20.0, "t_rsb_us": 10.0,
                                "a_bg": 0.5, "eta": 1.0})
    with pytest.raises(ScenarioError, match=r"a_bg \+ eta must be <= 1"):
        scenario_from_dict(d)
    assert cli_main(["steady-state", _write_scenario(tmp_path, d)]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("mode,cap", [("hot", "n_max_h"), ("work", "n_max_w"),
                                      ("cold", "n_max_c")])
def test_fock_index_above_its_cap_exit_code(tmp_path, capsys, mode, cap):
    """A Fock n above its mode's hard cap is a scenario error, exit 2; n at
    the cap parses.  Before, n = 3 under a cap of 2 parsed, and steady-state
    exited 3 with "cutoff 2 below Fock index 3"."""
    d = _mutate(("preps", mode), {"kind": "fock", "n": 3})
    d["truncation"] = {cap: 2}
    with pytest.raises(ScenarioError, match=f"Fock n = 3, above its cap {cap} = 2"):
        scenario_from_dict(d)
    assert cli_main(["steady-state", _write_scenario(tmp_path, d)]) == 2
    assert "error:" in capsys.readouterr().err
    d["truncation"] = {cap: 3}
    assert scenario_from_dict(d).preps[("hot", "work", "cold").index(mode)].n_fock == 3


@pytest.mark.parametrize("path,value", [
    (("coupling",), {"xi_khz": math.nan}),
    (("detuning_khz",), math.inf),
    (("time_grid_us",), [0.0, 5.0, math.inf]),
    (("preps", "cold"), {"kind": "thermal", "nbar": math.inf}),
    (("sideband",), {"omega_rabi_khz": math.nan, "t_rsb_us": 10.0}),
    (("sideband",), {"omega_rabi_khz": 20.0, "t_rsb_us": math.inf}),
    (("sweep",), {"work_nbar": [4.44], "cold_nbar": [0.5, math.nan]}),
], ids=["xi_nan", "detuning_inf", "grid_inf", "nbar_inf", "omega_rabi_nan", "t_rsb_inf",
        "sweep_nan"])
def test_cli_non_finite_scenario_exit_code(tmp_path, capsys, path, value):
    """Non-finite numbers (JSON NaN / Infinity) are validation errors, exit 2;
    before they raised from scipy, returned NaN or exited 3 (a non-finite
    sideband value wrote all-NaN p_up columns and exited 0; a non-finite or
    negative sweep occupation parsed, and fig2 and fig4 raised only partway
    through their studies)."""
    rc = cli_main(["steady-state", _write_scenario(tmp_path, _mutate(path, value))])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("path,value", [
    (("preps", "hot"), {"kind": "fock", "n": math.inf}),
    (("preps", "hot"), {"kind": "thermal", "nbar": "hot"}),
    (("truncation",), {"n_max_h": 2.5}),
    (("truncation",), {"n_max_h": "4"}),
], ids=["fock_inf", "nbar_string", "cap_fractional", "cap_string"])
def test_cli_malformed_number_exit_code(tmp_path, capsys, path, value):
    """Malformed numbers are validation errors, exit 2; before they escaped as
    OverflowError, ValueError, IndexError and TypeError tracebacks (exit 1)."""
    rc = cli_main(["steady-state", _write_scenario(tmp_path, _mutate(path, value))])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("path,value,limit", [
    (("time_grid_us", "num"), MAX_GRID_POINTS + 1, "MAX_GRID_POINTS"),
    (("truncation", "n_max_c"), DEFAULT_CUTOFF + 1, "DEFAULT_CUTOFF"),
], ids=["grid_num", "cap"])
def test_cli_size_above_its_limit_exit_code(tmp_path, capsys, path, value, limit):
    """A grid or a cap above its limit is a validation error naming the limit,
    exit 2; before, both ran (and larger values exhausted memory)."""
    rc = cli_main(["steady-state", _write_scenario(tmp_path, _mutate(path, value))])
    assert rc == 2
    assert limit in capsys.readouterr().err


@pytest.mark.parametrize("command", ["steady-state", "simulate"])
def test_cli_overflowing_squeezing_exit_code(tmp_path, capsys, command):
    """A squeezing whose sinh(r)^2 overflows is a validation error, exit 2;
    before, an OverflowError traceback (exit 1)."""
    d = _mutate(("preps", "cold"), {"kind": "squeezed_thermal", "nbar": 0.5, "r": 1e3})
    out = ["--out", str(tmp_path)] if command == "simulate" else []
    rc = cli_main([command, _write_scenario(tmp_path, d), *out])
    assert rc == 2
    assert "overflows" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["fit", "data.csv", "--model", "thermal", "--rule", "window"],
    ["fig4", "scenario.json", "--rule", "window"],
    ["steady-state", "scenario.json", "--out", "d"],
    ["oracle-check", "--epsilon", "1e-3"],
    ["simulate", "scenario.json", "--seed", "3"],
], ids=["fit_rule", "fig4_rule", "steady_state_out", "oracle_check_epsilon",
        "simulate_seed"])
def test_cli_flag_a_command_does_not_read_is_a_usage_error(capsys, argv):
    """A flag is given only to the subcommands that read it; before, every
    subcommand accepted --out, --epsilon, --rule and --seed and ignored some."""
    with pytest.raises(SystemExit) as exc:
        cli_main(argv)
    assert exc.value.code == 2
    assert f"unrecognized arguments: {argv[-2]}" in capsys.readouterr().err


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
    assert "ion spacing = 4.2941 um" in out
    assert "xi/2pi = 1.3418 kHz" in out


@pytest.mark.parametrize("trap,message", [
    ({**_TRAP_KHZ, "omega_r_khz": 1.0}, "unknown key(s) in trap: ['omega_r_khz']"),
    ({"omega_x_khz": 1025.1, "omega_y_khz": 937.7}, "missing key 'omega_z_khz' in trap"),
    ({**_TRAP_KHZ, "omega_z_khz": 1e300}, "invalid trap: trap frequencies must lie in"),
], ids=["unknown_key", "missing_key", "out_of_range"])
def test_cli_coupling_reads_the_scenario_trap_table(tmp_path, capsys, trap, message):
    """A trap file is read by the scenario's trap table, with its messages
    (exit 2); before, 1e300 kHz escaped as an OverflowError traceback."""
    path = tmp_path / "trap.json"
    path.write_text(json.dumps(trap))
    assert cli_main(["coupling", "--trap", str(path)]) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("text", ["5", "{bad"], ids=["not_object", "malformed_json"])
def test_cli_coupling_bad_trap_file_exit_code(tmp_path, capsys, text):
    """A trap file must hold a JSON object, read like a scenario (exit 2);
    before, both escaped as a TypeError or JSONDecodeError traceback (exit 1)."""
    path = tmp_path / "trap.json"
    path.write_text(text)
    assert cli_main(["coupling", "--trap", str(path)]) == 2
    assert "trap" in capsys.readouterr().err


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
    assert "rank 5, condition number" in out
    nbar = float(out.split("nbar = ")[1].split()[0])
    assert nbar == pytest.approx(0.8, abs=0.15)


@pytest.mark.parametrize("row", ["abc,0.5,0.02", "1.0,0.5,nan", "inf,0.5,0.02",
                                 "1.0,0.5", "1.0,0.5,0.02,7"],
                         ids=["non_numeric", "nan_sigma", "inf_time", "short_row",
                              "long_row"])
def test_cli_fit_malformed_csv_exit_code(tmp_path, capsys, row):
    """A malformed brightness cell is a validation error naming its line, exit 2;
    before it escaped as a bare ValueError from float() or from scipy (exit 1)."""
    path = tmp_path / "flops.csv"
    good = "".join(f"{t:g},0.5,0.02\n" for t in range(1, 21))   # enough for a fit
    path.write_text("t_us,p_up,sigma\n0.5,0.1,0.02\n" + row + "\n" + good)
    rc = cli_main(["fit", str(path), "--model", "thermal"])
    assert rc == 2
    assert "line 3" in capsys.readouterr().err


def test_cli_fit_model_choices_come_from_the_model_table(capsys):
    """The names users type are the table's names with hyphens."""
    choices = sorted(name.replace("_", "-") for name in FIT_MODELS)
    assert choices == ["coherent", "free", "squeezed-thermal", "squeezed-vacuum", "thermal"]
    with pytest.raises(SystemExit) as exc:
        cli_main(["fit", "data.csv", "--model", "squeezed_vacuum"])
    assert exc.value.code == 2
    assert "squeezed-vacuum" in capsys.readouterr().err


_SHIPPED = Path(__file__).resolve().parents[1] / "scenarios"


@pytest.mark.parametrize("name", ["../escaped", "a/b", 5, None, ["x"], "", "..", "a\\b"],
                         ids=["parent_dir", "subdir", "number", "null", "list", "empty",
                              "dot_dot", "backslash"])
def test_scenario_name_must_be_one_file_name(tmp_path, capsys, name):
    """Output files are named after the scenario; before, simulate wrote
    ../escaped_trajectory.csv above --out, made a/ below it, and wrote
    5_, None_, ['x']_ and _trajectory.csv, all with exit 0."""
    d = {**json.loads((_SHIPPED / "single_shot.json").read_text()), "name": name}
    out = tmp_path / "out"
    assert cli_main(["simulate", _write_scenario(tmp_path, d), "--out", str(out)]) == 2
    assert "name must be a nonempty file name" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.rglob("*")) == ["scenario.json"]


def _undecodable(tmp_path):
    path = tmp_path / "utf16.txt"
    path.write_bytes(b"\xff\xfe{\x00}\x00")
    return str(path)


@pytest.mark.parametrize("argv", [
    lambda tmp: ["simulate", str(_SHIPPED / "single_shot.json"), "--out",
                 str(tmp / "scenario.json")],
    lambda tmp: ["simulate", str(tmp)],
    lambda tmp: ["fit", str(tmp), "--model", "thermal"],
    lambda tmp: ["simulate", _undecodable(tmp)],
    lambda tmp: ["coupling", "--trap", _undecodable(tmp)],
    lambda tmp: ["fit", _undecodable(tmp), "--model", "thermal"],
], ids=["out_is_a_file", "simulate_directory", "fit_directory", "simulate_utf16",
        "coupling_utf16", "fit_utf16"])
def test_cli_os_and_decode_errors_exit_code(tmp_path, capsys, argv):
    """A path the CLI cannot use, or a file that is not UTF-8, is a
    configuration error, exit 2; before, each was a traceback with exit 1
    (FileExistsError, IsADirectoryError, UnicodeDecodeError)."""
    _write_scenario(tmp_path, _base_dict())
    assert cli_main(argv(tmp_path)) == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("command,study", [
    ("simulate", "run_scenario"), ("fig2", "fig2_dataset"), ("fig3", "fig3_dataset"),
    ("fig4", "fig4_dataset")])
def test_cli_out_is_settled_before_the_study_runs(tmp_path, capsys, monkeypatch,
                                                  command, study):
    """--out naming an existing file exits 2 before the study runs; before,
    the whole study ran and only then did making the directory fail."""
    def study_ran(*args, **kwargs):
        raise AssertionError(f"{study} ran before --out was made")
    monkeypatch.setattr(f"ionfridge.cli.{study}", study_ran)
    out = tmp_path / "taken"
    out.write_text("")
    assert cli_main([command, str(_SHIPPED / "single_shot.json"), "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_cli_ensemble_above_the_pair_limit_exit_code(tmp_path, capsys):
    """The readout scenario with a squeezed-thermal hot mode (nbar 2.5, r 1)
    holds 3.8e7 eigenvalue pairs: rejected before any eigensolve, exit 2
    (before, 42 s and 1.1 GiB on a 2-vCPU x86-64 host)."""
    d = json.loads((_SHIPPED / "sideband_readout.json").read_text())
    d["preps"]["hot"] = {"kind": "squeezed_thermal", "nbar": 2.5, "r": 1.0}
    d["time_grid_us"] = {"start": 0.0, "stop": 400.0, "num": 5}
    assert cli_main(["steady-state", _write_scenario(tmp_path, d)]) == 2
    assert "MAX_SECTOR_PAIRS" in capsys.readouterr().err


def test_cli_numerical_failure_exit_code(capsys):
    """A weight budget no truncation can meet is a numerical failure, exit 3."""
    rc = cli_main(["steady-state", str(_SHIPPED / "single_shot.json"), "--epsilon", "1e-16"])
    assert rc == 3
    assert capsys.readouterr().err.startswith("numerical failure: retainable weight")


def _free_record(tmp_path):
    rng = np.random.default_rng(21)
    cfg = SidebandConfig(omega_rabi=TWO_PI * 50e3, gamma0=600.0)
    p = thermal_distribution(0.8, cutoff=150, tail_budget=1.0)
    samples = synthetic_brightness(p, cfg, np.linspace(0.5e-6, 150e-6, 300), 0.95, 0.02,
                                   0.02, rng)
    path = tmp_path / "flops.csv"
    save_brightness_csv(path, samples)
    return path


def test_cli_fit_free_prints_the_populations(tmp_path, capsys):
    path = _free_record(tmp_path)
    assert cli_main(["fit", str(path), "--model", "free"]) == 0
    line = next(line for line in capsys.readouterr().out.splitlines() if "p(n)" in line)
    pops = np.array(line.split(":")[1].split(), dtype=float)
    assert line.startswith("  p(n), n=0..13:") and pops.size == 14
    assert pops.sum() == pytest.approx(1.0, abs=1e-3)
    assert pops[0] == pytest.approx(1.0 / 1.8, abs=0.1)


def test_cli_fit_prints_unresolved_parameters_without_a_value(tmp_path, capsys):
    """A parameter with an infinite error prints as unresolved: its value is
    wherever the solver stopped.  Before, such a logit printed a number
    (-171.789 on one record) with "+/- inf"."""
    path = _free_record(tmp_path)
    result = fit_distribution(load_brightness_csv(path), "free")
    assert cli_main(["fit", str(path), "--model", "free"]) == 0
    out = capsys.readouterr().out
    assert "inf" not in out
    lines = {line.split(" = ")[0].strip(): line for line in out.splitlines() if " = " in line}
    unresolved = {name for name, err in result.errors.items() if math.isinf(err)}
    assert unresolved and all(lines[name].endswith(f"{name} = unresolved") for name in unresolved)
    assert all("+/-" in lines[name] for name in result.errors.keys() - unresolved)


def test_cli_oracle_check_subprocess():
    """End-to-end check through the real module entry point."""
    proc = subprocess.run([sys.executable, "-m", "ionfridge", "oracle-check"],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "PASS" in proc.stdout
