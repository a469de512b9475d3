"""Scenario configuration, dataset generation and file I/O.

A Scenario bundles everything one run needs: the coupling (either a
measured rate or a trap configuration to derive it from), the detuning,
three mode preparations, a time grid and a truncation policy.  Scenario
files are JSON; frequencies there are ordinary frequencies in kHz and
times are in microseconds, converted to angular rad/s and seconds at the
boundary.  Unknown keys are rejected.

Each section of a file is one table, read and echoed by one routine; an
absent optional key takes its dataclass default.

Emitted datasets are CSV with a single leading ``# ``-prefixed JSON
metadata line (constants, truncation, retained weight, sector count,
software version).  No timestamps are embedded, so identical scenarios
produce byte-identical files.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Iterable, Sequence, get_type_hints

import numpy as np

from ._version import __version__
from .benchmarks import (OccupationTriple, equilibrium_cold_occupation,
                         equilibrium_shift, extract_equilibrium_nc)
from .dynamics import (EnsembleSpectrum, ThreeModeEnsemble, assemble_initial,
                       default_incoherence_strength)
from .errors import DomainError, ScenarioError, ValidationError
from .fockspace import TruncationPolicy
from .measurement import SidebandConfig, red_sideband_brightness
from .states import PREP_KINDS, ModePrep, prep_mean
from .trap import CODATA2014, REFERENCE_SETUPS, TrapConfig, coupling_rate

SCHEMA_VERSION = 1

#: scenario-file units: kHz (ordinary frequency) and microseconds, in rad/s and s
_KHZ = math.tau * 1e3
_US = 1e-6

#: most points a time grid may hold; the shipped scenarios use at most 281
MAX_GRID_POINTS = 10_000

#: steady-state window presets (s) used by the measurement procedure
WINDOW_DEFAULT = 240e-6
WINDOW_SQUEEZED = 600e-6


# ---------------------------------------------------------------------------
# Scenario
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SweepSpec:
    """Optional parameter sweeps attached to a scenario."""

    work_nbar: tuple[float, ...] = ()
    cold_nbar: tuple[float, ...] = ()

    def __post_init__(self):
        for name, values in (("work_nbar", self.work_nbar), ("cold_nbar", self.cold_nbar)):
            if not all(0.0 <= nbar < math.inf for nbar in values):
                raise ScenarioError(f"sweep.{name} occupations must be finite and >= 0, "
                                    f"got {values!r}")


@dataclass(frozen=True, eq=False)
class Scenario:
    """A fully resolved simulation request (all quantities SI / rad/s)."""

    preps: tuple[ModePrep, ModePrep, ModePrep]
    time_grid: np.ndarray
    xi: float
    detuning: float = 0.0
    truncation: TruncationPolicy = TruncationPolicy()
    sideband: SidebandConfig | None = None
    name: str = "scenario"
    sweep: SweepSpec = SweepSpec()

    def __post_init__(self):
        grid = np.asarray(self.time_grid, dtype=float)
        if grid.ndim != 1 or not 0 < grid.size <= MAX_GRID_POINTS:
            raise ScenarioError("time grid must be a nonempty 1-d array of at most "
                                f"MAX_GRID_POINTS = {MAX_GRID_POINTS} points")
        if not np.all(np.isfinite(grid)):
            raise ScenarioError("time grid must be finite")
        if grid.size > 1 and np.any(np.diff(grid) <= 0.0):
            raise ScenarioError("time grid must be strictly increasing")
        if np.any(grid < 0.0):
            raise ScenarioError("time grid must be nonnegative")
        object.__setattr__(self, "time_grid", grid)
        if not (math.isfinite(self.xi) and self.xi > 0.0):
            raise ScenarioError("coupling rate must be finite and > 0")
        if not math.isfinite(self.detuning):
            raise ScenarioError("detuning must be finite")
        for mode, prep, cap in zip(("hot", "work", "cold"), self.preps, self.truncation.caps()):
            if prep.kind == "fock" and cap is not None and prep.n_fock > cap:
                raise ScenarioError(f"preps.{mode} is Fock n = {prep.n_fock}, above its "
                                    f"cap n_max_{mode[0]} = {cap}")
        # output files are named after the scenario, so it must be one file name
        if (not isinstance(self.name, str) or self.name in ("", ".", "..")
                or any(c in self.name for c in "/\\\0")):
            raise ScenarioError(f"name must be a nonempty file name without '/', '\\' "
                                f"or NUL, got {self.name!r}")


def _require(d: dict, key: str, where: str):
    if key not in d:
        raise ScenarioError(f"missing key {key!r} in {where}")
    return d[key]


def _object(value, where: str, allowed: Iterable[str] | None = None) -> dict:
    """``value`` as a JSON object holding no key outside ``allowed``, if given."""
    if not isinstance(value, dict):
        raise ScenarioError(f"{where} must be an object")
    unknown = set(value) - set(value if allowed is None else allowed)
    if unknown:
        raise ScenarioError(f"unknown key(s) in {where}: {sorted(unknown)}")
    return value


def _number(value, where: str) -> float:
    """A JSON number as a float; strings, booleans and null are rejected."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ScenarioError(f"{where} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:           # an integer beyond the float range
        raise ScenarioError(f"{where} is out of range") from None


def _integer(value, where: str) -> int:
    """A JSON integer; a float passes only when integral (4.0, not 2.7 or inf)."""
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ScenarioError(f"{where} must be an integer, got {value!r}")
    return value


def _numbers(value, where: str) -> tuple[float, ...]:
    if not isinstance(value, list):
        raise ScenarioError(f"{where} must be a list, got {value!r}")
    return tuple(_number(v, where) for v in value)


def _cap(value, where: str) -> int | None:
    """A truncation cap: an integer, or null for none."""
    return None if value is None else _integer(value, where)


def _prep_kind(value, where: str) -> str:
    if not isinstance(value, str) or value not in PREP_KINDS:
        raise ScenarioError(f"unknown preparation kind {value!r} in {where}")
    return value


def _section(value, where: str, table: dict, cls):
    """``cls`` built from the JSON object ``value`` by ``table``; an absent
    optional key is left out, so the dataclass default applies."""
    _object(value, where, table)
    fields = {}
    for key, (field, parse, unit, required) in table.items():
        if key in value:
            parsed = parse(value[key], f"{where}.{key}")
            fields[field] = parsed if unit is None else parsed * unit
        elif required:
            raise ScenarioError(f"missing key {key!r} in {where}")
    try:
        return cls(**fields)
    except DomainError as exc:
        raise ScenarioError(f"invalid {where}: {exc}") from exc


def _echo(obj, table: dict) -> dict:
    """The scenario-file object of ``obj``: every table row, back in file units."""
    return {key: getattr(obj, field) if unit is None else getattr(obj, field) / unit
            for key, (field, _, unit, _) in table.items()}


def _prep_from_dict(d, where: str) -> ModePrep:
    kind = _prep_kind(_require(_object(d, where), "kind", where), where)
    return _section(d, where, PREP_TABLES[kind], ModePrep)


def _prep_echo(prep: ModePrep) -> dict:
    return _echo(prep, PREP_TABLES[prep.kind])


#: section tables: file key -> (dataclass field, parser, unit or None, required)
TRAP_TABLE = {f"omega_{axis}_khz": (f"omega_{axis}", _number, _KHZ, True)
              for axis in "xyz"}

#: exactly one of the two keys, checked by the scenario parser
COUPLING_TABLE = {"xi_khz": ("xi", _number, _KHZ, False),
                  "trap": ("trap", partial(_section, table=TRAP_TABLE, cls=TrapConfig),
                           None, False)}

#: preparation kind -> its table, from PREP_KINDS and ModePrep's type hints
_PREP_PARSERS = {field: {str: _prep_kind, int: _integer, float: _number}[hint]
                 for field, hint in get_type_hints(ModePrep).items()}
PREP_TABLES = {kind: {key: (field, _PREP_PARSERS[field], None, True)
                      for key, field in {"kind": "kind", **params}.items()}
               for kind, (params, _, _) in PREP_KINDS.items()}

PREPS_TABLE = {mode: (mode, _prep_from_dict, None, True) for mode in ("hot", "work", "cold")}

TRUNCATION_TABLE = {"epsilon": ("epsilon", _number, None, False),
                    **{f"n_max_{m}": (f"n_max_{m}", _cap, None, False) for m in "hwc"}}

SIDEBAND_TABLE = {"omega_rabi_khz": ("omega_rabi", _number, _KHZ, True),
                  "t_rsb_us": ("t_rsb", _number, _US, True),
                  "a_bg": ("a_bg", _number, None, False),
                  "eta": ("eta", _number, None, False)}

SWEEP_TABLE = {key: (key, _numbers, None, False) for key in ("work_nbar", "cold_nbar")}

#: the {start, stop, num} form of time_grid_us: numpy.linspace's arguments in us
GRID_TABLE = {"start": ("start", _number, None, True), "stop": ("stop", _number, None, True),
              "num": ("num", _integer, None, True)}

#: optional top-level sections: Scenario field = file key -> (table, dataclass)
_SECTIONS = {"truncation": (TRUNCATION_TABLE, TruncationPolicy),
             "sideband": (SIDEBAND_TABLE, SidebandConfig),
             "sweep": (SWEEP_TABLE, SweepSpec)}


def _time_grid_from_json(value, where: str) -> np.ndarray:
    if isinstance(value, dict):
        grid = _section(value, where, GRID_TABLE, dict)
        if not 1 <= grid["num"] <= MAX_GRID_POINTS:
            raise ScenarioError(f"{where}.num must be >= 1 and <= MAX_GRID_POINTS = "
                                f"{MAX_GRID_POINTS}")
        return np.linspace(**grid) * _US
    if isinstance(value, list) and value:
        return np.array(_numbers(value, where)) * _US
    raise ScenarioError(f"{where} must be a nonempty list or a start/stop/num object")


def scenario_from_dict(data: dict, name: str = "scenario") -> Scenario:
    """Build a Scenario from parsed JSON, rejecting unknown keys."""
    if not isinstance(data, dict):
        raise ScenarioError("scenario must be a JSON object")
    _object(data, "scenario", ("schema_version", "name", "coupling", "detuning_khz",
                               "preps", "time_grid_us", *_SECTIONS))
    version = _require(data, "schema_version", "scenario")
    if version != SCHEMA_VERSION:
        raise ScenarioError(f"unsupported schema_version {version!r}")

    coupling = _section(_require(data, "coupling", "scenario"), "coupling",
                        COUPLING_TABLE, dict)
    if len(coupling) != 1:
        raise ScenarioError("coupling requires exactly one of xi_khz or trap")
    # a trap's coupling_rate emits CouplingFormulaWarning
    xi = coupling["xi"] if "xi" in coupling else coupling_rate(coupling["trap"]).xi
    preps = _section(_require(data, "preps", "scenario"), "preps", PREPS_TABLE, dict)

    fields = {"preps": tuple(preps.values()), "xi": xi, "name": data.get("name", name),
              "time_grid": _time_grid_from_json(_require(data, "time_grid_us", "scenario"),
                                                "time_grid_us")}
    for key, (table, cls) in _SECTIONS.items():
        if key in data:
            fields[key] = _section(data[key], key, table, cls)
    if "detuning_khz" in data:
        fields["detuning"] = _KHZ * _number(data["detuning_khz"], "detuning_khz")
    return Scenario(**fields)


def _read_json(path: Path):
    """A JSON file's content; malformed JSON or non-UTF-8 text is a ScenarioError."""
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ScenarioError(f"{path}: not valid JSON ({exc})") from exc


def load_scenario(path) -> Scenario:
    path = Path(path)
    return scenario_from_dict(_read_json(path), name=path.stem)


def load_trap(path) -> TrapConfig:
    """A trap file: one object with the keys of a scenario's ``coupling.trap``."""
    return _section(_read_json(Path(path)), "trap", TRAP_TABLE, TrapConfig)


def reference_scenario(setup: str = "z570", *, t_stop: float = 400e-6,
                       num: int = 161) -> Scenario:
    """Scenario ``reference_<setup>`` at one of the two reference operating points.

    Uses the setup's Hamiltonian-rate coupling (half the quoted exchange
    Rabi frequency, see :class:`~ionfridge.trap.ReferenceSetup`), the stock
    thermal preparation (0.66, 4.44, 2.63) and ``num`` times from 0 to
    ``t_stop``; :func:`with_prep` and ``dataclasses.replace`` vary the rest.
    """
    return Scenario(
        preps=tuple(ModePrep.thermal_state(nbar) for nbar in (0.66, 4.44, 2.63)),
        time_grid=np.linspace(0.0, t_stop, num),
        xi=REFERENCE_SETUPS[setup].xi_hamiltonian,
        name=f"reference_{setup}",
    )


def scenario_echo(s: Scenario) -> dict:
    """Compact, JSON-safe summary of a scenario, with its sideband and sweep
    sections when it has them; the grid appears as its start, stop and count."""
    echo = {
        "name": s.name,
        "xi_khz": s.xi / _KHZ,
        "detuning_khz": s.detuning / _KHZ,
        "preps": [_prep_echo(p) for p in s.preps],
        "t_start_us": float(s.time_grid[0]) * 1e6,
        "t_stop_us": float(s.time_grid[-1]) * 1e6,
        "n_times": int(s.time_grid.size),
        "epsilon": s.truncation.epsilon,
        "caps": list(s.truncation.caps()),
    }
    if s.sideband is not None:
        echo["sideband"] = _echo(s.sideband, SIDEBAND_TABLE)
    if s.sweep != SweepSpec():
        echo["sweep"] = _echo(s.sweep, SWEEP_TABLE)
    return echo


def with_thermal(s: Scenario, mode: str, nbar: float) -> Scenario:
    """Copy of ``s`` with one mode replaced by a thermal preparation."""
    return with_prep(s, mode, ModePrep.thermal_state(nbar))


def with_prep(s: Scenario, mode: str, prep: ModePrep) -> Scenario:
    """Copy of ``s`` with one mode (``hot``, ``work`` or ``cold``) replaced by ``prep``."""
    preps = list(s.preps)
    preps[list(PREPS_TABLE).index(mode)] = prep
    return dataclasses.replace(s, preps=tuple(preps))


# ---------------------------------------------------------------------------
# Core runs
# ---------------------------------------------------------------------------


def build_ensemble(s: Scenario) -> ThreeModeEnsemble:
    return assemble_initial(s.preps, s.truncation, s.xi, detuning=s.detuning)


def _base_metadata(s: Scenario, dataset: str, ensemble: ThreeModeEnsemble | None) -> dict:
    md = {
        "schema_version": SCHEMA_VERSION,
        "dataset": dataset,
        "scenario": scenario_echo(s),
        "constants": dataclasses.asdict(CODATA2014),
        "version": __version__,
    }
    if ensemble is not None:
        md["retained_weight"] = ensemble.retained_weight
        md["tail_mass"] = list(ensemble.tail_mass)
        md["n_sectors"] = len(ensemble.sectors)
    return md


@dataclass(eq=False)
class TrajectoryResult:
    """Occupation trajectories (and optional brightness) on the time grid."""

    tau: np.ndarray                 # s
    nbar: np.ndarray                # (3, T)
    p_up: np.ndarray | None         # (3, T) or None
    metadata: dict

    def to_csv(self, path) -> None:
        columns = ["tau_us", "nbar_h", "nbar_w", "nbar_c"]
        parts = [self.tau * 1e6, *self.nbar]
        if self.p_up is not None:
            columns += ["p_up_h", "p_up_w", "p_up_c"]
            parts += [*self.p_up]
        write_dataset_csv(path, columns, np.column_stack(parts), self.metadata)


def run_scenario(s: Scenario) -> TrajectoryResult:
    """Evolve the scenario on its time grid.

    Returns occupations per mode and, when a sideband configuration is
    present, the red-sideband brightness of each mode's marginal
    distribution, both divided by the retained weight (the steady states
    and the fig2-fig4 datasets are not).
    """
    ensemble = build_ensemble(s)
    spectrum = EnsembleSpectrum(ensemble)
    retained = ensemble.retained_weight
    nbar = spectrum.means_at(s.time_grid) / retained
    p_up = None
    if s.sideband is not None:
        p_up = np.array([[red_sideband_brightness(column / retained, s.sideband)
                          for column in marg.T]
                         for marg in spectrum.marginals_at(s.time_grid)])
    return TrajectoryResult(tau=s.time_grid.copy(), nbar=nbar, p_up=p_up,
                            metadata=_base_metadata(s, "trajectory", ensemble))


# ---------------------------------------------------------------------------
# Steady state
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SteadyStateRule:
    """How to extract steady-state occupations from a scenario."""

    method: str = "dephasing"
    #: window_average only; None picks the preset window for the scenario
    #: (600 us with a squeezed work mode, else 240 us).
    window_start: float | None = None

    def __post_init__(self):
        if self.method not in ("dephasing", "window_average"):
            raise DomainError(f"unknown steady-state method {self.method!r}")
        if self.window_start is not None and not 0.0 <= self.window_start < math.inf:
            raise DomainError("window_start must be finite and >= 0")

    @classmethod
    def parse(cls, text: str) -> "SteadyStateRule":
        """Parse a CLI rule string: ``dephasing``, ``window`` or ``window:<us>``."""
        if text == "dephasing":
            return cls(method="dephasing")
        if text == "window":
            return cls(method="window_average")
        if text.startswith("window:"):
            try:
                start_us = float(text.split(":", 1)[1])
            except ValueError:
                raise DomainError(f"bad window rule {text!r}") from None
            return cls(method="window_average", window_start=start_us * 1e-6)
        raise DomainError(f"unknown steady-state rule {text!r}")

    def start_for(self, s: "Scenario") -> float:
        if self.window_start is not None:
            return self.window_start
        squeezed = s.preps[1].kind == "squeezed_thermal" and s.preps[1].r > 0.0
        return WINDOW_SQUEEZED if squeezed else WINDOW_DEFAULT

    def occupations(self, spectrum: EnsembleSpectrum, s: "Scenario") -> OccupationTriple:
        """Steady-state occupations of ``spectrum``, the ensemble of ``s``, not
        divided by the retained weight: the dephased moments (the exact
        infinite-time average), or, mimicking the measurement procedure, the
        mean of ``means_at`` over the grid points with tau > the window start."""
        if self.method == "dephasing":
            return spectrum.dephased_moments()
        start = self.start_for(s)
        window = s.time_grid[s.time_grid > start]
        if not window.size:
            raise DomainError(f"no grid points after window_start = {start * 1e6:g} us")
        avg = spectrum.means_at(window).mean(axis=1)
        return OccupationTriple(*map(float, avg))


def steady_state(s: Scenario, rule: SteadyStateRule = SteadyStateRule()) -> OccupationTriple:
    """Steady-state occupations of a scenario under ``rule``, not divided by
    the retained weight (see :meth:`SteadyStateRule.occupations`)."""
    return rule.occupations(EnsembleSpectrum(build_ensemble(s)), s)


# ---------------------------------------------------------------------------
# Equilibrium sweep dataset
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EquilibriumCell:
    nbar_w: float
    nbar_c: float
    nbar_h_ss: float
    nbar_c_ss: float
    eps_h: float                    # nbar_h_in - nbar_h_ss
    retained_weight: float
    n_sectors: int


@dataclass(frozen=True)
class EquilibriumRow:
    nbar_w: float
    crossing: bool
    nc_eq_sim: float                # NaN when no crossing
    nc_eq_formula: float            # NaN when the balance has no solution


@dataclass(eq=False)
class EquilibriumSweep:
    cells: list[EquilibriumCell]
    rows: list[EquilibriumRow]
    metadata: dict

    def write(self, out_dir) -> list[Path]:
        out_dir = Path(out_dir)
        cells_path = out_dir / "fig2_cells.csv"
        rows_path = out_dir / "fig2_summary.csv"
        write_dataset_csv(
            cells_path,
            ["nbar_w_in", "nbar_c_in", "nbar_h_ss", "nbar_c_ss", "eps_h",
             "retained_weight", "n_sectors"],
            [[c.nbar_w, c.nbar_c, c.nbar_h_ss, c.nbar_c_ss, c.eps_h,
              c.retained_weight, c.n_sectors] for c in self.cells],
            self.metadata)
        write_dataset_csv(
            rows_path,
            ["nbar_w_in", "crossing", "nc_eq_sim", "nc_eq_formula"],
            [[r.nbar_w, int(r.crossing), r.nc_eq_sim, r.nc_eq_formula]
             for r in self.rows],
            self.metadata)
        return [cells_path, rows_path]


def fig2_dataset(base: Scenario, nbar_c_values: Sequence[float] | None = None,
                 nbar_w_values: Sequence[float] | None = None) -> EquilibriumSweep:
    """Hot-mode equilibration sweep.

    For each (work, cold) input occupation the hot-mode shift
    eps_h = nbar_h_in - nbar_h_ss is recorded; per work row the simulated
    equilibrium cold occupation (zero crossing of eps_h) is extracted and
    compared to the closed-form balance prediction.
    """
    nbar_c_values = list(nbar_c_values if nbar_c_values is not None
                         else base.sweep.cold_nbar)
    nbar_w_values = list(nbar_w_values if nbar_w_values is not None
                         else base.sweep.work_nbar)
    if not nbar_c_values or not nbar_w_values:
        raise ScenarioError("fig2 needs both work_nbar and cold_nbar sweeps")
    nbar_h_in = prep_mean(base.preps[0])

    cells: list[EquilibriumCell] = []
    rows: list[EquilibriumRow] = []
    for nw in nbar_w_values:
        points = []
        for nc in nbar_c_values:
            s = with_thermal(with_thermal(base, "work", nw), "cold", nc)
            ensemble = build_ensemble(s)
            mom = EnsembleSpectrum(ensemble).dephased_moments()
            eps_h = nbar_h_in - mom.nbar_h
            cells.append(EquilibriumCell(
                nbar_w=nw, nbar_c=nc, nbar_h_ss=mom.nbar_h, nbar_c_ss=mom.nbar_c,
                eps_h=eps_h, retained_weight=ensemble.retained_weight,
                n_sectors=len(ensemble.sectors)))
            points.append((nc, eps_h))

        signs = np.sign([e for _, e in points])
        crossing = bool(np.any(signs[:-1] * signs[1:] <= 0.0))
        nc_eq_sim = extract_equilibrium_nc(points) if crossing else math.nan
        try:
            nc_eq_formula = equilibrium_cold_occupation(nbar_h_in, nw)
        except DomainError:
            nc_eq_formula = math.nan
        rows.append(EquilibriumRow(nbar_w=nw, crossing=crossing,
                                   nc_eq_sim=nc_eq_sim, nc_eq_formula=nc_eq_formula))
    return EquilibriumSweep(cells=cells, rows=rows,
                            metadata=_base_metadata(base, "fig2", None))


# ---------------------------------------------------------------------------
# Relaxation dataset (thermal vs squeezed work mode)
# ---------------------------------------------------------------------------

#: (nbar_h, nbar_w, nbar_c) rows of the thermal relaxation study, with the
#: measured steady-state cold occupations for comparison columns
THERMAL_RELAXATION_ROWS = (
    (0.66, 4.44, 2.63, 2.11),
    (0.66, 2.16, 2.63, 2.58),
    (0.66, 1.10, 2.63, 2.53),
    (0.66, 0.67, 2.63, 2.61),
    (0.66, 0.37, 2.63, 2.70),
    (0.66, 0.19, 2.63, 2.92),
)

#: (nbar_h, nbar_w, r, nbar_c) rows of the squeezed-work study
SQUEEZED_RELAXATION_ROWS = (
    (0.47, 0.50, 1.34, 2.60, 2.26),
    (0.52, 0.50, 1.15, 2.72, 2.46),
    (0.52, 0.50, 0.77, 2.81, 2.76),
    (0.46, 0.50, 0.0, 3.01, 3.26),
)


@dataclass(frozen=True, eq=False)
class RelaxationTrace:
    label: str
    nbar_w_eff: float            # mean work occupation incl. squeezing energy
    nbar_c_in: float
    nbar_c_ss: float
    tau: np.ndarray
    nbar_c: np.ndarray
    measured_ss: float = math.nan


@dataclass(eq=False)
class RelaxationStudy:
    traces: list[RelaxationTrace]
    metadata: dict

    def write(self, out_dir) -> list[Path]:
        out_dir = Path(out_dir)
        traces_path = out_dir / "fig3_traces.csv"
        summary_path = out_dir / "fig3_summary.csv"
        rows = [[tr.label, t * 1e6, nc, nc - tr.nbar_c_ss]
                for tr in self.traces for t, nc in zip(tr.tau, tr.nbar_c)]
        write_dataset_csv(traces_path, ["label", "tau_us", "nbar_c", "delta_nbar_c"],
                          rows, self.metadata)
        write_dataset_csv(
            summary_path,
            ["label", "nbar_w_eff", "nbar_c_in", "nbar_c_ss", "delta_nc0",
             "measured_ss"],
            [[tr.label, tr.nbar_w_eff, tr.nbar_c_in, tr.nbar_c_ss,
              tr.nbar_c[0] - tr.nbar_c_ss, tr.measured_ss] for tr in self.traces],
            self.metadata)
        return [traces_path, summary_path]


def relaxation_scenarios(base: Scenario) -> list[tuple[Scenario, float]]:
    """The ten preset relaxation scenarios (6 thermal + 4 squeezed work).

    The squeezed-work rows were recorded at the weaker-coupling operating
    point, so those scenarios carry its Hamiltonian rate while the thermal
    rows inherit ``base.xi``.  (The dephased steady state is
    coupling-independent at zero detuning, so the rate only affects the
    trace time axis and windowed averages.)
    """
    out = []
    for nh, nw, nc, meas in THERMAL_RELAXATION_ROWS:
        s = with_thermal(with_thermal(with_thermal(base, "hot", nh), "work", nw),
                         "cold", nc)
        s = dataclasses.replace(s, name=f"thermal_nw{nw:g}")
        out.append((s, meas))
    for nh, nw, r, nc, meas in SQUEEZED_RELAXATION_ROWS:
        s = with_thermal(with_thermal(base, "hot", nh), "cold", nc)
        s = with_prep(s, "work", ModePrep.squeezed_thermal_state(nw, r))
        s = dataclasses.replace(s, name=f"squeezed_r{r:g}",
                                xi=REFERENCE_SETUPS["z425"].xi_hamiltonian)
        out.append((s, meas))
    return out


def fig3_dataset(base: Scenario,
                 scenarios: Sequence[tuple[Scenario, float]] | None = None,
                 rule: SteadyStateRule = SteadyStateRule()) -> RelaxationStudy:
    """Cold-mode relaxation traces relative to the steady state.

    Runs the preset scenarios of :func:`relaxation_scenarios` (or
    caller-supplied ones) on the base scenario's grid and truncation.  The
    six thermal presets keep the base coupling; the four squeezed-work
    presets run at z425's Hamiltonian rate, where they were recorded.
    Each delta subtracts two means of one truncated ensemble, not a
    truncated mean from the preparation's; ``nbar_c_in`` stays the
    preparation's mean.
    """
    if scenarios is None:
        scenarios = relaxation_scenarios(base)
    traces = []
    for s, measured in scenarios:
        spectrum = EnsembleSpectrum(build_ensemble(s))
        traces.append(RelaxationTrace(
            label=s.name, nbar_w_eff=prep_mean(s.preps[1]), nbar_c_in=prep_mean(s.preps[2]),
            nbar_c_ss=rule.occupations(spectrum, s).nbar_c, tau=s.time_grid.copy(),
            nbar_c=spectrum.means_at(s.time_grid)[2], measured_ss=measured))
    return RelaxationStudy(traces=traces, metadata=dict(
        _base_metadata(base, "fig3", None),
        deltas="delta_nbar_c = nbar_c - nbar_c_ss and delta_nc0 = nbar_c at the first grid "
               "time - nbar_c_ss, both ends from one truncated ensemble"))


# ---------------------------------------------------------------------------
# Single-shot dataset
# ---------------------------------------------------------------------------

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0
TAU_STAR_RESOLUTION = 0.1e-6     # s


def _golden_minimum(f, a: float, b: float, tol: float) -> float:
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    fc, fd = f(c), f(d)
    while (b - a) > tol:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - _INVPHI * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INVPHI * (b - a)
            fd = f(d)
    return 0.5 * (a + b)


@dataclass(frozen=True)
class SingleShotPoint:
    nbar_w: float
    tau_star: float                 # s
    nbar_c_min: float
    delta_single_shot: float        # nbar_c(first grid time) - nbar_c(tau*), one ensemble
    delta_dephased: float           # nbar_c_in - dephased steady state
    delta_classical: float          # exchange-balance equilibrium benchmark; NaN where an
                                    # occupation is 0 (T = 0: ln(1 + 1/nbar) diverges)
    nbar_c_min_incoherent: float = math.nan


@dataclass(eq=False)
class SingleShotStudy:
    points: list[SingleShotPoint]
    metadata: dict

    def write(self, out_dir) -> list[Path]:
        out_dir = Path(out_dir)
        path = out_dir / "fig4_summary.csv"
        write_dataset_csv(
            path,
            ["nbar_w_in", "tau_star_us", "nbar_c_min", "delta_single_shot",
             "delta_dephased", "delta_classical", "nbar_c_min_incoherent"],
            [[p.nbar_w, p.tau_star * 1e6, p.nbar_c_min, p.delta_single_shot,
              p.delta_dephased, p.delta_classical, p.nbar_c_min_incoherent]
             for p in self.points],
            self.metadata)
        return [path]


def single_shot_point(s: Scenario, include_incoherent: bool = False) -> SingleShotPoint:
    """Transient cold-mode minimum of one scenario vs the two benchmarks.

    ``tau_star`` is the golden-section minimum in the grid steps around the
    grid's lowest point, or that grid point where it is lower (at t = 0
    where the cold mode only heats).  ``delta_single_shot`` subtracts the
    minimum from the grid's first value, both means of the one truncated
    ensemble, so where the cold mode only heats it is 0.
    ``delta_dephased`` subtracts the dephased mean from the preparation's.
    ``delta_classical`` is -:func:`~ionfridge.benchmarks.equilibrium_shift`
    of the preparations' means, NaN where one of them is 0.
    """
    grid = s.time_grid
    if grid.size < 3:
        raise ScenarioError("single-shot search needs >= 3 grid points")
    spans = np.diff(grid)
    if spans.max() > 5.000001e-6:
        raise ScenarioError("single-shot grid must be <= 5 us spaced")

    ensemble = build_ensemble(s)
    spectrum = EnsembleSpectrum(ensemble)
    nc = spectrum.means_at(grid)[2]

    def nc_at(t: float) -> float:
        return float(spectrum.means_at(np.array([t]))[2, 0])

    i = int(np.argmin(nc))
    lo = grid[max(i - 1, 0)]
    hi = grid[min(i + 1, grid.size - 1)]
    tau_star = _golden_minimum(nc_at, lo, hi, TAU_STAR_RESOLUTION)
    nbar_c_min = nc_at(tau_star)
    if nc[i] < nbar_c_min:          # the search never evaluates its bracket's ends
        tau_star, nbar_c_min = float(grid[i]), float(nc[i])

    occ = OccupationTriple(*(prep_mean(p) for p in s.preps))
    delta_dephased = occ.nbar_c - spectrum.dephased_moments().nbar_c
    try:
        delta_classical = -equilibrium_shift(occ)
    except DomainError:             # an occupation is 0
        delta_classical = math.nan

    nc_min_inc = math.nan
    if include_incoherent:
        xi_in = default_incoherence_strength(spectrum)
        nc_inc = spectrum.incoherent_means_at(grid, xi_in)[2]
        nc_min_inc = float(nc_inc.min())
    return SingleShotPoint(
        nbar_w=prep_mean(s.preps[1]), tau_star=tau_star, nbar_c_min=nbar_c_min,
        delta_single_shot=float(nc[0]) - nbar_c_min, delta_dephased=delta_dephased,
        delta_classical=delta_classical, nbar_c_min_incoherent=nc_min_inc)


def fig4_dataset(base: Scenario, nbar_w_values: Sequence[float] | None = None) -> SingleShotStudy:
    """Single-shot cooling summary, incoherent twin included, over a work-mode sweep."""
    nbar_w_values = list(nbar_w_values if nbar_w_values is not None
                         else base.sweep.work_nbar)
    if not nbar_w_values:
        raise ScenarioError("fig4 needs a work_nbar sweep")
    points = [single_shot_point(with_thermal(base, "work", nw), include_incoherent=True)
              for nw in nbar_w_values]
    return SingleShotStudy(points=points, metadata=dict(
        _base_metadata(base, "fig4", None),
        deltas="delta_single_shot = nbar_c at the first grid time - nbar_c_min, both from one "
               "truncated ensemble; delta_dephased = the cold preparation's mean - the "
               "dephased nbar_c"))


# ---------------------------------------------------------------------------
# CSV writing
# ---------------------------------------------------------------------------


def write_dataset_csv(path, columns: Sequence[str], rows, metadata: dict) -> None:
    """Write a dataset CSV: one ``# `` JSON metadata line, header, rows.

    Strings (labels) pass through; every other value is emitted with 12
    significant digits.  Output is deterministic (sorted metadata keys, LF
    endings, no timestamps).  A row whose length is not the header's is a
    ValidationError naming it, raised before the file is opened.
    """
    path, rows = Path(path), list(rows)
    for i, row in enumerate(rows):
        if len(row) != len(columns):
            raise ValidationError(f"{path}: rows[{i}] has {len(row)} cells, the header "
                                  f"{len(columns)}")
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("# " + json.dumps(metadata, sort_keys=True,
                                   separators=(",", ":")) + "\n")
        fh.write(",".join(columns) + "\n")
        for row in rows:
            fh.write(",".join(v if isinstance(v, str) else f"{float(v):.12g}"
                              for v in row) + "\n")


def read_dataset_csv(path) -> tuple[dict, list[str], np.ndarray]:
    """Read back a dataset CSV written by :func:`write_dataset_csv`: a float
    array, or an object array with string labels if a cell is not a number.
    A malformed file is a ScenarioError naming the file and the line."""
    try:
        lines = Path(path).read_text(encoding="utf-8").splitlines()
    except UnicodeDecodeError as exc:
        raise ScenarioError(f"{path}: not UTF-8 text ({exc})") from exc
    if not lines or not lines[0].startswith("# "):
        raise ScenarioError(f"{path}: missing metadata line")
    try:
        metadata = json.loads(lines[0][2:])
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"{path}: line 1: metadata is not valid JSON ({exc})") from exc
    if not isinstance(metadata, dict):
        raise ScenarioError(f"{path}: line 1: metadata is not a JSON object")
    if len(lines) < 2:
        raise ScenarioError(f"{path}: line 2: missing column header")
    columns = lines[1].split(",")
    rows = {number: line.split(",") for number, line in enumerate(lines[2:], start=3) if line}
    for number, cells in rows.items():
        if len(cells) != len(columns):
            raise ScenarioError(f"{path}: line {number}: {len(cells)} cells, "
                                f"expected {len(columns)}")
    data = np.array([[_number_or_text(v) for v in cells] for cells in rows.values()],
                    dtype=object)
    labelled = any(isinstance(v, str) for v in data.flat)
    return metadata, columns, data if labelled else data.astype(float)


def _number_or_text(cell: str) -> float | str:
    try:
        return float(cell)
    except ValueError:
        return cell
