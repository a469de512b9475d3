"""Per-layer spans for the benchmark's traced run.

The tracer wraps public ionfridge functions and methods at run time, in
every ``ionfridge`` module namespace that holds them, so calls made from
inside the package are recorded too.  Each span stores its group (a layer
or a named part of one), start, end, parent span and op id; work counts
derived from argument and result shapes are recorded at the same boundary.
The time spent deriving those counts is excluded from the enclosing span's
self time.  Nothing in the package is modified on disk, and
:meth:`Tracer.uninstall` puts every original back.
"""

from __future__ import annotations

import functools
import os
import sys
import time
import warnings
import weakref

import numpy as np

# group -> (module, public names); "Class.method" patches the class itself
TARGETS = {
    "trap": ("trap", ("coupling_rate", "mode_frequencies", "equilibrium_spacing",
                      "mode_temperature", "cooling_power_per_mass")),
    "states": ("states", ("thermal_distribution", "coherent_distribution",
                          "squeezed_vacuum_distribution", "squeezed_number_distribution",
                          "squeezed_thermal_distribution", "prep_to_distribution")),
    "fockspace": ("fockspace", ("select_sectors", "enumerate_sector")),
    "dynamics.assemble": ("dynamics", ("assemble_initial", "assemble_from_distributions")),
    "dynamics.spectrum": ("dynamics", ("EnsembleSpectrum.__init__",)),
    "dynamics.grid": ("dynamics", ("EnsembleSpectrum.marginals_at",
                                   "EnsembleSpectrum.means_at")),
    "dynamics.dephased": ("dynamics", ("EnsembleSpectrum.dephased_moments",)),
    "dynamics.incoherent": ("dynamics", ("EnsembleSpectrum.incoherent_means_at",
                                         "default_incoherence_strength")),
    "benchmarks": ("benchmarks", ("equilibrium_cold_occupation", "cooling_condition",
                                  "equilibrium_shift", "extract_equilibrium_nc",
                                  "cooling_report", "entropy_flow")),
    "measurement.fit": ("measurement", ("fit_distribution",)),
    "measurement.lm": ("measurement", ("damped_least_squares",)),
    "measurement.forward": ("measurement", ("blue_sideband_flopping",
                                            "red_sideband_brightness",
                                            "synthetic_brightness")),
    "measurement.estimator": ("measurement", ("estimate_nbar",)),
    "experiments": ("experiments", ("run_scenario", "steady_state", "build_ensemble",
                                    "single_shot_point", "fig2_dataset", "fig3_dataset",
                                    "fig4_dataset")),
    "experiments.scenario": ("experiments", ("scenario_from_dict", "load_scenario",
                                             "reference_scenario", "relaxation_scenarios",
                                             "with_thermal", "with_prep")),
    "experiments.csv": ("experiments", ("write_dataset_csv", "TrajectoryResult.to_csv",
                                        "RelaxationStudy.write", "EquilibriumSweep.write",
                                        "SingleShotStudy.write")),
    "oracle": ("oracle", ("dense_oracle_evolve",)),
}

# span record fields
GROUP, START, END, PARENT, OP, EXCLUDED, COUNTS = range(7)


def _candidate_sectors(dists) -> int:
    """(N, M) cells whose joint weight passes the selection floor.

    Mirrors the weight grid :func:`ionfridge.fockspace.select_sectors`
    builds; it is evaluated after the traced phase, never inside a span.
    """
    from ionfridge.fockspace import WEIGHT_FLOOR
    ph, pw, pc = (d.p for d in dists)
    grid = np.zeros((ph.size + pw.size - 1, ph.size + pc.size - 1))
    for k, weight_k in enumerate(ph):
        if weight_k >= WEIGHT_FLOOR:
            grid[k:k + pw.size, k:k + pc.size] += weight_k * np.outer(pw, pc)
    return int(np.count_nonzero(grid >= WEIGHT_FLOOR))


class Tracer:
    """Span recorder: install the wrappers, run ops, then aggregate."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op = None
        self._patched: list[tuple[object, str, object]] = []
        self._shapes: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()
        # group or function name -> counter(args, kwargs, result) -> dict
        self._counters = {
            "states": self._count_states,
            "select_sectors": self._count_fockspace,
            "dynamics.assemble": self._count_assemble,
            "dynamics.spectrum": self._count_spectrum,
            "dynamics.grid": self._count_grid,
            "measurement.lm": self._count_lm,
            "write_dataset_csv": lambda args, kwargs, result: self._csv_bytes([args[0]]),
            "TrajectoryResult.to_csv": lambda args, kwargs, result: self._csv_bytes([args[1]]),
            "RelaxationStudy.write": lambda args, kwargs, result: self._csv_bytes(result),
            "EquilibriumSweep.write": lambda args, kwargs, result: self._csv_bytes(result),
            "SingleShotStudy.write": lambda args, kwargs, result: self._csv_bytes(result),
        }

    # -- installation -------------------------------------------------------

    def install(self, *callers) -> None:
        """Wrap the targets in every ionfridge module and in ``callers``."""
        modules = [m for name, m in sys.modules.items()
                   if m is not None and (name == "ionfridge" or name.startswith("ionfridge."))]
        modules += callers
        for group, (module, names) in TARGETS.items():
            home = sys.modules[f"ionfridge.{module}"]
            for name in names:
                counter = self._counters.get(name, self._counters.get(group))
                if "." in name:
                    cls_name, attr = name.split(".")
                    cls = getattr(home, cls_name)
                    self._patch(cls, attr, self._wrap(vars(cls)[attr], group, counter))
                    continue
                original = getattr(home, name)
                wrapper = self._wrap(original, group, counter)
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._patch(mod, key, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def _patch(self, owner, attr, wrapper) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _wrap(self, fn, group, counter):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            entry = parent < 0 or spans[parent][GROUP] != group
            rec = [group, 0.0, 0.0, parent, self.op, 0.0, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[END] = clock()
                stack.pop()
            if counter is not None and entry:
                rec[COUNTS] = counter(args, kwargs, result)
                if parent >= 0:
                    spans[parent][EXCLUDED] += clock() - rec[END]
            return result

        return wrapper

    # -- counts derived from shapes, taken when a call enters its group -------

    @staticmethod
    def _count_states(args, kwargs, result):
        return {"ladder_entries": int(result.p.size)}

    @staticmethod
    def _count_fockspace(args, kwargs, result):
        return {"kept_sectors": len(result.labels), "_inputs": args[:3]}

    @staticmethod
    def _count_assemble(args, kwargs, result):
        return {"sectors": len(result.sectors)}

    def _count_spectrum(self, args, kwargs, result):
        spectrum = args[0]
        dims = [lam.size for lam, _, _ in spectrum.eig]
        self._shapes[spectrum] = (sum(dims), sum(d * d for d in dims))
        return {"sum_dim": self._shapes[spectrum][0]}

    def _count_grid(self, args, kwargs, result):
        spectrum, t_grid = args[0], (args[1] if len(args) > 1 else kwargs["t_grid"])
        if spectrum not in self._shapes:
            self._count_spectrum((spectrum,), {}, None)
        points = int(np.size(t_grid))
        return {"points": points, "terms": points * self._shapes[spectrum][1],
                "small_calls": int(points <= 1)}

    @staticmethod
    def _count_lm(args, kwargs, result):
        return {"iterations": result.n_iter, "accepted": len(result.cost_history) - 1}

    @staticmethod
    def _csv_bytes(paths):
        return {"bytes": sum(os.path.getsize(p) for p in paths)}

    # -- warnings -----------------------------------------------------------

    def layer_of_open_span(self) -> str | None:
        return self.spans[self.stack[-1]][GROUP].split(".")[0] if self.stack else None

    # -- aggregation --------------------------------------------------------

    def op_counts(self) -> dict:
        """Computed counts and entry calls per op id, for repeat checks."""
        out: dict = {}
        for rec, entry in zip(self.spans, self._entries()):
            per_op = out.setdefault(rec[OP], {})
            if entry:
                key = f"{rec[GROUP]}.calls"
                per_op[key] = per_op.get(key, 0) + 1
            for name, value in (rec[COUNTS] or {}).items():
                if not name.startswith("_"):
                    key = f"{rec[GROUP]}.{name}"
                    per_op[key] = per_op.get(key, 0) + value
        return out

    def _entries(self) -> list[bool]:
        """A span enters its group when its parent is in another group."""
        spans = self.spans
        return [rec[PARENT] < 0 or spans[rec[PARENT]][GROUP] != rec[GROUP] for rec in spans]

    def group_totals(self) -> dict[str, dict[str, float]]:
        spans = self.spans
        child_time = [0.0] * len(spans)
        for rec in spans:
            if rec[PARENT] >= 0:
                child_time[rec[PARENT]] += rec[END] - rec[START]
        totals: dict[str, dict[str, float]] = {}
        candidates = 0
        for i, (rec, entry) in enumerate(zip(spans, self._entries())):
            t = totals.setdefault(rec[GROUP], {"calls": 0, "self_s": 0.0})
            t["self_s"] += rec[END] - rec[START] - child_time[i] - rec[EXCLUDED]
            if entry:
                t["calls"] += 1
            for name, value in (rec[COUNTS] or {}).items():
                if name == "_inputs":
                    candidates += _candidate_sectors(value)
                else:
                    t[name] = t.get(name, 0) + value
        totals.setdefault("fockspace", {"calls": 0, "self_s": 0.0})["candidate_sectors"] = candidates
        return totals


class WarningCounter:
    """Counts every warning while showing each distinct message once.

    The ``always`` filter makes repeated warnings reach the counter instead
    of being dropped by the per-location registry; it is set identically for
    untraced and traced runs.
    """

    def __init__(self):
        self.total = 0
        self.by_layer: dict[str, int] = {}
        self.tracer: Tracer | None = None
        self._seen: set = set()
        self._show = warnings.showwarning

    def __enter__(self):
        self._catcher = warnings.catch_warnings()
        self._catcher.__enter__()
        warnings.simplefilter("always")
        warnings.showwarning = self._record
        return self

    def __exit__(self, *exc):
        self._catcher.__exit__(*exc)

    def _record(self, message, category, filename, lineno, file=None, line=None):
        self.total += 1
        layer = self.tracer.layer_of_open_span() if self.tracer is not None else None
        if layer is not None:
            self.by_layer[layer] = self.by_layer.get(layer, 0) + 1
        key = (category, str(message))
        if key not in self._seen:
            self._seen.add(key)
            self._show(message, category, filename, lineno, file, line)
