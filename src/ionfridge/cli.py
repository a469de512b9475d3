"""Command-line interface.

Subcommands::

    ionfridge simulate <scenario.json>         trajectory CSV
    ionfridge fig2 <scenario.json>             equilibration sweep CSVs
    ionfridge fig3 <scenario.json>             relaxation study CSVs
    ionfridge fig4 <scenario.json>             single-shot summary CSV
    ionfridge steady-state <scenario.json>     print steady-state occupations
    ionfridge oracle-check                     sector method vs dense oracle
    ionfridge fit <data.csv> --model <name>    sideband-flopping fit
    ionfridge coupling --trap <trap.json>      mode frequencies and coupling

Every subcommand is one row of ``_COMMANDS``: the arguments it reads (their
``add_argument`` keywords are ``_ARGS``), its help text and its handler.  A
flag goes only to the subcommands that read it: ``--out`` (output directory;
overrides $IONFRIDGE_OUT) on simulate, fig2, fig3 and fig4; ``--epsilon``
(truncation weight budget) on those four and steady-state; ``--rule``
(``dephasing``, ``window`` or ``window:<us>``) on fig3 and steady-state.
Any other flag is a usage error (exit 2).  The five scenario subcommands
share one handler, which creates the ``--out`` directory before the study
runs, so an unusable output path fails at once.

Exit codes: 0 success, 2 validation/configuration error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import os
import sys
from pathlib import Path

import numpy as np

from .dynamics import EnsembleSpectrum, assemble_initial
from .errors import NumericsError, ValidationError
from .experiments import (Scenario, SteadyStateRule, fig2_dataset, fig3_dataset,
                          fig4_dataset, load_scenario, load_trap, run_scenario,
                          steady_state)
from .fockspace import TruncationPolicy
from .measurement import FIT_MODELS, fit_distribution, load_brightness_csv
from .oracle import dense_oracle_evolve
from .states import ModePrep
from .trap import coupling_rate, mode_frequencies

#: oracle-check settings: thermal occupations, per-mode cap, coupling, grid
_ORACLE_NBARS = (0.3, 0.5, 0.4)
_ORACLE_CAP = 6
_ORACLE_XI = math.tau * 2.64e3
_ORACLE_TOL = 1e-9


#: argument -> add_argument keywords; each row of _COMMANDS names the ones it reads
_ARGS = {
    "--out": {"help": "output directory (default: $IONFRIDGE_OUT or cwd)"},
    "--epsilon": {"type": float, "help": "override the truncation weight budget"},
    "--rule": {"default": "dephasing",
               "help": "steady-state rule: dephasing, window or window:<us>"},
    "scenario": {"help": "scenario JSON file"},
    "data": {"help": "CSV file with header t_us,p_up,sigma"},
    "--model": {"required": True,
                "choices": sorted(name.replace("_", "-") for name in FIT_MODELS)},
    "--trap": {"required": True, "help": "JSON file with omega_x_khz, omega_y_khz, omega_z_khz"},
}


def _out_dir(args) -> Path:
    path = Path(args.out or os.environ.get("IONFRIDGE_OUT") or ".")
    path.mkdir(parents=True, exist_ok=True)
    return path


def _scenario_command(study):
    """Handler that prints ``study(scenario, args, out)``: ``--epsilon`` applied,
    and the ``--out`` directory (None without the flag) made before it runs."""
    def handler(args) -> int:
        s = load_scenario(args.scenario)
        if args.epsilon is not None:
            s = dataclasses.replace(s, truncation=dataclasses.replace(
                s.truncation, epsilon=args.epsilon))
        print(study(s, args, _out_dir(args) if "out" in args else None))
        return 0
    return handler


def _simulate(s: Scenario, args, out: Path) -> str:
    result = run_scenario(s)
    path = out / f"{s.name}_trajectory.csv"
    result.to_csv(path)
    return (f"wrote {path} ({result.tau.size} rows, "
            f"retained weight {result.metadata['retained_weight']:.6f})")


def _steady_state(s: Scenario, args, out: None) -> str:
    occ = steady_state(s, SteadyStateRule.parse(args.rule))
    return f"nbar_h={occ.nbar_h:.12g} nbar_w={occ.nbar_w:.12g} nbar_c={occ.nbar_c:.12g}"


def _wrote(paths) -> str:
    return "\n".join(f"wrote {path}" for path in paths)


def _oracle_check(args) -> int:
    preps = tuple(ModePrep.thermal_state(v) for v in _ORACLE_NBARS)
    grid = np.linspace(0.0, 400e-6, 10)
    cap = _ORACLE_CAP
    policy = TruncationPolicy(epsilon=1e-12, n_max_h=cap, n_max_w=cap, n_max_c=cap)
    ensemble = assemble_initial(preps, policy, _ORACLE_XI)
    sector_means = EnsembleSpectrum(ensemble).means_at(grid)
    dense_means = dense_oracle_evolve(preps, _ORACLE_XI, grid, (cap, cap, cap))
    deviation = float(np.abs(sector_means - dense_means).max())
    ok = deviation < _ORACLE_TOL
    print(f"max |sector - dense| = {deviation:.3e} "
          f"(tolerance {_ORACLE_TOL:g}): {'PASS' if ok else 'FAIL'}")
    if not ok:
        raise NumericsError("sector method disagrees with the dense oracle")
    return 0


def _fit(args) -> int:
    samples = load_brightness_csv(args.data)
    result = fit_distribution(samples, args.model.replace("-", "_"))
    print(f"model: {args.model}  ({len(samples)} samples, {result.n_iter} iterations, "
          f"rank {result.rank}, condition number {result.cond:.3g})")
    for name, value in result.params.items():
        err = result.errors[name]
        if math.isinf(err):       # the value is wherever the solver stopped
            print(f"  {name} = unresolved")
        else:
            print(f"  {name} = {value:.6g} +/- {err:.2g}")
    if result.model == "free":
        pops = " ".join(f"{p:.4f}" for p in result.populations)
        print(f"  p(n), n=0..{result.populations.size - 1}: {pops}")
    print(f"  reduced_chi2 = {result.reduced_chi2:.4g}")
    return 0


def _coupling(args) -> int:
    trap = load_trap(args.trap)
    freqs = mode_frequencies(trap)
    rate = coupling_rate(trap)
    print(f"omega_h/2pi = {freqs.omega_h / math.tau / 1e3:.6g} kHz")
    print(f"omega_w/2pi = {freqs.omega_w / math.tau / 1e3:.6g} kHz")
    print(f"omega_c/2pi = {freqs.omega_c / math.tau / 1e3:.6g} kHz")
    print(f"resonance residual = {freqs.residual / math.tau / 1e3:.4g} kHz")
    print(f"ion spacing = {rate.x0 * 1e6:.6g} um")
    print(f"xi/2pi = {rate.xi / math.tau / 1e3:.6g} kHz (geometric formula)")
    return 0


#: subcommand -> (arguments it reads, help text, handler of the parsed arguments)
_COMMANDS = {
    "simulate": (("--out", "--epsilon", "scenario"),
                 "run a scenario and write the trajectory CSV", _scenario_command(_simulate)),
    "fig2": (("--out", "--epsilon", "scenario"), "hot-mode equilibration sweep",
             _scenario_command(lambda s, args, out: _wrote(fig2_dataset(s).write(out)))),
    "fig3": (("--out", "--epsilon", "--rule", "scenario"),
             "cold-mode relaxation study (thermal and squeezed work mode)",
             _scenario_command(lambda s, args, out: _wrote(
                 fig3_dataset(s, rule=SteadyStateRule.parse(args.rule)).write(out)))),
    "fig4": (("--out", "--epsilon", "scenario"),
             "single-shot cooling summary over a work-mode sweep",
             _scenario_command(lambda s, args, out: _wrote(fig4_dataset(s).write(out)))),
    "steady-state": (("--epsilon", "--rule", "scenario"),
                     "print steady-state occupations of a scenario",
                     _scenario_command(_steady_state)),
    "oracle-check": ((), "compare the sector method against the dense oracle", _oracle_check),
    "fit": (("data", "--model"), "fit a flopping model to t_us,p_up,sigma data", _fit),
    "coupling": (("--trap",), "mode frequencies and coupling from a trap config", _coupling),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ionfridge",
        description="three-mode trapped-ion absorption refrigerator simulator")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (arguments, help_text, _) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for argument in arguments:
            p.add_argument(argument, **_ARGS[argument])
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command][2](args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericsError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":          # pragma: no cover
    sys.exit(main())
