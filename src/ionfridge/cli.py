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

Flags, each given only to the subcommands that read it: ``--out``
(output directory; overrides $IONFRIDGE_OUT) on simulate, fig2, fig3 and
fig4; ``--epsilon`` (truncation weight budget) on those four and
steady-state; ``--rule`` (``dephasing``, ``window`` or ``window:<us>``) on
fig3 and steady-state.  Any other flag is a usage error (exit 2).

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
from .trap import coupling_rate, equilibrium_spacing, mode_frequencies

TWO_PI = 2.0 * math.pi

#: oracle-check settings: thermal occupations, per-mode cap, coupling, grid
_ORACLE_NBARS = (0.3, 0.5, 0.4)
_ORACLE_CAP = 6
_ORACLE_XI = TWO_PI * 2.64e3
_ORACLE_TOL = 1e-9


def _build_parser() -> argparse.ArgumentParser:
    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--out", default=None,
                     help="output directory (default: $IONFRIDGE_OUT or cwd)")
    epsilon = argparse.ArgumentParser(add_help=False)
    epsilon.add_argument("--epsilon", type=float, default=None,
                         help="override the truncation weight budget")
    rule = argparse.ArgumentParser(add_help=False)
    rule.add_argument("--rule", default="dephasing",
                      help="steady-state rule: dephasing, window or window:<us>")

    parser = argparse.ArgumentParser(
        prog="ionfridge",
        description="three-mode trapped-ion absorption refrigerator simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    for name, parents, help_text in (
        ("simulate", [out, epsilon], "run a scenario and write the trajectory CSV"),
        ("fig2", [out, epsilon], "hot-mode equilibration sweep"),
        ("fig3", [out, epsilon, rule],
         "cold-mode relaxation study (thermal and squeezed work mode)"),
        ("fig4", [out, epsilon], "single-shot cooling summary over a work-mode sweep"),
        ("steady-state", [epsilon, rule], "print steady-state occupations of a scenario"),
    ):
        p = sub.add_parser(name, parents=parents, help=help_text)
        p.add_argument("scenario", help="scenario JSON file")

    sub.add_parser("oracle-check",
                   help="compare the sector method against the dense oracle")

    p_fit = sub.add_parser("fit", help="fit a flopping model to t_us,p_up,sigma data")
    p_fit.add_argument("data", help="CSV file with header t_us,p_up,sigma")
    p_fit.add_argument("--model", required=True,
                       choices=sorted(name.replace("_", "-") for name in FIT_MODELS))

    p_cpl = sub.add_parser("coupling",
                           help="mode frequencies and coupling from a trap config")
    p_cpl.add_argument("--trap", required=True,
                       help="JSON file with omega_x_khz, omega_y_khz, omega_z_khz")
    return parser


def _out_dir(args) -> Path:
    out = args.out or os.environ.get("IONFRIDGE_OUT") or "."
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _load(args) -> Scenario:
    s = load_scenario(args.scenario)
    if args.epsilon is not None:
        s = dataclasses.replace(s, truncation=dataclasses.replace(
            s.truncation, epsilon=args.epsilon))
    return s


def _cmd_simulate(args) -> int:
    s = _load(args)
    result = run_scenario(s)
    path = _out_dir(args) / f"{s.name}_trajectory.csv"
    result.to_csv(path)
    print(f"wrote {path} ({result.tau.size} rows, "
          f"retained weight {result.metadata['retained_weight']:.6f})")
    return 0


def _cmd_fig2(args) -> int:
    s = _load(args)
    for path in fig2_dataset(s).write(_out_dir(args)):
        print(f"wrote {path}")
    return 0


def _cmd_fig3(args) -> int:
    s = _load(args)
    rule = SteadyStateRule.parse(args.rule)
    for path in fig3_dataset(s, rule=rule).write(_out_dir(args)):
        print(f"wrote {path}")
    return 0


def _cmd_fig4(args) -> int:
    s = _load(args)
    for path in fig4_dataset(s).write(_out_dir(args)):
        print(f"wrote {path}")
    return 0


def _cmd_steady_state(args) -> int:
    s = _load(args)
    rule = SteadyStateRule.parse(args.rule)
    occ = steady_state(s, rule)
    print(f"nbar_h={occ.nbar_h:.12g} nbar_w={occ.nbar_w:.12g} "
          f"nbar_c={occ.nbar_c:.12g}")
    return 0


def _cmd_oracle_check(args) -> int:
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


def _cmd_fit(args) -> int:
    samples = load_brightness_csv(args.data)
    result = fit_distribution(samples, args.model.replace("-", "_"))
    print(f"model: {args.model}  ({len(samples)} samples, {result.n_iter} iterations, "
          f"rank {result.rank}, condition number {result.cond:.3g})")
    for name, value in result.params.items():
        err = result.errors.get(name, math.nan)
        print(f"  {name} = {value:.6g} +/- {err:.2g}")
    if result.model == "free" and result.populations is not None:
        pops = " ".join(f"{p:.4f}" for p in result.populations)
        print(f"  p(n), n=0..{result.populations.size - 1}: {pops}")
    print(f"  reduced_chi2 = {result.reduced_chi2:.4g}")
    return 0


def _cmd_coupling(args) -> int:
    trap = load_trap(args.trap)
    freqs = mode_frequencies(trap)
    spacing = equilibrium_spacing(trap)
    rate = coupling_rate(trap)
    print(f"omega_h/2pi = {freqs.omega_h / TWO_PI / 1e3:.6g} kHz")
    print(f"omega_w/2pi = {freqs.omega_w / TWO_PI / 1e3:.6g} kHz")
    print(f"omega_c/2pi = {freqs.omega_c / TWO_PI / 1e3:.6g} kHz")
    print(f"resonance residual = {freqs.residual / TWO_PI / 1e3:.4g} kHz")
    print(f"ion spacing = {spacing * 1e6:.6g} um")
    print(f"xi/2pi = {rate.xi / TWO_PI / 1e3:.6g} kHz (geometric formula)")
    return 0


_COMMANDS = {
    "simulate": _cmd_simulate,
    "fig2": _cmd_fig2,
    "fig3": _cmd_fig3,
    "fig4": _cmd_fig4,
    "steady-state": _cmd_steady_state,
    "oracle-check": _cmd_oracle_check,
    "fit": _cmd_fit,
    "coupling": _cmd_coupling,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericsError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":          # pragma: no cover
    sys.exit(main())
