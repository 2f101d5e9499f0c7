"""Command-line front end: simulate, check, analyze."""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys

import numpy as np

from . import battery
from .engine import Scenario, _grid_step, check_configuration, run
from .errors import ProjdynError
from .kernel import build_projectors
from .loader import GAINS, RUN, load_scenario, regulator
from .model import assemble, pmp_eigenvalues
from .systems import get_system


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="projdyn",
        description="Projection-operator constrained-dynamics simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="integrate a scenario and dump the trace")
    sim.add_argument("--system", help="catalog system name")
    sim.add_argument("--scenario-file", help="JSON scenario description")
    sim.add_argument("--horizon", type=float, help=f"default {RUN['horizon']:g}")
    sim.add_argument("--dt", type=float, help=f"default {RUN['dt']:g}")
    sim.add_argument("--mu", help="virtual mass: positive number or 'auto'; "
                                  f"default {RUN['mu']}")
    sim.add_argument("--target", help="comma-separated q*: regulate to it")
    for gain, default in GAINS.items():
        sim.add_argument(f"--{gain}", type=float, help=f"default {default:g}, needs --target")
    sim.add_argument("--out", help="trace output path")
    sim.add_argument("--format", choices=["csv", "jsonl"], default="csv")

    chk = sub.add_parser("check", help="run the invariant property battery")
    chk.add_argument("--seed", type=int, default=0)
    chk.add_argument("--inject-fault", choices=battery.FAULTS, default=None,
                     help="deliberately break Cbar to self-test the harness")
    chk.add_argument("--report", help="write the JSON report here")

    ana = sub.add_parser("analyze", help="virtual-mass conditioning analysis")
    ana.add_argument("--system", required=True)
    ana.add_argument("--state", help="comma-separated q (defaults to the "
                                     "system's reference configuration)")
    ana.add_argument("--out", help="CSV output of the mu/cond sweep")
    return parser


def _parse_vector(text, n, what):
    """n finite floats from comma-separated text."""
    try:
        vals = np.array([float(v) for v in text.split(",")])
    except ValueError as exc:
        raise ValueError(f"{what} must be a list of numbers") from exc
    if vals.shape != (n,):
        raise ValueError(f"{what} must have {n} components, got {vals.size}")
    if not np.isfinite(vals).all():
        raise ValueError(f"{what} must be finite, got {text!r}")
    return vals


def _scenario_from_args(args) -> Scenario:
    if args.scenario_file:
        given = [f"--{key}" for key in ("system", "target", *GAINS, *RUN)
                 if getattr(args, key) is not None]
        if given:
            raise ValueError(f"{', '.join(given)} cannot be combined with --scenario-file; "
                             "set them in the file")
        with open(args.scenario_file) as fh:
            return load_scenario(json.load(fh))

    if not args.system:
        raise ValueError("either --system or --scenario-file is required")
    given = [f"--{key}" for key in GAINS if getattr(args, key) is not None]
    if given and args.target is None:
        raise ValueError(f"{', '.join(given)} set the regulator's gains and need --target")
    settings = _flags(args, RUN)
    if settings["mu"] != "auto":
        try:
            settings["mu"] = float(settings["mu"])
        except ValueError:
            raise ValueError("--mu must be a positive number or 'auto', "
                             f"got {settings['mu']!r}") from None
    system = get_system(args.system)
    q0, qdot0 = system.default_state
    controller = None
    if args.target is not None:
        gains = _flags(args, GAINS)
        for key, value in gains.items():
            if not math.isfinite(value):
                raise ValueError(f"--{key} must be a finite number, got {value!r}")
        controller = regulator(system, _parse_vector(args.target, system.n, "--target"),
                               *gains.values())
    sc = Scenario(system=system, q0=q0, qdot0=qdot0, controller=controller,
                  initial_active=system.default_initial_active, **settings)
    last = _grid_step(sc.horizon, sc.dt)[0]   # catalog defaults on later steps: not asked for
    return dataclasses.replace(sc, events=tuple(
        e for e in system.default_events if _grid_step(e[0], sc.dt)[0] <= last))


def _flags(args, defaults) -> dict:
    """The values of the flags named by the keys of defaults, each flag not
    given taking its default."""
    return {key: default if (v := getattr(args, key)) is None else v
            for key, default in defaults.items()}


def cmd_simulate(args) -> int:
    scenario = _scenario_from_args(args)
    trace = run(scenario)
    if args.out:
        if args.format == "csv":
            trace.to_csv(args.out)
        else:
            trace.to_jsonl(args.out)
    loss = sum(ev["energy_drop"] for ev in trace.events)   # removed on purpose, not drift
    e0, e1 = trace.energy[0], trace.energy[-1]
    denom = abs(e0) if abs(e0) > 1e-12 else 1.0
    print(f"system: {scenario.system.name}")
    print(f"steps: {len(trace.t) - 1}  horizon: {trace.t[-1]:g} s")
    print(f"energy drift: {abs(e1 + loss - e0) / denom:.3e} (relative)")
    if trace.events:
        print(f"capture loss: {loss:.3e}")
    print(f"final drift |A qdot|: {trace.drift[-1]:.3e}")
    if scenario.controller is not None:
        e_final = np.linalg.norm(trace.q[-1] - scenario.controller.q_star)
        print(f"final position error: {e_final:.3e}, "
              f"final speed: {np.linalg.norm(trace.qdot[-1]):.3e}")
    for ev in trace.events:
        print(f"event t={ev['time']:g}: rank {ev['rank_before']} -> "
              f"{ev['rank_after']}, energy drop {ev['energy_drop']:.3e}")
    if not trace.events:
        print("rank events: none")
    if args.out:
        print(f"trace written to {args.out} ({args.format})")
    return 0


def cmd_check(args) -> int:
    if args.seed < 0:
        raise ValueError(f"--seed must be a non-negative integer, got {args.seed}")
    report = battery.run_battery(seed=args.seed, fault=args.inject_fault)
    for c in report["checks"]:
        status = "PASS" if c["passed"] else "FAIL"
        print(f"{status}  {c['name']}: max residual {c['max_residual']:.3e} "
              f"(tol {c['tolerance']:.1e})")
    if args.report:
        with open(args.report, "w") as fh:
            json.dump(report, fh, indent=2)
    return 0 if report["passed"] else 1


def cmd_analyze(args) -> int:
    system = get_system(args.system)
    q0, qd0 = system.default_state
    if args.state:
        q0 = _parse_vector(args.state, system.n, "--state")
        check_configuration(system, q0)
    proj = build_projectors(system.jacobian(q0, qd0))
    plant = system.plant(q0, qd0)
    lam, nonzero = pmp_eigenvalues(plant, proj)
    lam = lam[nonzero]
    lo, hi = float(lam[0]), float(lam[-1])
    print(f"system: {system.name}  rank(A) = {proj.rank}  dof = {system.n - proj.rank}")
    print(f"nonzero eigenvalues of P M P: {np.array2string(lam, precision=6)}")
    print(f"optimal-mu interval: [{lo:.6g}, {hi:.6g}]  "
          f"minimum cond(Mbar) = {hi / lo:.6g}")
    grid = np.geomspace(1e-3 * lo, 1e3 * hi, 61)
    # one stack of Mbar over the grid, one eigvalsh: each member has the bits
    # of its own assemble
    rows = list(zip(grid.tolist(), assemble(plant, proj, grid).cond.tolist()))
    best = min(rows, key=lambda r: r[1])
    print(f"grid minimum: cond = {best[1]:.6g} at mu = {best[0]:.6g}")
    if args.out:
        with open(args.out, "w") as fh:
            fh.write("mu,cond_mbar\n")
            for mu, cond in rows:
                fh.write(f"{mu!r},{cond!r}\n")
        print(f"sweep written to {args.out}")
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "simulate":
            return cmd_simulate(args)
        if args.command == "check":
            return cmd_check(args)
        return cmd_analyze(args)
    except ProjdynError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError, KeyError) as exc:
        # a KeyError (get_system's unknown name) would print in quotes
        print(f"error: {exc.args[0] if isinstance(exc, KeyError) else exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
