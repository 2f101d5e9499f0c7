"""Command-line front end: simulate, check, analyze."""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import battery
from .control import RegulationGains, SetpointRegulator
from .engine import Scenario, project_to_constraints, run
from .errors import ProjdynError
from .kernel import build_projectors
from .loader import _known, _required, load_system
from .model import assemble, pmp_eigenvalues
from .systems import catalog, get_system


# a run's settings and the regulator's gains when neither the scenario file
# nor the flags set them; mu defaults as in Scenario
_RUN = {"horizon": 10.0, "dt": 1e-3, "mu": Scenario.mu}
_GAINS = {"kp": 10.0, "kd": 10.0, "sigma": 1.5}
# the keys a scenario file and its controller object may hold
_FILE_KEYS = ("system", "q0", "qdot0", *_RUN, "controller", "events", "initial_active")
_CONTROLLER_KEYS = ("q_star", *_GAINS)


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="projdyn",
        description="Projection-operator constrained-dynamics simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="integrate a scenario and dump the trace")
    sim.add_argument("--system", help="catalog system name")
    sim.add_argument("--scenario-file", help="JSON scenario description")
    sim.add_argument("--horizon", type=float, help=f"default {_RUN['horizon']:g}")
    sim.add_argument("--dt", type=float, help=f"default {_RUN['dt']:g}")
    sim.add_argument("--mu", help="virtual mass: positive number or 'auto'; "
                                  f"default {_RUN['mu']}")
    sim.add_argument("--target", help="comma-separated q*: regulate to it")
    for gain, default in _GAINS.items():
        sim.add_argument(f"--{gain}", type=float, help=f"default {default:g}, needs --target")
    sim.add_argument("--out", help="trace output path")
    sim.add_argument("--format", choices=["csv", "jsonl"], default="csv")

    chk = sub.add_parser("check", help="run the invariant property battery")
    chk.add_argument("--seed", type=int, default=0)
    chk.add_argument("--inject-fault", choices=["cbar-sign"], default=None,
                     help="deliberately break Cbar to self-test the harness")
    chk.add_argument("--report", help="write the JSON report here")

    ana = sub.add_parser("analyze", help="virtual-mass conditioning analysis")
    ana.add_argument("--system", required=True)
    ana.add_argument("--state", help="comma-separated q (defaults to the "
                                     "system's reference configuration)")
    ana.add_argument("--grid-points", type=int, default=61)
    ana.add_argument("--out", help="CSV output of the mu/cond sweep")
    return parser


def _parse_vector(values, n, what):
    """n floats from comma-separated text or a list."""
    try:
        if isinstance(values, str):
            values = [float(v) for v in values.split(",")]
        vals = np.asarray(values, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{what} must be a list of numbers") from exc
    if vals.shape != (n,):
        raise ValueError(f"{what} must have {n} components, got {vals.size}")
    return vals


def _is_number(value) -> bool:
    """Whether a JSON value is a number (JSON true and false are not)."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _number(spec, key, defaults, what=None):
    """A scenario file's numeric field: a JSON number, as a float."""
    value = spec.get(key, defaults[key])
    if not _is_number(value):
        raise ValueError(f"{what or key} must be a number, got {value!r}")
    return float(value)


def _numbers(value, n, what):
    """A scenario file's vector field: a JSON list of n numbers."""
    if not (isinstance(value, list) and all(map(_is_number, value))):
        raise ValueError(f"{what} must be a list of numbers, got {value!r}")
    return _parse_vector(value, n, what)


def _rows(values, what):
    """A scenario file's active set: a list of constraint-row indices."""
    if not isinstance(values, list):
        raise ValueError(f"{what} must be a list of row indices, got {values!r}")
    return tuple(values)


def _events(values):
    """A scenario file's events: a list of [time, active rows] pairs."""
    if not isinstance(values, list):
        raise ValueError(f"events must be a list of [time, rows] pairs, got {values!r}")
    events = []
    for i, event in enumerate(values):
        try:
            t, rows = event
        except (TypeError, ValueError) as exc:
            raise ValueError(f"events[{i}] must be a [time, rows] pair, "
                             f"got {event!r}") from exc
        if not _is_number(t):
            raise ValueError(f"events[{i}] time must be a number, got {t!r}")
        events.append((float(t), _rows(rows, f"events[{i}] active set")))
    return tuple(events)


def _regulator(system, q_star, kp, kd, sigma) -> SetpointRegulator:
    """The regulator to q_star (n floats), retracted onto the constraint
    manifold when the system has a position residual."""
    if system.residual is not None:
        q_star = project_to_constraints(q_star, system)
    eye = np.eye(system.n)
    return SetpointRegulator(q_star, RegulationGains(Kp=kp * eye, Kd=kd * eye, sigma=sigma))


def _scenario_from_args(args) -> Scenario:
    if args.scenario_file:
        given = [f"--{key.replace('_', '-')}" for key in ("system", "target", *_GAINS, *_RUN)
                 if getattr(args, key) is not None]
        if given:
            raise ValueError(f"{', '.join(given)} cannot be combined with --scenario-file; "
                             "set them in the file")
        with open(args.scenario_file) as fh:
            spec = json.load(fh)
        if not isinstance(spec, dict):
            raise ValueError(f"a scenario file must hold a JSON object, got {spec!r}")
        _known(spec, _FILE_KEYS, "a scenario file")
        system = _required(spec, "system", "a scenario file")
        system = get_system(system) if isinstance(system, str) else load_system(system)
        controller = None
        if (c := spec.get("controller")) is not None:
            if not isinstance(c, dict):
                raise ValueError(f"controller must be a JSON object, got {c!r}")
            _known(c, _CONTROLLER_KEYS, "controller")
            kp, kd, sigma = (_number(c, key, _GAINS, f"controller {key}") for key in _GAINS)
            q_star = _numbers(_required(c, "q_star", "controller"), system.n,
                              "controller q_star")
            controller = _regulator(system, q_star, kp, kd, sigma)
        return Scenario(
            system=system,
            q0=_numbers(_required(spec, "q0", "a scenario file"), system.n, "q0"),
            qdot0=(_numbers(spec["qdot0"], system.n, "qdot0") if "qdot0" in spec
                   else np.zeros(system.n)),
            horizon=_number(spec, "horizon", _RUN),
            dt=_number(spec, "dt", _RUN),
            mu=spec.get("mu", _RUN["mu"]),
            controller=controller,
            events=_events(spec.get("events", [])),
            initial_active=(_rows(spec["initial_active"], "initial_active")
                            if "initial_active" in spec else None),
        )

    if not args.system:
        raise ValueError("either --system or --scenario-file is required")
    given = [f"--{key}" for key in _GAINS if getattr(args, key) is not None]
    if given and args.target is None:
        raise ValueError(f"{', '.join(given)} set the regulator's gains and need --target")
    settings = _flags(args, _RUN)
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
        controller = _regulator(system, _parse_vector(args.target, system.n, "--target"),
                                *_flags(args, _GAINS).values())
    return Scenario(
        system=system, q0=q0, qdot0=qdot0, controller=controller,
        # catalog defaults beyond the horizon were not asked for; drop them
        events=tuple(e for e in system.default_events if e[0] <= settings["horizon"]),
        initial_active=system.default_initial_active, **settings,
    )


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
    e0, e1 = trace.energy[0], trace.energy[-1]
    denom = abs(e0) if abs(e0) > 1e-12 else 1.0
    print(f"system: {scenario.system.name}")
    print(f"steps: {len(trace.t) - 1}  horizon: {trace.t[-1]:g} s")
    print(f"energy drift: {abs(e1 - e0) / denom:.3e} (relative)")
    print(f"final drift |A qdot|: {trace.drift[-1]:.3e}")
    if scenario.controller is not None:
        e_final = np.linalg.norm(trace.q[-1] - scenario.controller.q_star)
        print(f"final position error: {e_final:.3e}, "
              f"final speed: {np.linalg.norm(trace.qdot[-1]):.3e}")
    if trace.events:
        for ev in trace.events:
            print(f"event t={ev['time']:g}: rank {ev['rank_before']} -> "
                  f"{ev['rank_after']}, energy drop {ev['energy_drop']:.3e}")
    else:
        print("rank events: none")
    if args.out:
        print(f"trace written to {args.out} ({args.format})")
    return 0


def cmd_check(args) -> int:
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
    if args.grid_points < 1:
        raise ValueError(f"--grid-points must be at least 1, got {args.grid_points}")
    system = get_system(args.system)
    q0, qd0 = system.default_state
    if args.state:
        q0 = _parse_vector(args.state, system.n, "--state")
    proj = build_projectors(system.jacobian(q0, qd0))
    plant = system.plant(q0, qd0)
    lam, nonzero = pmp_eigenvalues(plant, proj)
    lam = lam[nonzero]
    if lam.size == 0:
        print("P = 0 at this state: no admissible direction, cond(Mbar) = 1 "
              "for every mu")
        return 0
    lo, hi = float(lam[0]), float(lam[-1])
    print(f"system: {system.name}  rank(A) = {proj.rank}  dof = {system.n - proj.rank}")
    print(f"nonzero eigenvalues of P M P: {np.array2string(lam, precision=6)}")
    print(f"optimal-mu interval: [{lo:.6g}, {hi:.6g}]  "
          f"minimum cond(Mbar) = {hi / lo:.6g}")
    grid = np.geomspace(1e-3 * lo, 1e3 * hi, args.grid_points)
    rows = [(float(mu), assemble(plant, proj, float(mu)).cond) for mu in grid]
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
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
