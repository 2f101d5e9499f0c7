"""Outside-in tracing of the projdyn layers, and the per-layer metrics.

The tracer wraps the layers' functions from outside: it replaces each one in
every projdyn module (or class) where callers look it up, and puts the
originals back on exit.  Each call becomes a span ``(name, start, end,
parent, in_step)`` kept in memory; a span's self time is its duration minus
the durations of its child spans.  ``numpy.linalg`` SVDs, solves and
eigenvalue calls are counted, not spanned, so their time stays with the
layer that made them.

A call is *in a step* when it happens inside ``engine.advance`` or inside
the ``engine.record`` of a step's end state (``t > 0``).  ``*.calls_per_step``
counts only those calls, so the calls a run makes once (the initial record,
the choice of ``mu``) do not blur the per-step figures; those show in the
per-run metrics instead.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from collections import Counter, defaultdict

import numpy as np

from projdyn import battery, cli, control, engine, forces, kernel, loader, model, systems

LAYERS = ("systems", "loader", "kernel", "model", "forces", "control", "engine",
          "battery", "cli")
NUMPY_COUNTED = ("svd", "solve", "eigvalsh")


def _state_key(args, kwargs):
    # MechanicalSystem.jacobian(self, q, qdot, active=None)
    system, q, qdot = args[:3]
    active = args[3] if len(args) > 3 else kwargs.get("active")
    return (system.name, np.asarray(q, float).tobytes(),
            np.asarray(qdot, float).tobytes(), None if active is None else tuple(active))


def _jacobian_key(args, kwargs):
    # build_projectors(jac, rank_tol=None)
    jac = args[0]
    rank_tol = args[1] if len(args) > 1 else kwargs.get("rank_tol")
    return (jac.A.tobytes(), jac.Adot.tobytes(), jac.A.shape, rank_tol)


def _public_functions(module):
    return [(name, fn) for name, fn in vars(module).items()
            if inspect.isfunction(fn) and fn.__module__ == module.__name__
            and not name.startswith("_")]


class Tracer:
    """Context manager that records spans while installed."""

    def __init__(self):
        self.spans = []
        self.stack = [-1]
        self.in_step = False
        self.in_battery = False
        self.numpy_calls = Counter()      # (function, "step" | "battery" | "other")
        self.keys = defaultdict(set)      # span name -> distinct in-step inputs
        self._undo = []
        self.t_origin = time.perf_counter()

    # --- installing -------------------------------------------------------

    def targets(self):
        """(span name, owner, attribute) for every traced function."""
        out = [
            ("systems.jacobian", systems.MechanicalSystem, "jacobian"),
            ("systems.plant", systems.MechanicalSystem, "plant"),
            ("loader.poly", loader.Polynomial, "__call__"),
            ("engine.run", engine, "run"),
            ("engine.step", engine, "step"),
            ("engine.project_to_constraints", engine, "project_to_constraints"),
            ("engine.pack", engine, "_pack"),
            ("engine.rk4", engine._Runner, "_rk4"),
            ("engine.advance", engine._Runner, "advance"),
            ("engine.record", engine._Runner, "record"),
            ("engine.apply_event", engine._Runner, "_apply_event"),
            ("engine.export", engine.SimulationTrace, "to_csv"),
            ("engine.export", engine.SimulationTrace, "to_jsonl"),
            ("cli.main", cli, "main"),
        ]
        for layer, module in (("kernel", kernel), ("model", model),
                              ("forces", forces), ("control", control)):
            out += [(f"{layer}.{name}", module, name)
                    for name, _ in _public_functions(module)]
        out += [("battery.run_battery", battery, "run_battery")]
        # each check's span is named after the check it reports
        out += [(None, battery, name) for name, _ in _public_functions(battery)
                if name.startswith("check_")]
        return out

    def __enter__(self):
        modules = [m for name, m in sys.modules.items()
                   if name == "projdyn" or name.startswith("projdyn.")]
        for span, owner, attr in self.targets():
            original = getattr(owner, attr)
            wrapper = self._wrap(span, attr, original)
            # replace it wherever a caller looks it up by name
            owners = [owner] if inspect.isclass(owner) else [
                m for m in modules if getattr(m, attr, None) is original]
            for o in owners:
                self._undo.append((o, attr, original))
                setattr(o, attr, wrapper)
        for name in NUMPY_COUNTED:
            original = getattr(np.linalg, name)
            self._undo.append((np.linalg, name, original))
            setattr(np.linalg, name, self._count(name, original))
        return self

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()
        return False

    def _count(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            scope = ("step" if tracer.in_step else
                     "battery" if tracer.in_battery else "other")
            tracer.numpy_calls[name, scope] += 1
            return fn(*args, **kwargs)
        return counted

    def _wrap(self, span, attr, fn):
        tracer = self
        key_of = {"jacobian": _state_key, "build_projectors": _jacobian_key}.get(attr)
        steps_in = attr in ("advance", "record")
        battery_run = attr == "run_battery"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            spans = tracer.spans
            idx = len(spans)
            parent = tracer.stack[-1]
            saved = tracer.in_step, tracer.in_battery
            if steps_in:
                # record(self, t, q, qdot): the record at t = 0 is per run
                tracer.in_step = attr == "advance" or args[1] != 0.0
            if battery_run:
                tracer.in_battery = True
            in_step = tracer.in_step
            if in_step and key_of is not None:
                tracer.keys[span].add(key_of(args, kwargs))
            spans.append(None)
            tracer.stack.append(idx)
            t0 = time.perf_counter()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1 = time.perf_counter()
                tracer.stack.pop()
                tracer.in_step, tracer.in_battery = saved
                name = span or f"battery.{result[0] if result else attr}"
                spans[idx] = (name, t0, t1, parent, in_step)
        return wrapper

    # --- reading ----------------------------------------------------------

    def aggregate(self):
        """Per span name: calls, in-step calls, total and self seconds."""
        child = [0.0] * len(self.spans)
        for name, t0, t1, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        agg = defaultdict(lambda: {"calls": 0, "step_calls": 0, "total": 0.0, "self": 0.0})
        for i, (name, t0, t1, _, in_step) in enumerate(self.spans):
            a = agg[name]
            a["calls"] += 1
            a["step_calls"] += in_step
            a["total"] += t1 - t0
            a["self"] += t1 - t0 - child[i]
        return agg

    def write(self, path):
        """Write the spans as JSON lines, times in seconds from the tracer's start."""
        with open(path, "w") as fh:
            for name, t0, t1, parent, in_step in self.spans:
                fh.write(json.dumps([name, t0 - self.t_origin, t1 - self.t_origin,
                                     parent, in_step]) + "\n")


def layer_metrics(tracer, ex, speed=1.0):
    """The per-layer metrics of one traced round, from its spans and tallies.

    Times are multiplied by ``speed``, the machine speed measured around the
    round, so they read as times at the reference speed.
    """
    agg = tracer.aggregate()
    us, ms = 1e6 * speed, 1e3 * speed
    steps = ex.work["run"]
    runs = ex.runs
    rows = ex.work["export"]
    bruns = ex.work["battery"]

    def per(x, base):
        return x / base if base else 0.0

    def calls(name):
        return agg[name]["calls"] if name in agg else 0

    def step_calls(name):
        return agg[name]["step_calls"] if name in agg else 0

    def total(name):
        return agg[name]["total"] if name in agg else 0.0

    def self_s(name):
        return agg[name]["self"] if name in agg else 0.0

    def layer_self(layer):
        return sum(a["self"] for n, a in agg.items() if n.split(".")[0] == layer)

    def unique(name):
        return per(len(tracer.keys[name]), step_calls(name))

    np_calls = tracer.numpy_calls
    m = {
        "systems.jacobian.calls_per_step": per(step_calls("systems.jacobian"), steps),
        "systems.jacobian.unique_frac": unique("systems.jacobian"),
        "systems.jacobian.self_us_per_step": per(self_s("systems.jacobian"), steps) * us,
        "systems.plant.calls_per_step": per(step_calls("systems.plant"), steps),
        "systems.plant.self_us_per_step": per(self_s("systems.plant"), steps) * us,
        "loader.poly_evals_per_step": per(step_calls("loader.poly"), steps),
        "loader.self_us_per_step": per(layer_self("loader"), steps) * us,
        "kernel.build_projectors.calls_per_step":
            per(step_calls("kernel.build_projectors"), steps),
        "kernel.build_projectors.unique_frac": unique("kernel.build_projectors"),
        "kernel.pseudo_inverse.calls_per_step":
            per(step_calls("kernel.pseudo_inverse"), steps),
        "kernel.svd_per_step": per(np_calls["svd", "step"], steps),
        "kernel.self_us_per_step": per(layer_self("kernel"), steps) * us,
        "model.assemble.calls_per_step": per(step_calls("model.assemble"), steps),
        "model.eigvalsh_per_step": per(np_calls["eigvalsh", "step"], steps),
        "model.optimal_mu.calls_per_run": per(calls("model.optimal_mu"), runs),
        "model.self_us_per_step": per(layer_self("model"), steps) * us,
        "forces.acceleration.calls_per_step": per(step_calls("forces.acceleration"), steps),
        "forces.constraint_force.calls_per_step":
            per(step_calls("forces.constraint_force"), steps),
        "forces.solve_per_step": per(np_calls["solve", "step"], steps),
        "forces.self_us_per_step": per(layer_self("forces"), steps) * us,
        "control.control_force.calls_per_step":
            per(step_calls("control.control_force"), steps),
        "control.self_us_per_step": per(layer_self("control"), steps) * us,
        "engine.rk4.self_us_per_step": per(self_s("engine.rk4"), steps) * us,
        "engine.advance.self_us_per_step": per(self_s("engine.advance"), steps) * us,
        "engine.record.share": per(total("engine.record"), total("engine.run")),
        "engine.events_per_run": per(calls("engine.apply_event"), runs),
        "engine.run_overhead_us_per_run": per(
            total("engine.run") - total("engine.advance") - total("engine.record"),
            runs) * us,
        "engine.pack.us_per_run": per(total("engine.pack"), runs) * us,
        "engine.export.us_per_row": per(total("engine.export"), rows) * us,
        "battery.svd_calls": per(np_calls["svd", "battery"], bruns),
        "battery.solve_calls": per(np_calls["solve", "battery"], bruns),
        "cli.main.self_ms": per(self_s("cli.main"), calls("cli.main")) * ms,
    }
    for name in agg:
        if name.startswith("battery.") and name != "battery.run_battery":
            m[f"{name}.s"] = per(total(name), bruns) * speed
    for layer in LAYERS:
        m[f"{layer}.self_ms_per_op"] = per(layer_self(layer), ex.attempted) * ms
    return m


# Metrics that count work rather than time it; they must repeat exactly.
COUNT_SUFFIXES = ("calls_per_step", "unique_frac", "svd_per_step", "solve_per_step",
                  "eigvalsh_per_step", "poly_evals_per_step", "calls_per_run",
                  "events_per_run", "svd_calls", "solve_calls")


def is_count(name):
    return name.endswith(COUNT_SUFFIXES)
