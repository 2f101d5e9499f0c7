"""projdyn benchmark: one workload, measured for a fixed time, outputs checked.

    python3 perfbench/run.py --workload free --seed 1 --seconds 20 --trace 0

The load comes from this one process and thread, in a closed loop: each
operation starts when the previous one has returned.  Operations are grouped
in rounds (see workloads.py); a rate is the median over rounds of the
round's work divided by its busy time, so a stall moves one round, not the
result.  Output checks run outside the timed region.

Every operation is timed next to a fixed reference computation
(calibration.py), and reported times and rates are at the reference's
speed: on a shared host the machine's own speed drifts by half from one
minute to the next, which would otherwise swamp any change to projdyn.
The wall-clock figures and the measured speed are kept in the result record.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json: ``setup_s``
(median of several fresh processes, each timed from its start until it has
imported projdyn, built the systems and scenarios and taken one warm-up
step) and ``ops_per_s``.  ``--trace 1`` replays round 0 alternately without
and with the layer tracer and reports the per-layer metrics, the
workload's own rates and accuracy figures, ``trace.overhead_frac`` and the
workload's untimed probes (``Workload.probes``).
Count metrics must repeat exactly between the traced replays.

The last line of standard output is the result as one JSON object; a fuller
record with the run header goes to perfbench/out/.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_PROBES = 5
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

# BLAS threads are pinned before numpy is first imported.
for _var in BLAS_ENV:
    os.environ[_var] = "1"


def _parse(argv):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return spec, parser.parse_args(argv)


def _import_library():
    if not (SRC / "projdyn" / "__init__.py").is_file():
        sys.exit(f"error: projdyn sources not found under {SRC}")
    sys.path.insert(0, str(SRC))


def setup(workload, seed, scale=1.0):
    """Build the workload (systems, loaded system, scenarios) and warm up."""
    from workloads import WORKLOADS
    wl = WORKLOADS[workload](seed, scale)
    wl.warmup()
    return wl


def probe_setup(workload, seed, probes):
    """Set-up time of ``probes`` fresh processes, each timed from its spawn
    until its set-up is done.  Returns the median wall time and the median
    time at reference speed, from reference imports before and after each."""
    from calibration import REFERENCE_IMPORT_S, import_seconds, spawn_seconds
    cmd = [sys.executable, str(Path(__file__)), "--workload", workload,
           "--seed", str(seed), "--setup-probe"]
    before = import_seconds()
    wall, ref = [], []
    for _ in range(probes):
        wall.append(spawn_seconds(cmd))
        after = import_seconds()
        ref.append(wall[-1] * REFERENCE_IMPORT_S / statistics.fmean((before, after)))
        before = after
    return statistics.median(wall), statistics.median(ref)


def _median_rate(rounds, work, busy):
    rates = [r[work] / r[busy] for r in rounds if r[busy] > 0]
    return statistics.median(rates) if rates else 0.0


def _round(wl, r, ex, tracer=None):
    """Play round r; returns its work, and its busy time at reference speed
    (``ref_busy``, per kind as ``<kind>_busy``) and on the wall clock."""
    before = (ex.attempted, ex.busy, dict(ex.work), dict(ex.ref_busy))
    ex.forget_speed()
    with tracer or contextlib.nullcontext():
        wl.play(r, ex)
    out = {"ops": ex.attempted - before[0], "busy": ex.busy - before[1]}
    for kind in ex.work:
        out[kind] = ex.work[kind] - before[2][kind]
        out[f"{kind}_busy"] = ex.ref_busy[kind] - before[3][kind]
    out["ref_busy"] = sum(out[f"{kind}_busy"] for kind in ex.work)
    out["speed"] = out["ref_busy"] / out["busy"] if out["busy"] else 1.0
    return out


def workload_rates(rounds):
    return {
        "steps_per_s": _median_rate(rounds, "run", "run_busy"),
        "export_rows_per_s": _median_rate(rounds, "export", "export_busy"),
        "battery_runs_per_s": _median_rate(rounds, "battery", "battery_busy"),
    }


def measure(workload, seed, seconds, trace, scale=1.0, probes=SETUP_PROBES):
    """Run one measurement; returns (metrics, executor, info, errors).

    Times in ``metrics`` are at the calibration's reference speed; ``info``
    keeps the wall-clock figures and the speed itself.
    """
    from calibration import Calibration
    from workloads import Executor, OUT
    cal = Calibration()
    metrics, info, errors = {}, {}, []
    if not trace:
        info["wall.setup_s"], metrics["setup_s"] = probe_setup(workload, seed, probes)
    wl = setup(workload, seed, scale)
    ex = Executor(cal)
    rounds = []
    t_end = time.perf_counter() + seconds
    if not trace:
        r = 0
        while not rounds or time.perf_counter() < t_end:
            rounds.append(_round(wl, r, ex))
            r += 1
        metrics["ops_per_s"] = _median_rate(rounds, "ops", "ref_busy")
        info["wall.ops_per_s"] = statistics.median(r["ops"] / r["busy"] for r in rounds)
        info.update(workload_rates(rounds))
    else:
        from tracer import Tracer, is_count, layer_metrics
        traced, layer = [], []
        while len(traced) < 2 or time.perf_counter() < t_end:
            rounds.append(_round(wl, 0, ex))
            tex = Executor(cal)
            tr = Tracer()
            traced.append(_round(wl, 0, tex, tr))
            layer.append(layer_metrics(tr, tex, traced[-1]["speed"]))
            if len(layer) == 1:
                OUT.mkdir(exist_ok=True)
                tr.write(OUT / f"spans-{workload}-{seed}.jsonl")
            ex.attempted += tex.attempted
            ex.failed += tex.failed
            ex.problems += tex.problems
            drift = sorted(k for k, v in layer[-1].items()
                           if is_count(k) and v != layer[0].get(k))
            if drift:
                errors.append(f"count metrics differ between traced replays: {drift}")
                break
        metrics.update({k: statistics.median(m[k] for m in layer) for k in layer[0]})
        metrics.update(workload_rates(rounds))
        metrics["trace.overhead_frac"] = (
            statistics.median(r["ref_busy"] for r in traced)
            / statistics.median(r["ref_busy"] for r in rounds) - 1.0)
        metrics.update(wl.probes())
    metrics.update(ex.accuracy)
    metrics["battery.pass_frac"] = (ex.battery_passed / ex.battery_clean
                                    if ex.battery_clean else 0.0)
    info["machine.speed"] = statistics.median(r["speed"] for r in rounds)
    info["rounds"] = len(rounds)
    info["round"] = wl.describe()
    return metrics, ex, info, errors


def _git_commit():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    path = ROOT / ".git" / ref[5:]
    if path.is_file():
        return path.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def header(args, info):
    import numpy as np
    digest = hashlib.sha256()
    for path in sorted((SRC / "projdyn").glob("*")):
        if path.is_file():
            digest.update(path.name.encode() + path.read_bytes())
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (KeyError, TypeError):
        blas = "unknown"
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "git_commit": _git_commit(),
        "source_sha256": digest.hexdigest(), "python": platform.python_version(),
        "numpy": np.__version__, "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)), "blas": blas,
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "rounds": info["rounds"], "round": info["round"],
    }


def build_result(spec, trace, metrics, ex, errors):
    """The result object: every metric BENCHMARK.json names for this mode."""
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    result_metrics = {}
    for m in wanted:
        name = m["name"]
        if name not in metrics and (name.startswith("free.")
                                    or name.startswith("battery.") and name.endswith(".s")):
            metrics[name] = 0.0          # the probe or check did not run on this workload
        if name not in metrics:
            errors.append(f"metric {name} was not measured")
            continue
        result_metrics[name] = {"value": metrics[name], "unit": m["unit"]}
    return {"correct": ex.failed == 0 and not errors, "attempted": ex.attempted,
            "failed": ex.failed, "metrics": result_metrics}


def main(argv=None):
    spec, args = _parse(argv)
    _import_library()
    if args.setup_probe:
        setup(args.workload, args.seed)
        print(time.monotonic())
        return 0
    metrics, ex, info, errors = measure(args.workload, args.seed, args.seconds,
                                        args.trace)
    result = build_result(spec, args.trace, metrics, ex, errors)

    from workloads import OUT
    head = header(args, info)
    record = {"header": head, "result": result, "all_metrics": metrics,
              "extra": {k: v for k, v in info.items()
                                   if k not in ("rounds", "round")},
              "problems": ex.problems, "errors": errors}
    OUT.mkdir(exist_ok=True)
    (OUT / f"result-{args.workload}-{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1))
    for line in ex.problems[:20] + errors:
        print(f"problem: {line}", file=sys.stderr)
    print("header: " + json.dumps(head))
    for name, value in sorted({**record["extra"], **metrics}.items()):
        print(f"  {name:42s} {value:.6g}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
