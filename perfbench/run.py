"""Benchmark for mannafair: end-to-end timings and per-layer spans.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N   # every workload, one table

Each workload is a single-threaded closed loop: an operation starts when
the previous one and its output check have finished, and cli-mix runs at
most one child process at a time.  A pass runs every operation of the
workload once.  A run starts passes for --seconds after set-up, and makes
at least MIN_PASSES.  Output checks run outside the timed region.

A shared host's speed can drift by up to 2x for tens of seconds at a time
(other tenants share its cores), longer than a run.  So each timed region is
bracketed by a calibration that does not run mannafair (see CALIBRATIONS),
and its time is scaled to the speed at which the calibration takes its
reference time: a change to mannafair moves the scaled time as much as the
raw one, while the host's drift cancels.  The info line also gives the raw
figures.  The run is pinned to one core, child processes included, so the
calibration and the work share a core.

--trace 0 reports the end-to-end metrics: set-up time (median of SETUP_REPS
set-ups), the pass time, the median and tail operation latency, all from each
op's median scaled latency over the run's passes, and peak resident memory.
--trace 1 runs untraced (U) passes and passes with spans.Tracer installed (T)
in the order U T T U T U T ..., reports the per-layer metrics and the tracing
overhead, and counts a failure unless every call count and result count
repeats exactly across the traced passes.

The metric names and units come from BENCHMARK.json at the checkout root.
The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics; the line before it records the environment
(Python version, nproc, commit or source digest) and the sample counts.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
SETUP_REPS = 7
MIN_PASSES = 3  # a traced run needs one untraced and two traced passes
PROBE_REPS = 5
CALIBRATION_ITERS = 600
NPROC = len(os.sched_getaffinity(0))  # before the run pins itself to one core


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    return env


def probe(code):
    """Wall time of a fresh interpreter running `code`, and its stdout."""
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-c", code], env=child_env(), capture_output=True,
        text=True, check=True, timeout=60,
    )
    return time.perf_counter() - start, proc.stdout


def calibration_kernel():
    """Fixed work that uses only the standard library, in the mix mannafair's
    code uses: Fraction sums, frozensets as dict keys, small generator loops."""
    total, seen, acc = Fraction(0), {}, 0
    for i in range(CALIBRATION_ITERS):
        total += Fraction(i % 7 + 1, i % 5 + 2)
        key = frozenset(range(i % 11))
        seen[key] = seen.get(key, 0) + len(key)
        acc += sum(x * x for x in range(i % 13))
    return total, acc, len(seen)


def kernel_s():
    start = time.perf_counter()
    calibration_kernel()
    return time.perf_counter() - start


def interpreter_s():
    return probe("pass")[0]


# name: (timer, its time on a quiet core of the reference machine, a 2-vCPU
# Xeon VM with Python 3.11).  Work in this process slows with the kernel;
# a child process slows more nearly with a fresh interpreter's start.
CALIBRATIONS = {"kernel": (kernel_s, 0.0025), "interpreter": (interpreter_s, 0.05)}


class HostSpeed:
    """Scales each timed region to the reference machine's quiet speed, by
    the calibration's time just before and just after the region."""

    def __init__(self, kind):
        self.timer, self.ref_s = CALIBRATIONS[kind]
        self.last = self.timer()

    def scale(self, elapsed):
        after = self.timer()
        scaled = elapsed * 2 * self.ref_s / (self.last + after)
        self.last = after
        return scaled


def check_location(path):
    """mannafair must come from this checkout's src/, not an installed copy."""
    src = os.path.realpath(SRC) + os.sep
    if not os.path.realpath(path).startswith(src):
        raise SystemExit(f"mannafair imported from {path}, not from {src}")


def measure_setup(workload):
    """Median of SETUP_REPS set-ups: a fresh process importing mannafair, plus
    generating the workload's inputs; returns (reference-speed s, raw s)."""
    speed, scaled, raw = HostSpeed("interpreter"), [], []
    for _ in range(SETUP_REPS):
        start = time.perf_counter()
        _, where = probe("import mannafair; print(mannafair.__file__)")
        workload.generate()
        elapsed = time.perf_counter() - start
        scaled.append(speed.scale(elapsed))
        raw.append(elapsed)
        check_location(where.strip())
    return statistics.median(scaled), statistics.median(raw)


def run_pass(ops, tracer, speed):
    """Run every op once; returns (latencies at reference speed in s,
    raw latencies in s, failure messages)."""
    latencies, raw, failures = [], [], []
    for op in ops:
        start = time.perf_counter()
        try:
            result, error = op.run(tracer), None
        except Exception as exc:  # an op that raises counts as failed
            error = exc
        elapsed = time.perf_counter() - start
        latencies.append(speed.scale(elapsed))
        raw.append(elapsed)
        if error is not None:
            failures.append(f"{op.name}: raised {error!r}")
            continue
        try:
            op.check(result)
        except Exception as exc:  # CheckFailed, or a check that cannot parse
            failures.append(f"{op.name}: {exc}")
    return latencies, raw, failures


def peak_rss_mb(children):
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0  # KiB on Linux


def layer_metrics(tracer):
    calls, self_s, counts = tracer.calls, tracer.self_s, tracer.counts

    def ratio(a, b):
        return a / b if b else 0.0

    out = {}
    for name in (
        "algorithms.double_round_robin_ef1", "algorithms.run_picking_rounds",
        "algorithms.extend_with_round_robin", "algorithms.resolve_top_trading_cycles",
        "algorithms.efr_n_minus_1", "core.validate_certificate", "core.is_ef1",
        "core.build_envy_graph", "fixed_n.search_efr_po", "fixed_n.reconstruct_I",
        "fixed_n.build_f_ij", "welfare.po_certificate_lp", "welfare.solve_leq_system",
        "welfare.perturb_nondegenerate", "welfare.check_nondegenerate",
        "oracles.decide_efr_k", "oracles.min_efr_k",
        "oracles.is_pareto_optimal_bruteforce", "oracles.solve_partition", "cli.main",
    ):
        out[f"{name}.self_s"] = self_s[name]
    for name in (
        "core.validate_certificate", "core.is_ef1", "core.build_envy_graph",
        "core.validate_allocation", "core.bundle_value", "fixed_n.reconstruct_I",
        "fixed_n.build_f_ij", "welfare.po_certificate_lp",
        "welfare.perturb_nondegenerate", "oracles.decide_efr_k",
        "oracles.is_pareto_optimal_bruteforce",
    ):
        out[f"{name}.calls"] = calls[name]
    for name in ("algorithms.picking_iterations", "algorithms.reserve_size",
                 "harness.bytes_out"):
        out[name] = counts[name]
    lp_calls = calls["welfare.po_certificate_lp"]
    out["fixed_n.lp_per_candidate"] = ratio(lp_calls, calls["fixed_n.reconstruct_I"])
    out["welfare.po_certificate_lp.feasible_ratio"] = ratio(
        counts["welfare.po_certificate_lp.feasible"], lp_calls
    )
    for kind in ("serialize", "parse"):
        out[f"harness.{kind}.self_s"] = sum(
            v for k, v in self_s.items() if k.startswith(f"harness.{kind}_")
        )
    return out


def pass_indices(seconds):
    """0, 1, 2, ... while `seconds` have not passed, and at least MIN_PASSES."""
    end = time.perf_counter() + seconds
    i = 0
    while i < MIN_PASSES or time.perf_counter() < end:
        yield i
        i += 1


def measure(workload, ops, seconds):
    """Untraced passes; returns (metrics, info, latencies, failures).

    An op's latency is the median of its reference-speed samples over the
    run's passes; the pass time is their sum, op_p50_ms their median over
    the ops and op_tail_ms the slowest op's latency.
    """
    speed = HostSpeed(workload.calibration)
    scaled, raw, failures = [[] for _ in ops], [[] for _ in ops], []
    for passes, _ in enumerate(pass_indices(seconds), 1):
        lat, raw_lat, fail = run_pass(ops, None, speed)
        failures += fail
        for samples, value in zip(scaled, lat):
            samples.append(value)
        for samples, value in zip(raw, raw_lat):
            samples.append(value)
    typical = [statistics.median(samples) for samples in scaled]
    raw_typical = [statistics.median(samples) for samples in raw]
    slowest = max(range(len(ops)), key=typical.__getitem__)
    info = {
        "passes": passes, "ops": len(ops), "tail_op": ops[slowest].name,
        "raw_wall_s": sum(raw_typical),
        "raw_op_p50_ms": 1000 * statistics.median(raw_typical),
        "op_ms": {op.name: 1000 * t for op, t in zip(ops, typical)},
        "host_slowdown": statistics.median(
            r / s for rs, ss in zip(raw, scaled) for r, s in zip(rs, ss)
        ),
    }
    metrics = {
        "wall_s": sum(typical),
        "op_p50_ms": 1000 * statistics.median(typical),
        "op_tail_ms": 1000 * typical[slowest],
        "peak_rss_mb": peak_rss_mb(workload.uses_children),
    }
    return metrics, info, [x for samples in scaled for x in samples], failures


def measure_traced(workload, ops, seconds):
    """Untraced (U) and traced (T) passes in the order U T T U T U T ...;
    returns (metrics, info, latencies, failures)."""
    from spans import Tracer

    speed = HostSpeed(workload.calibration)
    latencies, failures, walls = [], [], {False: [], True: []}
    per_pass, repeats = [], []
    for i in pass_indices(seconds):
        traced = i == 1 or (i >= 2 and i % 2 == 0)
        tracer = Tracer() if traced else None
        lat, _, fail = run_pass(ops, tracer, speed)
        latencies += lat
        failures += fail
        walls[traced].append(sum(lat))
        if traced:
            per_pass.append(layer_metrics(tracer))
            repeats.append(tracer.deterministic())
    if any(r != repeats[0] for r in repeats):
        failures.append("call or result counts differ between traced passes")
    metrics = {
        name: statistics.median(p[name] for p in per_pass) for name in per_pass[0]
    }
    metrics["trace.overhead_s"] = statistics.median(walls[True]) - statistics.median(
        walls[False]
    )
    interp = statistics.median(probe("pass")[0] for _ in range(PROBE_REPS))
    imported = statistics.median(
        probe("import mannafair")[0] for _ in range(PROBE_REPS)
    )
    metrics["cli.interp_ms"] = 1000 * interp
    metrics["cli.import_ms"] = 1000 * (imported - interp)
    info = {"untraced_wall_s": walls[False], "traced_wall_s": walls[True]}
    return metrics, info, latencies, failures


def environment():
    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "mannafair")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            digest.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(fh.read())
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, check=True, timeout=30,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            commit = None
    return {
        "python": platform.python_version(),
        "nproc": NPROC,
        "commit": commit,
        "src_sha256": digest.hexdigest(),
    }


def load_json(*parts):
    with open(os.path.join(ROOT, *parts), encoding="utf-8") as fh:
        return json.load(fh)


def run_one(args):
    if not os.path.isfile(os.path.join(SRC, "mannafair", "__init__.py")):
        print(f"no mannafair sources under {SRC}", file=sys.stderr)
        return 2
    # One core for the run and its child processes, so that the calibration
    # kernel measures the speed of the core that does the work.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    sys.path.insert(0, SRC)
    import mannafair

    check_location(mannafair.__file__)
    import workloads

    declared = load_json("BENCHMARK.json")["per_layer" if args.trace else "end_to_end"]
    spec = load_json("perfbench", "workloads.json")["workloads"][args.workload]
    workload = workloads.make(args.workload, spec, args.seed, ROOT, child_env())
    try:
        setup_s, raw_setup_s = measure_setup(workload)
        ops = workload.ops()
        if args.trace:
            metrics, info, latencies, failures = measure_traced(workload, ops, args.seconds)
        else:
            metrics, info, latencies, failures = measure(workload, ops, args.seconds)
            metrics["setup_s"] = setup_s
            info["raw_setup_s"] = raw_setup_s
    finally:
        workload.close()
    mismatch = {m["name"] for m in declared} ^ set(metrics)
    if mismatch:
        raise SystemExit(f"metrics differ from BENCHMARK.json: {sorted(mismatch)}")
    info = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        **environment(), **info,
        "ops_failed_frac": len(failures) / len(latencies), "failures": failures[:10],
    }
    print(json.dumps(info))
    print(json.dumps({
        "correct": not failures,
        "attempted": len(latencies),
        "failed": len(failures),
        "metrics": {
            m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
            for m in declared
        },
    }))
    return 0


def run_all(args, names):
    """Every workload in its own process, one after another, as one table."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return proc.returncode
        info_line, result_line = proc.stdout.strip().splitlines()[-2:]
        info, result = json.loads(info_line), json.loads(result_line)
        total["correct"] &= result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        rows = dict(result["metrics"])
        rows["ops_failed_frac"] = {"value": info["ops_failed_frac"], "unit": "ratio"}
        for metric, entry in rows.items():
            print(f"{name:16} {metric:44} {entry['value']:>14.6g} {entry['unit']}")
            total["metrics"][f"{name}/{metric}"] = entry
        extra = {k: info[k] for k in ("passes", "ops", "tail_op", "host_slowdown",
                                      "untraced_wall_s", "traced_wall_s") if k in info}
        print(f"{name:16} {json.dumps(extra)} failures={info['failures']}")
    print(json.dumps(total))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    names = list(load_json("perfbench", "workloads.json")["workloads"])
    parser.add_argument("--workload", required=True, choices=[*names, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args, names)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
