"""detmethod benchmark: one workload per process, one job at a time, closed loop.

    python3 bench/run.py --workload enum-scan --seed 3 --seconds 20 --trace 0
    python3 bench/run.py --workload all          # every workload, one table

Run from the root of a source checkout; the program is imported from
``src/``.  A run repeats passes over the workload's jobs until ``--seconds``
have elapsed.  With ``--trace 0`` it prints the end-to-end metrics: the median
pass's construct, verify and tables seconds, scaled to a reference host speed
(see speed.py; the unscaled wall times are printed as well), the set-up
seconds and the peak resident memory.  With ``--trace 1`` it alternates traced
and untraced passes and prints the per-layer metrics, the dominant layers'
shares and the tracing overhead.  Every job's output is checked, and at seed 0
also compared with the pinned digests in ``reference.json`` (``--pin``
rewrites them from the current program); failed_ops is the share of jobs that
failed.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A result file with
machine information goes to ``bench/results/``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

SETUP_REPEATS = 15
# A fresh interpreter times its own import of detmethod and the loading of the
# ideal files.
SETUP_CODE = """
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import detmethod
from detmethod import cli
for path in sys.argv[2:]:
    cli.load_ideal(path)
print(time.perf_counter() - t0)
"""
# Another fresh interpreter times a fixed set of standard-library imports that
# detmethod does not use.  Set-up time does not follow the speed probe (an
# import is the first run of cold code, with its file reads), but it follows
# this control: interleaved on the same host over 100 s, the median set-up
# time spread 0.26 (IQR/median) and its ratio to the control 0.05.
CONTROL_CODE = """
import time
t0 = time.perf_counter()
import email.parser, http.client, xml.dom.minidom
print(time.perf_counter() - t0)
"""
# The control's median seconds on a shared 2-vCPU Intel Xeon host under
# Python 3.11, so that setup_s reads close to that host's typical seconds.
CONTROL_REF_S = 0.029


def metric_units(trace):
    """Name -> unit of the metrics a run reports, from BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


# -- measurement ---------------------------------------------------------------


def measure_setup(ideal_paths):
    """(setup_s, unscaled median seconds): the median set-up time of fresh
    interpreters, scaled by CONTROL_REF_S over the median control time.  One
    unmeasured pair first writes the bytecode caches."""
    cmds = [
        [sys.executable, "-I", "-c", CONTROL_CODE],
        [sys.executable, "-I", "-c", SETUP_CODE, str(SRC), *ideal_paths],
    ]
    control, setup = [], []
    for i in range(SETUP_REPEATS + 1):
        for cmd, samples in zip(cmds, (control, setup)):
            out = subprocess.run(cmd, check=True, capture_output=True, text=True, timeout=60)
            if i:
                samples.append(float(out.stdout))
    raw = statistics.median(setup)
    return raw * CONTROL_REF_S / statistics.median(control), raw


def checked_pass(runner, jobs, pinned):
    outcomes = harness.run_pass(runner, jobs)
    if pinned is not None:
        harness.compare_reference(outcomes, pinned)
    return outcomes


def timed_passes(runner, jobs, seconds, pinned):
    """Run passes until ``seconds`` have elapsed; returns the outcomes of
    each pass."""
    passes = []
    start = perf_counter()
    while not passes or perf_counter() - start < seconds:
        passes.append(checked_pass(runner, jobs, pinned))
    return passes


def run_workload(name, seed, seconds, trace):
    workload = WORKLOADS[name]
    jobs = workload.generate(seed)
    pinned = json.loads(harness.REFERENCE.read_text())[name] if seed == 0 else None
    work = BENCH / ".work" / f"{name}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    result = {"workload": name, "seed": seed, "seconds": seconds, "trace": trace}
    try:
        runner = harness.Runner(work, clock=speed.SpeedProbe())
        if trace:
            passes, metrics, spans = traced_run(runner, jobs, seconds, pinned)
            result["spans"] = spans
        else:
            setup_s, setup_wall = measure_setup(
                sorted({harness.ideal_path(j.ideal) for j in jobs})
            )
            passes = timed_passes(runner, jobs, seconds, pinned)
            per_pass = [harness.kind_seconds(p) for p in passes]
            metrics = {
                f"{kind}_s": statistics.median(p[kind] for p in per_pass)
                for kind in ("construct", "verify", "tables")
            }
            result["wall_s"] = {
                f"{kind}_s": statistics.median(
                    harness.kind_seconds(p, "wall")[kind] for p in passes
                )
                for kind in ("construct", "verify", "tables")
            }
            result["wall_s"]["setup_s"] = setup_wall
            metrics["setup_s"] = setup_s
            metrics["peak_rss_mib"] = (
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            )
            result["pass_seconds"] = per_pass
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()  # only if no other run is using it
    outcomes = [o for p in passes for o in p]
    failures = [o for o in outcomes if o.error is not None]
    result.update(
        machine=machine_info(seed),
        jobs=[f"{j.id} {getattr(j, 'heights', '')}" for j in jobs],
        passes=len(passes),
        failures=[f"{o.job_id}: {o.error}" for o in failures],
        metrics=metrics,
    )
    return result, len(outcomes), len(failures)


def traced_run(runner, jobs, seconds, pinned):
    """Traced and untraced passes in turn until ``seconds`` have elapsed;
    returns (outcomes per pass, median per-layer metrics of the traced
    passes, the spans of the first traced pass).  Spans are timed on a clock
    that stops during speed probes; the overhead is the median ratio of
    speed-scaled traced to untraced pass times."""
    passes, traces, ratios = [], [], []
    start = perf_counter()
    while not traces or perf_counter() - start < seconds:
        with tracing.Tracer(now=runner.clock.unprobed) as tracer:
            runner.tracer = tracer
            traced = checked_pass(runner, jobs, pinned)
            runner.tracer = None
            traces.append(tracer.new_pass())
        untraced = checked_pass(runner, jobs, pinned)
        passes += [traced, untraced]
        ratios.append(sum(o.seconds for o in traced) / sum(o.seconds for o in untraced))
    expected = workloads.expected_spans(jobs)
    for trace in traces:
        fired = {s.name for s in trace.spans}
        if trace.folded_calls:
            fired.add(tracing.FOLDED)
        missing = expected - fired
        if missing:
            raise SpanMissing(
                "expected spans never fired: " + ", ".join(sorted(missing))
            )
    metrics = harness.median_metrics([harness.layer_metrics(t) for t in traces])
    metrics["trace.overhead_share"] = statistics.median(ratios) - 1
    spans = [
        [s.name, s.start, s.end, s.parent, s.folded] for s in traces[0].spans
    ]
    return passes, metrics, spans


class SpanMissing(Exception):
    pass


# -- result files and machine information --------------------------------------


def cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def git_commit():
    """The checkout's commit, read from ``.git`` without running git (a
    source tree without ``.git`` has none)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def machine_info(seed):
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "git_commit": git_commit(),
        "seed": seed,
    }


def write_result(result):
    out = BENCH / "results"
    out.mkdir(exist_ok=True)
    path = out / f"{result['workload']}-seed{result['seed']}-trace{result['trace']}.json"
    path.write_text(json.dumps(result, indent=1) + "\n")


# -- output --------------------------------------------------------------------


def print_result(result, attempted, failed, trace):
    units = metric_units(trace)
    if set(units) != set(result["metrics"]):
        raise RuntimeError(
            f"metrics {sorted(result['metrics'])} do not match BENCHMARK.json {sorted(units)}"
        )
    print(
        f"workload {result['workload']}  seed {result['seed']}  "
        f"trace {trace}  passes {result['passes']}"
    )
    for key, value in result["metrics"].items():
        print(f"  {key:38s} {value:14.6g} {units[key]}")
    for key, value in result.get("wall_s", {}).items():
        print(f"  {key + ' (unscaled wall)':38s} {value:14.6g} s")
    print(f"  {'failed_ops':38s} {failed / attempted:14.6g} share ({failed} of {attempted} jobs)")
    for line in result["failures"]:
        print(f"  FAILED {line}")
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    k: {"value": v, "unit": units[k]}
                    for k, v in result["metrics"].items()
                },
            }
        )
    )


def run_all(args):
    """Every workload in its own process, then one table."""
    rows, total = [], {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [
            sys.executable, str(Path(__file__).resolve()), "--workload", name,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace),
        ]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout + proc.stderr)
            return proc.returncode
        last = json.loads(proc.stdout.strip().splitlines()[-1])
        rows.append((name, last))
        total["correct"] &= last["correct"]
        total["attempted"] += last["attempted"]
        total["failed"] += last["failed"]
        for key, metric in last["metrics"].items():
            total["metrics"][f"{name}.{key}"] = metric
    keys = list(rows[0][1]["metrics"])
    print(f"{'workload':14s}" + "".join(f"{k:>24s}" for k in keys) + f"{'failed_ops':>12s}")
    for name, last in rows:
        cells = "".join(
            f"{last['metrics'][k]['value']:>17.5g} {last['metrics'][k]['unit']:<6s}"
            for k in keys
        )
        print(f"{name:14s}{cells}{last['failed'] / last['attempted']:>12.3g}")
    print(json.dumps(total))
    return 0


def pin(names):
    """Rewrite the seed-0 reference digests of the named workloads."""
    reference = json.loads(harness.REFERENCE.read_text()) if harness.REFERENCE.exists() else {}
    for name in names:
        work = BENCH / ".work" / f"pin-{name}-{os.getpid()}"
        work.mkdir(parents=True, exist_ok=True)
        try:
            outcomes = harness.run_pass(harness.Runner(work), WORKLOADS[name].generate(0))
        finally:
            shutil.rmtree(work, ignore_errors=True)
        failed = [f"{o.job_id}: {o.error}" for o in outcomes if o.error]
        if failed:
            sys.exit("cannot pin, jobs failed:\n" + "\n".join(failed))
        reference[name] = {o.job_id: o.digest for o in outcomes if o.digest}
    harness.REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--pin", action="store_true", help="rewrite reference.json")
    args = parser.parse_args()
    if args.workload != "all" and args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)} or all")
    if args.pin:
        pin(list(WORKLOADS) if args.workload == "all" else [args.workload])
        return 0
    if args.workload == "all":
        return run_all(args)
    try:
        result, attempted, failed = run_workload(
            args.workload, args.seed, args.seconds, args.trace
        )
    except SpanMissing as exc:
        print(f"error: traced run: {exc}", file=sys.stderr)
        return 1
    write_result(result)
    print_result(result, attempted, failed, args.trace)
    return 0


if __name__ == "__main__":
    if not (SRC / "detmethod" / "__init__.py").is_file():
        sys.exit(f"error: no detmethod sources at {SRC}; run from a source checkout")
    sys.path.insert(0, str(SRC))
    import harness
    import speed
    import tracing
    import workloads
    from workloads import WORKLOADS

    sys.exit(main())
