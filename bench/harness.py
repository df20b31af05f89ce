"""Runs a workload's jobs in-process through detmethod's public surface,
checks every output, and turns timings and traces into metrics."""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import statistics
import traceback
from dataclasses import dataclass
from fractions import Fraction
from math import isqrt
from pathlib import Path

from detmethod import cli, ideals

import tracing
from speed import WallClock
from workloads import Construct, Hilbert, Sweep

BENCH = Path(__file__).resolve().parent
CORPUS = BENCH / "corpus"
REFERENCE = BENCH / "reference.json"


@dataclass
class Outcome:
    job_id: str
    kind: str
    wall: float
    seconds: float  # wall scaled to the reference host speed
    error: str | None  # None when every check passed
    digest: dict  # what the pinned reference compares, for seed 0


def ideal_path(name):
    return str(CORPUS / f"{name}.ideal")


def _cli(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        rc = cli.main(argv)
    return rc, out.getvalue()


def _sha(data):
    return hashlib.sha256(data.encode()).hexdigest()


def _parabola_count(b):
    return 2 * isqrt(int(b)) + 1


class Runner:
    """Executes and checks jobs; ``work`` holds the pass's report files."""

    def __init__(self, work, clock=None, tracer=None):
        self.work = Path(work)
        self.clock = clock or WallClock()
        self.tracer = tracer

    def report_path(self, job):
        return self.work / (job.id.replace(":", "-") + ".json")

    def run(self, job, kind=None):
        """Run one job (``kind`` "verify" re-checks a Construct's report) and
        return its Outcome; a job that raises is a failed op."""
        kind = kind or job.kind
        job_id = f"verify:{job.id}" if kind == "verify" else job.id
        span = self.tracer.begin(f"job.{kind}") if self.tracer else None
        self.clock.start()
        try:
            result = self._execute(job, kind)
        except Exception:  # a crash of the program under test is a failed op
            result = None
            error = traceback.format_exc(limit=3)
        wall, speed = self.clock.stop()
        if span is not None:
            self.tracer.end(span)
        digest = {}
        if result is not None:
            try:
                digest = self._check(job, kind, result)
                error = None
            except (CheckFailed, ValueError, KeyError, IndexError, OSError) as exc:
                error = f"{type(exc).__name__}: {exc}"  # wrong or malformed output
        return Outcome(job_id, kind, wall, wall * speed, error, digest)

    # -- execution (timed) ----------------------------------------------------

    def _execute(self, job, kind):
        if kind == "verify":
            return _cli(
                ["verify", "--report", str(self.report_path(job)),
                 "--ideal", ideal_path(job.ideal)]
            )
        if isinstance(job, Construct):
            heights = ["--height", str(job.heights[0])]
            if job.mode == "projective":
                heights = ["--heights", ",".join(map(str, job.heights))]
            return _cli(
                ["construct", "--ideal", ideal_path(job.ideal), "--mode", job.mode,
                 *heights, "--delta", str(job.delta),
                 "--out", str(self.report_path(job))]
            )
        if isinstance(job, Sweep):
            return _cli(
                ["sweep", "--ideal", ideal_path(job.ideal),
                 "--height-list", ",".join(map(str, job.heights)),
                 "--epsilon", str(job.epsilon)]
            )
        if isinstance(job, Hilbert):
            return _cli(
                ["hilbert", "--ideal", ideal_path(job.ideal), "--mode", job.mode,
                 "--s-max", str(job.s_max)]
            )
        ideal = cli.load_ideal(ideal_path(job.ideal))
        return 0, [
            ideals.affine_ordering_bound(ideal, s)
            for s in range(job.s_min, job.s_max + 1)
        ]

    # -- checks (untimed) -----------------------------------------------------

    def _check(self, job, kind, result):
        rc, out = result
        if rc != 0:
            raise CheckFailed(f"exit code {rc}")
        if kind == "verify":
            if not out.startswith("PASS"):
                raise CheckFailed(f"verify printed {out[:80]!r}")
            return {}
        if isinstance(job, Construct):
            text = self.report_path(job).read_text()
            report = json.loads(text)
            points = report["point_count"]
            if job.ideal == "parabola" and points != _parabola_count(job.heights[0]):
                raise CheckFailed(f"parabola has {points} points at B={job.heights[0]}")
            return {
                "points": points,
                "certificates": report["certificate_count"],
                "sha256": _sha(text),
            }
        if isinstance(job, Sweep):
            rows = out.splitlines()[1:]
            if len(rows) != len(job.heights):
                raise CheckFailed(f"sweep printed {len(rows)} rows")
            for b, row in zip(job.heights, rows):
                got = int(row.split(",")[1])
                if job.ideal == "parabola" and got != _parabola_count(b):
                    raise CheckFailed(f"sweep: {got} points at B={b}")
            return {"sha256": _sha(out)}
        if isinstance(job, Hilbert):
            rows = json.loads(out)
            for row in rows:
                if row["hf"] != job.degree * row["s"] + 1:
                    raise CheckFailed(f"HF({row['s']}) = {row['hf']}")
            if len(rows) != job.s_max:
                raise CheckFailed(f"hilbert printed {len(rows)} rows")
            return {"sha256": _sha(out)}
        table = []
        for r in out:
            if not r.holds or r.dimension != 1 or r.limit != Fraction(1, 2):
                raise CheckFailed(f"ordering bound fails at s={r.s}: {r}")
            table.append(
                f"{r.s} {r.lhs} {r.intermediate_bound} {r.limit} {r.dimension} {r.holds}"
            )
        return {"sha256": _sha("\n".join(table))}


class CheckFailed(Exception):
    pass


def pass_jobs(jobs):
    """(job, kind) in pass order: producers, then one verify per Construct."""
    return [(j, j.kind) for j in jobs] + [
        (j, "verify") for j in jobs if isinstance(j, Construct)
    ]


def run_pass(runner, jobs):
    return [runner.run(job, kind) for job, kind in pass_jobs(jobs)]


def compare_reference(outcomes, pinned):
    """Mark outcomes whose digest differs from the pinned seed-0 reference."""
    for o in outcomes:
        if o.error is None and o.digest and pinned.get(o.job_id) != o.digest:
            o.error = f"digest {o.digest} != pinned {pinned.get(o.job_id)}"


def kind_seconds(outcomes, field="seconds"):
    sums = {"construct": 0.0, "verify": 0.0, "tables": 0.0}
    for o in outcomes:
        sums[o.kind] += getattr(o, field)
    return sums


# -- per-layer metrics from one traced pass ----------------------------------


def layer_metrics(trace):
    """Per-layer metrics of one traced pass."""
    spans = trace.spans
    selfs = tracing.self_times(spans)
    calls = {}
    self_s = {}
    for s, st in zip(spans, selfs):
        calls[s.name] = calls.get(s.name, 0) + 1
        self_s[s.name] = self_s.get(s.name, 0.0) + st

    def incl(*names, under=None):
        return tracing.inclusive_s(spans, set(names), under and {f"job.{under}"})

    def share(part, whole):
        return part / whole if whole else 0.0

    kernel_calls = calls.get("engine.exact_kernel", 0)
    candidates = tracing.candidates(trace)
    return {
        "points.enumerate_s": incl(*tracing.ENUMERATIONS),
        "points.candidates": candidates,
        "points.yield": share(trace.points_found, candidates),
        "polynomials.evaluate_calls": trace.folded_calls,
        "polynomials.evaluate_s": trace.folded_s,
        "ideals.groebner_calls": calls.get("ideals.groebner", 0),
        "ideals.groebner_s": incl("ideals.groebner"),
        "ideals.staircase_calls": calls.get("ideals.staircase", 0),
        "ideals.staircase_s": incl("ideals.staircase"),
        "ideals.normal_form_calls": calls.get("ideals.normal_form", 0),
        "ideals.normal_form_s": incl("ideals.normal_form"),
        "engine.kernel_calls": kernel_calls,
        "engine.kernel_s": incl("engine.exact_kernel"),
        "engine.kernel_entries": trace.kernel_entries,
        "engine.kernel_full_rank_share": share(trace.kernel_full_rank, kernel_calls),
        "engine.build_matrix_s": incl("engine.build_matrix"),
        "engine.cover_self_s": self_s.get("engine.cover_and_construct", 0.0),
        "engine.certificates_per_kernel_call": share(trace.certificates, kernel_calls),
        "engine.verify_certificate_calls": calls.get("engine.verify_certificate", 0),
        "engine.verify_certificate_s": incl("engine.verify_certificate"),
        "cli.report_json_s": incl("cli.report_json"),
        "cli.report_bytes": trace.report_bytes,
        "cli.verify_report_dict_self_s": self_s.get("cli.verify_report_dict", 0.0),
        "cli.load_ideal_s": incl("cli.load_ideal"),
        "share.points_of_construct": share(
            incl(*tracing.ENUMERATIONS, under="construct"), incl("job.construct")
        ),
        "share.kernel_of_construct": share(
            incl("engine.exact_kernel", under="construct"), incl("job.construct")
        ),
        "share.staircase_of_tables": share(
            incl("ideals.staircase", under="tables"), incl("job.tables")
        ),
    }


def median_metrics(per_pass):
    return {k: statistics.median_low(p[k] for p in per_pass) for k in per_pass[0]}
