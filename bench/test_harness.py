"""Tests of the benchmark itself: span arithmetic, the output checks behind
failed_ops, tracing installation and the seeded choice of inputs."""

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import harness  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from detmethod.polynomials import (  # noqa: E402
    Ordering,
    Polynomial,
    format_polynomial,
    parse_polynomial,
)
from tracing import Span  # noqa: E402
from workloads import Construct, Hilbert  # noqa: E402


def test_self_time_subtracts_child_coverage_and_folded_calls():
    spans = [
        Span("root", 0.0, 10.0),
        # two overlapping children cover [1, 5]; a third is clipped to [8, 10]
        Span("a", 1.0, 3.0, parent=0),
        Span("b", 2.0, 5.0, parent=0, folded=0.5),
        Span("c", 8.0, 12.0, parent=0),
        # a grandchild only reduces its own parent's self time
        Span("d", 2.5, 4.0, parent=2),
        Span("other-root", 20.0, 21.0, folded=0.25),
    ]
    assert tracing.self_times(spans) == pytest.approx([4.0, 2.0, 1.0, 4.0, 1.5, 0.75])
    assert tracing.inclusive_s(spans, {"a", "d"}) == pytest.approx(2.0 + 1.5)
    assert tracing.inclusive_s(spans, {"b", "d"}) == pytest.approx(3.0)
    assert tracing.inclusive_s(spans, {"d"}, {"root"}) == pytest.approx(1.5)
    assert tracing.inclusive_s(spans, {"d"}, {"other-root"}) == 0.0


def _flip_first_coefficient(report_path):
    report = json.loads(report_path.read_text())
    cert = report["certificates"][0]
    poly = parse_polynomial(cert["poly"], report["params"]["num_vars"] + 1)
    lead = max(poly.terms)
    terms = dict(poly.terms)
    terms[lead] = -terms[lead]
    cert["poly"] = format_polynomial(Polynomial(terms, poly.num_vars), Ordering.GRLEX_LEFT)
    report_path.write_text(json.dumps(report))


def test_flipped_certificate_coefficient_is_a_failed_op(tmp_path):
    runner = harness.Runner(tmp_path)
    job = Construct("parabola", "affine", (30,), 2)
    built = runner.run(job)
    assert built.error is None and built.digest["points"] == 11
    assert runner.run(job, "verify").error is None

    _flip_first_coefficient(runner.report_path(job))
    outcome = runner.run(job, "verify")
    assert outcome.error is not None
    assert "exit code 1" in outcome.error


def test_wrong_table_is_a_failed_op(tmp_path):
    runner = harness.Runner(tmp_path)
    # the conic's Hilbert function is 2s + 1, not 3s + 1
    assert runner.run(Hilbert("conic", "projective", 4, 2)).error is None
    assert runner.run(Hilbert("conic", "projective", 4, 3)).error is not None


def test_traced_pass_fires_expected_spans_and_reads_counters(tmp_path):
    jobs = [
        Construct("parabola", "affine", (30,), 2),
        Construct("conic", "projective", (3, 3, 3), 2),
        Hilbert("conic", "projective", 4, 2),
    ]
    with tracing.Tracer() as tracer:
        outcomes = harness.run_pass(harness.Runner(tmp_path, tracer=tracer), jobs)
        trace = tracer.new_pass()
    assert all(o.error is None for o in outcomes)
    fired = {s.name for s in trace.spans} | {tracing.FOLDED}
    assert workloads.expected_spans(jobs) <= fired
    assert trace.folded_calls > 0
    metrics = harness.layer_metrics(trace)
    # construct and verify each scan x0 in [-30, 30] once, and 7^3 vectors
    assert metrics["points.candidates"] == 2 * (61 + 7**3)
    assert metrics["engine.kernel_calls"] > 0
    # the wrappers are gone after the tracer exits
    from detmethod import cli, engine, points

    assert engine.enumerate_affine is points.enumerate_affine
    assert cli.enumerate_affine is points.enumerate_affine
    assert not hasattr(Polynomial.evaluate, "__wrapped__")


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_seed_picks_heights_in_band_and_fixes_order(name):
    workload = workloads.WORKLOADS[name]
    assert workload.generate(0) == list(workload.jobs)
    drawn = workload.generate(7)
    assert drawn == workload.generate(7)
    assert sorted(j.id for j in drawn) == sorted(j.id for j in workload.jobs)
    nominal = {j.id: j for j in workload.jobs}
    for job in drawn:
        base = nominal[job.id]
        if isinstance(job, Construct) and job.mode == "affine":
            assert base.band[0] <= job.heights[0] <= base.band[1]
        elif isinstance(job, Construct):
            offsets = sorted(b - n for b, n in zip(job.heights, base.heights))
            assert offsets == [-1] + [0] * (len(offsets) - 2) + [1]
        elif hasattr(job, "bands"):
            assert all(lo <= b <= hi for b, (lo, hi) in zip(job.heights, job.bands))
        else:
            assert job == base


def test_reference_pins_every_producer_job():
    pinned = json.loads(harness.REFERENCE.read_text())
    for name, workload in workloads.WORKLOADS.items():
        assert set(pinned[name]) == {j.id for j in workload.jobs}
