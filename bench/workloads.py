"""The benchmark's workloads, the seeded choice of their inputs, and what each
ROADMAP performance item is predicted to move on them.

Every workload is one user session on a fixed corpus of ideal files: it prints
the variety's tables, constructs certified auxiliary polynomials, and re-checks
the stored reports with ``detmethod verify``.  Each stresses a different layer,
so each ROADMAP item has a workload that exercises it and one that bypasses it.

Seed 0 is the nominal corpus: nominal heights in definition order, with pinned
reference digests in ``reference.json``.  Any other seed draws each height
from the job's stated band and shuffles the order of the jobs; the program
sees only the generated command lines.  Tables jobs take no height: the seed
only orders them.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace

# -- jobs --------------------------------------------------------------------


@dataclass(frozen=True)
class Construct:
    """``detmethod construct --out``; its report is then re-checked by a
    ``detmethod verify`` job.

    Affine: ``heights`` is (B,), drawn from ``band`` = (lo, hi) inclusive;
    the bands are narrow because the scans grow like B^2.
    Projective: ``heights`` is (B0, ..., Bn); a seed adds a shuffled offset
    vector (-1, 0, ..., 0, +1), which keeps the scanned box within 3% of the
    nominal size.
    """

    ideal: str
    mode: str
    heights: tuple
    delta: int
    band: tuple = ()
    kind = "construct"

    @property
    def id(self):
        return f"construct:{self.ideal}:{self.mode}"

    def draw(self, rng):
        if self.mode == "affine":
            return replace(self, heights=(rng.randint(*self.band),))
        offsets = [-1] + [0] * (len(self.heights) - 2) + [1]
        rng.shuffle(offsets)
        return replace(
            self, heights=tuple(b + o for b, o in zip(self.heights, offsets))
        )


@dataclass(frozen=True)
class Sweep:
    """``detmethod sweep --epsilon``: one affine pipeline per height, each with
    the automatic degree search; heights drawn from ``bands``."""

    ideal: str
    heights: tuple
    epsilon: float
    bands: tuple = ()
    kind = "construct"

    @property
    def id(self):
        return f"sweep:{self.ideal}"

    def draw(self, rng):
        return replace(self, heights=tuple(rng.randint(*b) for b in self.bands))


@dataclass(frozen=True)
class Hilbert:
    """``detmethod hilbert``; ``degree`` is the curve's degree d, for the
    check HF(s) = d*s + 1."""

    ideal: str
    mode: str
    s_max: int
    degree: int
    kind = "tables"

    @property
    def id(self):
        return f"hilbert:{self.ideal}:{self.mode}"

    def draw(self, rng):
        return self


@dataclass(frozen=True)
class OrderingBound:
    """``affine_ordering_bound(I, s)`` for s = s_min..s_max."""

    ideal: str
    s_min: int
    s_max: int
    kind = "tables"

    @property
    def id(self):
        return f"ordering-bound:{self.ideal}"

    def draw(self, rng):
        return self


# -- workloads ---------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    name: str
    jobs: tuple

    def generate(self, seed):
        """Producer jobs (tables, construct, sweep) in the order a pass runs
        them.  The verify jobs follow, one per Construct, in the same order."""
        if seed == 0:
            return list(self.jobs)
        rng = random.Random(f"{self.name}:{seed}")
        jobs = [job.draw(rng) for job in self.jobs]
        rng.shuffle(jobs)
        return jobs


# Every end-to-end metric must be measurable (never 0) on every workload, so
# each workload has at least one job of each kind; the jobs outside a
# workload's focus are sized to about 0.3-0.5 s so that their times are steady.
WORKLOADS = {
    w.name: w
    for w in (
        # The full 2-D Fraction scan (circle), the one-linear-coordinate scan
        # (affine twisted cubic) and the primitive projective scan (conic,
        # twisted cubic), with almost no kernel work: >=90% of construct is
        # in `points`.  Fibre-wise enumeration shows here; a kernel change
        # must not.  Heights are scaled down from the ROADMAP baseline
        # (circle 200, cubic 100, conic 16, cubic 7) so that a pass takes
        # about 4 s.
        Workload(
            "enum-scan",
            (
                Construct("circle", "affine", (120,), 2, band=(119, 121)),
                Construct("twisted_cubic_affine", "affine", (60,), 2, band=(59, 61)),
                Construct("conic", "projective", (12, 12, 12), 2),
                Construct("twisted_cubic", "projective", (6, 6, 6, 6), 2),
                Hilbert("twisted_cubic", "projective", 40, 3),
                Hilbert("circle", "affine", 80, 2),
            ),
        ),
        # Large staircases: mu = 21 at delta = 10 and 27 kernel calls, so
        # >=70% of construct is in `exact_kernel` and ~12% in enumeration.
        # The modular screen and Bareiss show here.  The band keeps isqrt(B)
        # in 99..101, i.e. 199..203 points.
        Workload(
            "kernel-dense",
            (
                Construct("parabola", "affine", (10000,), 10, band=(9801, 10403)),
                Hilbert("parabola", "affine", 100, 2),
            ),
        ),
        # Many small boxes: ~400 points at delta = 2 give ~230 kernel calls at
        # mu = 5, bisection depth 12, ~115 certificates to verify and
        # serialise and the largest report, plus the criterion-7 scaling
        # sweep through `epsilon`/`choose_delta`.  The column cache, the
        # single verifier and the single Variety show here.  Scaled down from
        # B = 1e5 (633 points, depth 14) so that a pass takes about 5 s.
        Workload(
            "cover-deep",
            (
                Construct("parabola", "affine", (40000,), 2, band=(39601, 40400)),
                Sweep(
                    "parabola",
                    (100, 1000, 10000),
                    0.25,
                    bands=((98, 102), (990, 1010), (9900, 10100)),
                ),
                OrderingBound("parabola", 4, 40),
            ),
        ),
        # The only workload where `ideals` dominates: >=70% of tables_s is
        # `staircase` monomial listing.  Shared Groebner data and the exact
        # Hilbert series show here.  The twisted-cubic ordering bounds stop
        # at s = 32, not 40, so that a pass takes about 4 s.
        Workload(
            "ideal-tables",
            (
                OrderingBound("parabola", 4, 40),
                OrderingBound("twisted_cubic_affine", 4, 32),
                Hilbert("twisted_cubic", "projective", 40, 3),
                Hilbert("twisted_cubic_affine", "affine", 40, 3),
                Construct("twisted_cubic_affine", "affine", (56,), 2, band=(55, 57)),
                Construct("conic", "projective", (10, 10, 10), 2),
            ),
        ),
    )
}

# Spans that must fire at least once in a traced pass of each job type.  A
# missing one means the program stopped calling that public function by the
# traced name, and the layer's numbers would silently read zero.
_CONSTRUCT_SPANS = {
    "cli.load_ideal",
    "engine.cover_and_construct",
    "engine.build_matrix",
    "engine.exact_kernel",
    "engine.verify_certificate",
    "ideals.groebner",
    "ideals.staircase",
    "ideals.normal_form",
    "cli.report_json",
    "polynomials.evaluate",
}
_VERIFY_SPANS = {
    "cli.load_ideal",
    "cli.verify_report_dict",
    "ideals.groebner",
    "ideals.staircase",
    "ideals.normal_form",
    "polynomials.evaluate",
}


def expected_spans(jobs):
    names = set()
    for job in jobs:
        if isinstance(job, Construct):
            names |= _CONSTRUCT_SPANS | _VERIFY_SPANS
            names.add(f"points.enumerate_{job.mode}")
            if job.mode == "affine":
                names.add("engine.affine_pipeline")
        elif isinstance(job, Sweep):
            names |= _CONSTRUCT_SPANS - {"cli.report_json"}
            names |= {
                "engine.affine_pipeline",
                "engine.choose_delta",
                "points.enumerate_affine",
            }
        elif isinstance(job, Hilbert):
            names |= {"cli.load_ideal", "ideals.groebner", "ideals.staircase"}
        else:
            names |= {"ideals.groebner", "ideals.staircase"}
    return names


# Predictions: what each ROADMAP performance item should move, and where it
# should leave every end-to-end metric within its bound ("no change").
#
# - Item 1 (stage timings in PipelineReport): no change on any workload; the
#   timings are opt-in and no job passes --timings.
# - Item 2 (fibre-wise integer enumeration): construct_s and verify_s fall on
#   enum-scan and cover-deep (points.enumerate_s and points.candidates fall,
#   points.yield rises); kernel-dense falls by at most its ~12% enumeration
#   share; tables_s no change anywhere.
# - Item 3 (modular full-rank screen, Bareiss, column cache): construct_s
#   falls on kernel-dense (engine.kernel_s, engine.build_matrix_s) and less on
#   cover-deep; verify_s and tables_s no change; enum-scan no change.
# - Item 4 (one Variety, one verifier, less code): construct_s and verify_s
#   fall on cover-deep (ideals.groebner_calls, cli.verify_report_dict_self_s,
#   engine.verify_certificate_s); tables_s falls on ideal-tables
#   (ideals.groebner_calls); enum-scan and kernel-dense no change.
# - Item 5 (exact Hilbert series, hardening): tables_s falls on ideal-tables
#   (ideals.staircase_calls, ideals.staircase_s); construct_s falls a little on
#   cover-deep through its sweep; enum-scan and kernel-dense no change.
