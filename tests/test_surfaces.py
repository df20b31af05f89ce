"""Surfaces: boxes with at least mu points, whose kernel vector comes from
exact_kernel's rank screen, on the saddle, the Segre quadric and a quartic
surface at small heights."""

import pytest

from detmethod import HeightBox, Ordering, affine_pipeline, cover_and_construct, engine
from detmethod.cli import load_ideal
from detmethod.engine import run_basis

from conftest import DATA
from oracles import rational_kernel, rational_rank
from test_engine import _kernel_calls

SURFACES = DATA / "surfaces"


def _rows_screened(monkeypatch):
    """Wrap engine._independent_mod_p so that each call appends to the
    returned list the number of rows the screen reads."""
    reads = []
    screen = engine._independent_mod_p

    def counted(residues):
        for row in residues:
            reads[-1] += 1
            yield row

    def spy(residues, mu):
        reads.append(0)
        return screen(counted(residues), mu)

    monkeypatch.setattr(engine, "_independent_mod_p", spy)
    return reads


def _projective(name, b, delta):
    gb = run_basis(load_ideal(SURFACES / name), "projective", Ordering.GRLEX_LEFT)
    return cover_and_construct(gb, HeightBox((b,) * 4), delta=delta)


@pytest.mark.parametrize(
    "run, paths",
    [
        (lambda: affine_pipeline(load_ideal(SURFACES / "saddle.ideal"), 12, delta=3),
         {"early stop", "screen to the end"}),
        (lambda: _projective("segre_quadric.ideal", 3, 2),
         {"early stop", "screen to the end"}),
        # one box of 112 points, mu = 52: the rank stops growing at 32
        (lambda: _projective("quartic_surface.ideal", 3, 5), {"early stop"}),
    ],
    ids=["saddle", "segre_quadric", "quartic_surface"],
)
def test_surface_kernels_match_the_oracle(monkeypatch, run, paths):
    """Every kernel call answers as the rational oracle does (a False
    verdict: the first `low` rows have rank mu), and among the screened
    calls that return a vector, some stop early and some read every row."""
    calls = _kernel_calls(monkeypatch)
    reads = _rows_screened(monkeypatch)
    run()
    reads = iter(reads)
    seen = set()
    for mat, low, result in calls:
        mu = len(mat.exponents)
        read = next(reads) if len(mat.rows) >= mu else None  # one screen each
        if result is False:
            assert rational_rank(mat.rows[:low]) == mu
            continue
        assert result == (rational_kernel(mat) or [None])[0]
        if result and read is not None:
            seen.add("early stop" if read < len(mat.rows) else "screen to the end")
    assert seen == paths
