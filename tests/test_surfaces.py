"""Surfaces: boxes with at least mu points, whose kernel vector comes from
exact_kernel's rank screen, on the saddle, the Segre quadric and a quartic
surface at small heights."""

import pytest

from detmethod import HeightBox, Ordering, affine_pipeline, cover_and_construct, engine
from detmethod.cli import load_ideal
from detmethod.engine import run_basis

from conftest import DATA
from oracles import rational_kernel, rational_rank
from test_engine import _block_kernel_dimension, _kernel_calls

SURFACES = DATA / "surfaces"


def _rows_screened(monkeypatch):
    """Wrap engine._independent_mod_p so that each call appends to the
    returned list the number of rows the screen reads."""
    reads = []
    screen = engine._independent_mod_p

    def counted(rows):
        for row in rows:
            reads[-1] += 1
            yield row

    def spy(rows, mu):
        reads.append(0)
        return screen(counted(rows), mu)

    monkeypatch.setattr(engine, "_independent_mod_p", spy)
    return reads


def _projective(name, b, delta):
    gb = run_basis(load_ideal(SURFACES / name), "projective", Ordering.GRLEX_LEFT)
    return cover_and_construct(gb, HeightBox((b,) * 4), delta=delta)


RUNS = {
    "saddle": lambda: affine_pipeline(load_ideal(SURFACES / "saddle.ideal"), 12, delta=3),
    "segre_quadric": lambda: _projective("segre_quadric.ideal", 3, 2),
    # one box of 112 points, mu = 52: the rank stops growing at 32
    "quartic_surface": lambda: _projective("quartic_surface.ideal", 3, 5),
}


@pytest.mark.parametrize(
    "name, paths",
    [
        ("saddle", {"early stop", "screen to the end"}),
        ("segre_quadric", {"early stop", "screen to the end"}),
        ("quartic_surface", {"early stop"}),
    ],
    ids=list(RUNS),
)
def test_surface_kernels_match_the_oracle(monkeypatch, name, paths):
    """Every kernel call answers as the rational oracle does (a falsy
    FullRank(c): the first c rows have rank mu), and among the screened
    calls that return a vector, some stop early and some read every row."""
    calls = _kernel_calls(monkeypatch)
    reads = _rows_screened(monkeypatch)
    RUNS[name]()
    reads = iter(reads)
    seen = set()
    for mat, result in calls:
        mu = len(mat.exponents)
        read = next(reads) if len(mat.rows) >= mu else None  # one screen each
        if not result:
            assert rational_rank(mat.rows[: result.rows]) == mu
            continue
        assert result == rational_kernel(mat)[0]
        if read is not None:
            seen.add("early stop" if read < len(mat.rows) else "screen to the end")
    assert seen == paths


def _eliminations(monkeypatch):
    """Wrap engine._first_kernel_vector and engine._eliminate so that each
    elimination appends (rows, mu, sizes) to the returned list, sizes
    being the number of rows of each _eliminate call it makes."""
    calls = []
    first, eliminate = engine._first_kernel_vector, engine._eliminate

    def first_spy(rows, mu):
        calls.append((rows, mu, []))
        return first(rows, mu)

    def eliminate_spy(rows, width):
        calls[-1][2].append(len(rows))
        return eliminate(rows, width)

    monkeypatch.setattr(engine, "_first_kernel_vector", first_spy)
    monkeypatch.setattr(engine, "_eliminate", eliminate_spy)
    return calls


@pytest.mark.parametrize(
    "name, reduced, eliminations",
    [("saddle", 6, 14), ("segre_quadric", 2, 7), ("quartic_surface", 2, 2)],
    ids=list(RUNS),
)
def test_surface_eliminations_reduce_kernel_bases(monkeypatch, name, reduced, eliminations):
    """On surfaces a box's chosen rows can leave two or more free columns
    in the block of columns 0..w-1, w = min(mu, r + 1): the elimination then
    reduces a kernel basis of that size, one vector per free column, to the
    vector with the smallest last column."""
    calls = _eliminations(monkeypatch)
    RUNS[name]()
    assert len(calls) == eliminations
    for rows, mu, sizes in calls:
        free = _block_kernel_dimension(rows, mu)
        assert sizes == ([len(rows), free] if free >= 2 else [len(rows)])
    assert sum(len(sizes) == 2 for _, _, sizes in calls) == reduced
