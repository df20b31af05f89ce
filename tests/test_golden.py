"""Golden outputs: sha256 digests of JSON reports and `detmethod verify`
stdout, pinned in tests/data/golden.json.

The cases span every report shape the CLI emits: affine and projective
modes, `--delta` and `--epsilon` (which add the `delta_report` and
`ordering_bound` blocks), both orderings, and the theoretical strategy
under `--norm-bound` in both modes; plus `verify` on a pristine report, on
the three mutants of acceptance criterion 9, and on one report mutated in
several ways at once; plus the `hilbert` tables in json, csv and text, in
both modes and under both orderings.  A digest moves whenever any byte of
the output moves.

To re-pin after an intended output change, run from the repository root:

    PYTHONPATH=src:tests python tests/test_golden.py
"""

import contextlib
import hashlib
import io
import json
import pathlib
import sys

import pytest

from detmethod.cli import main

DATA = pathlib.Path(__file__).parent / "data"
GOLDEN = DATA / "golden.json"
PINNED = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}


def ideal(name):
    return str(DATA / f"{name}.ideal")


CONSTRUCT = {
    "affine-delta-parabola": ("--ideal", ideal("parabola"), "--height", "100", "--delta", "2"),
    "affine-delta-circle": ("--ideal", ideal("circle"), "--height", "100", "--delta", "2"),
    "affine-delta-line": ("--ideal", ideal("line"), "--height", "50", "--delta", "2"),
    "affine-epsilon-parabola": ("--ideal", ideal("parabola"), "--height", "100", "--epsilon", "0.25"),
    "projective-delta-conic": (
        "--ideal", ideal("conic"), "--mode", "projective", "--heights", "8,8,8", "--delta", "2",
    ),
    "projective-delta-twisted-cubic": (
        "--ideal", ideal("twisted_cubic"), "--mode", "projective",
        "--heights", "6,6,6,6", "--delta", "2",
    ),
    "projective-epsilon-conic": (
        "--ideal", ideal("conic"), "--mode", "projective", "--heights", "8,8,8",
        "--epsilon", "0.25",
    ),
    "projective-epsilon-twisted-cubic": (
        "--ideal", ideal("twisted_cubic"), "--mode", "projective",
        "--heights", "6,6,6,6", "--epsilon", "0.5",
    ),
    "grevlex-affine-parabola": (
        "--ideal", ideal("parabola"), "--height", "100", "--delta", "3", "--ordering", "grevlex",
    ),
    "grevlex-projective-conic": (
        "--ideal", ideal("conic"), "--mode", "projective", "--heights", "8,8,8",
        "--delta", "2", "--ordering", "grevlex",
    ),
    "theoretical-norm-bound-parabola": (
        "--ideal", ideal("parabola"), "--height", "100", "--delta", "2",
        "--strategy", "theoretical", "--norm-bound", "20",
    ),
    "theoretical-norm-bound-conic": (
        "--ideal", ideal("conic"), "--mode", "projective", "--heights", "8,8,8",
        "--delta", "2", "--strategy", "theoretical", "--norm-bound", "20",
    ),
}


# `hilbert` tables, s = 0..40 (s = 0 has no a_i): the affine circle and the
# projective twisted cubic, under both orderings, in every output format
HILBERT = {
    f"hilbert-{mode}-{ordering}-{output}": (
        "--ideal", ideal(name), "--mode", mode, "--ordering", ordering,
        "--output", output, "--s-min", "0", "--s-max", "40",
    )
    for mode, name in (("affine", "circle"), ("projective", "twisted_cubic"))
    for ordering in ("grlex-left", "grevlex")
    for output in ("json", "csv", "text")
}


def _cli(*argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(list(argv))
    return code, out.getvalue()


def _construct(args):
    code, text = _cli("construct", *args)
    assert code == 0
    return text


def _mutants(pristine):
    """Criterion 9's three mutants, then one with a failure of every kind."""
    data = json.loads(pristine)
    out = {}

    def mutant(name, edit):
        d = json.loads(pristine)
        edit(d["certificates"])
        out[name] = d

    mutant("coefficient", lambda c: c[0].__setitem__("poly", c[0]["poly"] + " + 1"))
    mutant("support", lambda c: c[0].__setitem__("poly", c[0]["poly"] + " + x1^2"))
    mutant("dropped-point", lambda c: c[0]["points"].pop())

    def several(c):
        c[0]["poly"] += " + 1"  # degree 0 in the support; vanishes nowhere
        c[1]["poly"] += " + x1^2"  # support in LT(I)
        c[2]["points"].pop()  # leaves a point uncovered
        c[3]["points"][0] = [1, 2, 3]  # not in S(X,B)
        c[4]["poly"] = "0"
        c[5]["poly"] += " + 1/2*x0*x1"  # non-integer coefficient
        c[6]["poly"] = "x0*x2 - x1^2"  # the homogenized parabola: lies in I
    mutant("several", several)
    assert len(data["certificates"]) > 6
    return out


def golden_outputs(tmp_path):
    outputs = {name: _construct(args) for name, args in CONSTRUCT.items()}
    for name, args in HILBERT.items():
        code, text = _cli("hilbert", *args)
        assert code == 0
        outputs[name] = text

    pristine = outputs["affine-delta-parabola"]
    reports = {"pristine": json.loads(pristine), **_mutants(pristine)}
    for name, data in reports.items():
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(data))
        code, text = _cli("verify", "--report", str(path), "--ideal", ideal("parabola"))
        outputs[f"verify-{name}"] = f"exit {code}\n{text}"
    return outputs


def digests(outputs):
    return {k: hashlib.sha256(v.encode()).hexdigest() for k, v in sorted(outputs.items())}


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    return golden_outputs(tmp_path_factory.mktemp("golden"))


def test_golden_cases_pinned(outputs):
    assert sorted(PINNED) == sorted(outputs)


@pytest.mark.parametrize("name", sorted(PINNED))
def test_golden_digest(outputs, name):
    assert digests(outputs)[name] == PINNED[name], outputs[name][:2000]


def test_golden_verify_exit_codes(outputs):
    assert outputs["verify-pristine"].startswith("exit 0\nPASS")
    for name in ("coefficient", "support", "dropped-point", "several"):
        assert outputs[f"verify-{name}"].startswith("exit 1\nFAIL")


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        pinned = digests(golden_outputs(pathlib.Path(tmp)))
    GOLDEN.write_text(json.dumps(pinned, indent=2, sort_keys=True) + "\n")
    print(f"pinned {len(pinned)} digests in {GOLDEN}", file=sys.stderr)
