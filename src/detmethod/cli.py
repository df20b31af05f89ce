"""Command-line front end.

Subcommands: hilbert, points, construct, verify, sweep, bound.
Exit codes: 0 ok, 1 verification failure, 2 input error, 3 budget exceeded.
JSON output is the machine contract (stable, sorted keys, standard JSON with
no NaN or Infinity); text output is for humans and carries no stability
promise.  `verify` parses a stored report, rejecting a malformed one as an
input error, checks that each listed point lies in S(X,B), that every field
engine.run_summary derives matches, and leaves every other check to the
engine's verifier.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from fractions import Fraction
from itertools import chain, repeat, starmap
from json.encoder import encode_basestring_ascii

from .bounds import (
    DetBoundInput,
    choose_nu,
    determinant_bound_exact,
    finite_double,
    float_up,
    log_up,
)
from .engine import (
    AuxiliaryCertificate,
    _require_options,
    affine_pipeline,
    choose_delta,
    coverage_failure,
    cover_and_construct,
    report_rational,
    run_basis,
    run_points,
    run_summary,
    verify_certificate,
)
from .errors import (
    BudgetExceededError,
    DegenerateIdealError,
    InputError,
    ParseError,
)
from .ideals import Ideal, _a_denominator, _series
from .points import (
    DEFAULT_BUDGET,
    HeightBox,
    enumerate_affine,
    enumerate_projective,
)
from .polynomials import Ordering, parse_polynomial

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_INPUT = 2
EXIT_BUDGET = 3


def load_ideal(path):
    """Ideal file: header `vars: k`, then one generator per line; `#` starts
    a comment.  A parse error names the file, and the line and column in
    it; a zero generator names the file and line, a count below 1 the
    file."""
    try:
        with open(path) as fh:
            raw = fh.read()
    except OSError as exc:
        raise InputError(f"cannot read ideal file {path}: {exc}") from exc
    lines = []  # (line number, text before any '#'), for the nonblank lines
    for lineno, line in enumerate(raw.splitlines(), start=1):
        body = line.split("#", 1)[0]
        if body.strip():
            lines.append((lineno, body))
    header = lines[0][1].strip() if lines else ""
    if not header.lower().startswith("vars:"):
        raise InputError(f"{path}: first line must be 'vars: <count>'")
    try:
        num_vars = int(header.split(":", 1)[1])
    except ValueError:
        raise InputError(f"{path}: malformed vars header {header!r}")
    if num_vars < 1:
        raise InputError(f"{path}: num_vars must be positive")
    gens = []
    for lineno, body in lines[1:]:
        try:
            gens.append(parse_polynomial(body, num_vars))
        except ParseError as exc:
            raise InputError(
                f"{path}: line {lineno}, column {exc.column}: {exc.message}"
            ) from exc
        if gens[-1].is_zero():
            raise InputError(
                f"{path}: line {lineno}: zero polynomial is not allowed as a generator"
            )
    if not gens:
        raise InputError(f"{path}: no generators")
    return Ideal(gens, num_vars)


def _rational(text, flag):
    """A rational command-line value; text that is not a rational number,
    or has a zero denominator, is an input error naming the flag."""
    try:
        return Fraction(text)
    except ZeroDivisionError as exc:
        raise InputError(f"{flag}: zero denominator in {text!r}") from exc
    except ValueError as exc:
        raise InputError(f"{flag}: {exc}") from exc


def _parse_heights(args, num_vars):
    if args.mode == "affine":
        if args.heights is not None:
            raise InputError("affine mode takes --height B, not --heights")
        if args.height is None:
            raise InputError("affine mode needs --height B")
        return _rational(args.height, "--height")
    if args.heights is None:
        if args.height is not None:
            return HeightBox.uniform(_rational(args.height, "--height"), num_vars)
        raise InputError("projective mode needs --heights B0,...,Bn")
    if args.height is not None:
        raise InputError("projective mode takes --height or --heights, not both")
    parts = [_rational(p, "--heights") for p in args.heights.split(",")]
    if len(parts) != num_vars:
        raise InputError(
            f"--heights needs {num_vars} entries, got {len(parts)}"
        )
    return HeightBox(tuple(parts))


def _json(data):
    """The JSON output contract: sorted keys, indent 2, ASCII escapes, no NaN
    or Infinity, byte for byte json.dumps(data, sort_keys=True, indent=2,
    allow_nan=False) for data built of values of the exact JSON types only.
    With indent set, json.dumps skips CPython's C encoder; this writer keeps
    its string escapes, renders each list of plain ints, or of strings, in
    one join, and each list of equal-length rows of plain ints (points,
    boxes) by one format template."""
    return _emit(data, "\n")


def _emit(value, newline):
    """The JSON text of value; newline is a line break and the indent of the
    line that value starts on.  The text is picked by type(value) alone: any
    other type, a subclass of a JSON type too, is refused."""
    kind = type(value)
    if kind is int:
        return int.__repr__(value)
    if kind is str:
        return encode_basestring_ascii(value)
    if kind is list or kind is tuple:
        return _emit_list(value, newline)
    if kind is dict:
        return _emit_dict(value, newline)
    if kind is float:
        if not math.isfinite(value):
            raise ValueError(
                f"Out of range float values are not JSON compliant: {value!r}"
            )
        return float.__repr__(value)
    if kind is bool:
        return "true" if value else "false"
    if value is None:
        return "null"
    raise TypeError(f"Object of type {kind.__name__} is not JSON serializable")


def _emit_list(value, newline):
    if not value:
        return "[]"
    inner = newline + "  "
    kinds = set(map(type, value))
    if kinds == {int}:  # plain ints: no bool among them
        items = map(int.__repr__, value)
    elif kinds == {str}:
        items = map(encode_basestring_ascii, value)
    elif kinds <= {list, tuple} and (rows := _int_rows(value, inner)):
        items = rows
    else:
        items = map(_emit, value, repeat(inner))
    return f"[{inner}{(',' + inner).join(items)}{newline}]"


def _int_rows(rows, newline):
    """The JSON texts of rows, lists or tuples that all hold the same number
    k >= 1 of plain ints, from one template of k fields; None for any other
    rows."""
    (k, *others) = set(map(len, rows))
    if others or not k or set(map(type, chain.from_iterable(rows))) != {int}:
        return None
    inner = newline + "  "
    template = f"[{inner}{{}}{f',{inner}{{}}' * (k - 1)}{newline}]"
    return starmap(template.format, rows)


def _emit_dict(value, newline):
    if not value:
        return "{}"
    inner = newline + "  "
    items = [
        f"{encode_basestring_ascii(key)}: {_emit(x, inner)}"
        for key, x in sorted(value.items())
    ]
    return f"{{{inner}{(',' + inner).join(items)}{newline}}}"


def report_json(report, include_timings=False):
    return _json(report.to_dict(include_timings=include_timings))


# -- subcommands -----------------------------------------------------------


def cmd_hilbert(args):
    ideal = load_ideal(args.ideal)
    gb = run_basis(ideal, args.mode, Ordering(args.ordering))
    n = gb.num_vars
    rows = []
    for s in range(args.s_min, args.s_max + 1):
        hf, sig = _series(gb, s)
        a = [None] * n
        if s >= 1 and hf > 0:
            q = _a_denominator(s, hf, sig)
            a = [_ratio_text(x, q) for x in sig]
        rows.append({"s": s, "hf": hf, "sigma": list(sig), "a": a})
    if args.output == "json":
        print(_json(rows))
    elif args.output == "csv":
        header = ["s", "hf"] + [f"sigma{i}" for i in range(n)] + [
            f"a{i}" for i in range(n)
        ]
        print(",".join(header))
        for r in rows:
            cells = [r["s"], r["hf"], *r["sigma"], *r["a"]]
            print(",".join("" if v is None else str(v) for v in cells))
    else:
        for r in rows:
            a = " ".join(x or "-" for x in r["a"])
            print(f"s={r['s']:3d}  HF={r['hf']:6d}  sigma={r['sigma']}  a=({a})")
    return EXIT_OK


def _ratio_text(p, q):
    """str(Fraction(p, q)) for ints p and q > 0, from one gcd."""
    g = math.gcd(p, q)
    return str(p // g) if g == q else f"{p // g}/{q // g}"


def cmd_points(args):
    ideal = load_ideal(args.ideal)
    heights = _parse_heights(args, ideal.num_vars)
    enumerate_points = (
        enumerate_affine if args.mode == "affine" else enumerate_projective
    )
    ps = enumerate_points(ideal, heights, budget=args.budget)
    if args.output == "json":
        print(json.dumps([list(p) for p in ps.points], allow_nan=False))
    else:
        for p in ps.points:
            print(" ".join(str(x) for x in p))
    return EXIT_OK


def cmd_construct(args):
    """The engine refuses all but exactly one of --delta / --epsilon."""
    norm_bound = args.norm_bound
    if norm_bound is not None:
        norm_bound = _rational(norm_bound, "--norm-bound")
    ideal = load_ideal(args.ideal)
    ordering = Ordering(args.ordering)
    heights = _parse_heights(args, ideal.num_vars)
    options = dict(
        delta=args.delta,
        epsilon=args.epsilon,
        strategy=args.strategy,
        norm_bound=norm_bound,
        budget=args.budget,
    )
    if args.mode == "affine":
        report = affine_pipeline(ideal, heights, ordering=ordering, **options)
    else:
        _require_options(args.delta, args.epsilon, args.strategy, norm_bound)
        gb = run_basis(ideal, "projective", ordering)
        report = cover_and_construct(gb, heights, **options)
    text = report_json(report, include_timings=args.timings)
    if args.out:
        try:
            with open(args.out, "w") as fh:
                fh.write(text + "\n")
        except OSError as exc:
            raise InputError(f"cannot write report {args.out}: {exc}") from exc
    else:
        print(text)
    return EXIT_OK


def _field(obj, key, kind):
    """obj[key] of a stored report, which must be a `kind`."""
    value = obj.get(key) if isinstance(obj, dict) else None
    if not isinstance(value, kind) or isinstance(value, bool):
        raise InputError(f"malformed report: {key!r} must be a {kind.__name__}")
    return value


def _report_params(data, num_vars):
    """(mode, ordering, delta, heights, epsilon) of a stored report."""
    params = _field(data, "params", dict)
    mode = _field(params, "mode", str)
    if mode not in ("affine", "projective"):
        raise InputError(f"malformed report: unknown mode {mode!r}")
    try:
        ordering = Ordering(_field(params, "ordering", str))
        written = _field(params, "heights", list)
        heights = [Fraction(str(h)) for h in written]
    except (ValueError, ZeroDivisionError) as exc:
        raise InputError(f"malformed report: {exc}") from exc
    if json.dumps(written) != json.dumps(list(map(report_rational, heights))):
        raise InputError(
            "malformed report: heights must be ints or 'p/q' in lowest terms"
        )
    if len(heights) != num_vars + (mode == "affine"):
        raise InputError(f"malformed report: {len(heights)} heights in {mode} mode")
    if mode == "affine" and heights != [1] + [heights[1]] * num_vars:
        raise InputError("malformed report: affine heights must be (1, B, ..., B)")
    delta = _field(params, "delta", int)
    if delta < 0:
        raise InputError("malformed report: delta must be nonnegative")
    epsilon = params.get("epsilon")
    if epsilon is not None and type(epsilon) not in (int, float):
        raise InputError("malformed report: 'epsilon' must be a number or null")
    return mode, ordering, delta, heights, epsilon


def _report_points(cert, num_vars):
    points = _field(cert, "points", list)
    if not all(
        isinstance(p, list) and len(p) == num_vars and all(type(x) is int for x in p)
        for p in points
    ):
        raise InputError(f"malformed report: points must be {num_vars} integers")
    return [tuple(p) for p in points]


def verify_report_dict(data, ideal, budget=DEFAULT_BUDGET, path=None):
    """Re-verify a stored report against the ideal file, trusting nothing;
    a certificate whose poly does not parse is named with the report's path.

    This parses the report, checks that each listed point lies in S(X,B)
    (engine.run_points), that each certificate's point list is nonempty, in
    S(X,B) order and free of repeats, that every field engine.run_summary derives
    from the basis, box, delta, points and certificates is the stored one,
    and that params.num_vars, and with epsilon delta and delta_report, are
    those of the basis and engine.choose_delta; engine.verify_certificate
    and engine.coverage_failure do the rest, as they do for the engine's
    own output."""
    mode, ordering, delta, heights, epsilon = _report_params(data, ideal.num_vars)
    certificates = _field(data, "certificates", list)
    gb = run_basis(ideal, mode, ordering)
    box = HeightBox(tuple(heights))
    expected = run_points(ideal, mode, box, budget).points
    index = {p: i for i, p in enumerate(expected)}

    failures = []
    certs = []
    for k, entry in enumerate(certificates):
        try:
            poly = parse_polynomial(_field(entry, "poly", str), gb.num_vars)
        except ParseError as exc:
            where = f"{path}: " if path else ""
            raise InputError(
                f"malformed report: {where}certificate {k}: poly: {exc}"
            ) from exc
        points = _report_points(entry, gb.num_vars)
        covered = tuple(index[p] for p in points if p in index)
        cert = AuxiliaryCertificate(poly, delta, covered, ())
        certs.append(cert)
        messages = [f"point {p} not in S(X,B)" for p in points if p not in index]
        if not points or any(i >= j for i, j in zip(covered, covered[1:])):
            messages.append(
                "points: not a nonempty list in S(X,B) order without repeats"
            )
        messages += verify_certificate(cert, expected, gb)
        failures += [f"certificate {k}: {msg}" for msg in messages]
    uncovered = coverage_failure(certs, len(expected))
    if uncovered:
        failures.append(uncovered)
    stored = {**data, **{f"params.{key}": v for key, v in data["params"].items()}}
    derived = {"params.num_vars": gb.num_vars}
    if epsilon is None:
        derived["delta_report"] = None
    else:
        derived["params.delta"], derived["delta_report"] = choose_delta(gb, epsilon)
    derived.update(run_summary(gb, box, delta, expected, certs, mode == "affine"))
    for key, value in derived.items():
        have = stored.get(key)
        if key.endswith("points"):  # as lists: JSON text of S(X,B) costs more
            # and, as true == 1 and -10.0 == -10, each coordinate an int
            if have != value or not all(type(x) is int for p in have for x in p):
                failures.append(f"{key}: not the {len(value)} points of S(X,B)")
        elif repr(have) != repr(value):  # so that true is not 1, nor 1.0 or "1"
            # as JSON text too, where a dict's key order does not count
            have, want = (json.dumps(x, sort_keys=True) for x in (have, value))
            if have != want:
                failures.append(f"{key}: {have}, not {want}")
    return failures


def cmd_verify(args):
    ideal = load_ideal(args.ideal)
    try:
        with open(args.report) as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise InputError(f"cannot read report {args.report}: {exc}") from exc
    failures = verify_report_dict(data, ideal, budget=args.budget, path=args.report)
    if failures:
        for f in failures:
            print(f"FAIL: {f}")
        return EXIT_VERIFY
    print(f"PASS: {len(data['certificates'])} certificates verified")
    return EXIT_OK


def cmd_sweep(args):
    """--epsilon 0.25 unless --delta or --epsilon is given; the engine
    refuses both."""
    epsilon = args.epsilon
    if args.delta is None and epsilon is None:
        epsilon = 0.25
    ideal = load_ideal(args.ideal)
    ordering = Ordering(args.ordering)
    heights = [_rational(h, "--height-list") for h in args.height_list.split(",")]
    for i, b in enumerate(heights):
        report = affine_pipeline(
            ideal,
            b,
            delta=args.delta,
            epsilon=epsilon,
            ordering=ordering,
            budget=args.budget,
        )
        k_bound = report.k_bound_value  # empty beyond the largest double
        k_bound = "" if k_bound is None else f"{k_bound:.6g}"
        if i == 0:  # an error on the first height leaves stdout empty
            print("B,N,certificates,k_actual,k_bound")
        print(
            f"{b},{report.point_count},{report.certificate_count},"
            f"{report.k_actual},{k_bound}"
        )
    return EXIT_OK


def cmd_bound(args):
    norms = tuple(_rational(x, "--norms") for x in args.norms.split(","))
    r = _rational(args.r, "--r")
    inp = DetBoundInput(mu=args.mu, m=args.m, norms=norms, r=r)
    budget = choose_nu(args.mu, args.m)
    exact = determinant_bound_exact(inp)
    log_bound = bound = None  # with a zero norm; bound beyond the doubles too
    if exact:
        log_bound = log_up(exact)
        if finite_double(exact):  # the least double >= the exact bound
            bound = float_up(exact)
    out = {
        "mu": args.mu,
        "m": args.m,
        "nu": budget.nu,
        "e": budget.e,
        "log_bound": log_bound,
        "bound": bound,
    }
    if args.output == "json":
        print(_json(out))
    else:
        log_text = "-inf" if log_bound is None else f"{log_bound:.6g}"
        print(
            f"mu={out['mu']} m={out['m']} nu={out['nu']} e={out['e']} "
            f"bound={bound} (log {log_text})"
        )
    return EXIT_OK


# -- argument parsing ------------------------------------------------------


def _add_ideal_and_mode(p):
    p.add_argument("--ideal", required=True, help="ideal file")
    p.add_argument("--mode", choices=["affine", "projective"], default="affine")


def _add_heights(p):
    p.add_argument("--height", help="uniform height bound B")
    p.add_argument("--heights", help="comma-separated B0,...,Bn")


def _add_ordering(p):
    p.add_argument(
        "--ordering",
        choices=[o.value for o in Ordering],
        default=Ordering.GRLEX_LEFT.value,
    )


@functools.cache
def build_parser():
    """Each subcommand takes only the options its cmd_* function reads.  The
    parser is built once per process and shared by every main() call."""
    parser = argparse.ArgumentParser(
        prog="detmethod",
        description="Auxiliary polynomials for integral/rational points of "
        "bounded height, with verifiable certificates.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # full option names only, so that no option that a subcommand lacks
    # parses as a prefix of one it has (sweep --height as --height-list)
    add = functools.partial(sub.add_parser, allow_abbrev=False)

    p = add("hilbert", help="Hilbert function / sigma / a_i table")
    _add_ideal_and_mode(p)
    _add_ordering(p)
    p.add_argument("--output", choices=["json", "csv", "text"], default="json")
    p.add_argument("--s-min", type=int, default=1)
    p.add_argument("--s-max", type=int, default=8)
    p.set_defaults(func=cmd_hilbert)

    p = add("points", help="enumerate points of bounded height")
    _add_ideal_and_mode(p)
    _add_heights(p)
    p.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    p.add_argument("--output", choices=["json", "text"], default="json")
    p.set_defaults(func=cmd_points)

    p = add("construct", help="build certified auxiliary polynomials")
    _add_ideal_and_mode(p)
    _add_heights(p)
    _add_ordering(p)
    p.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    p.add_argument("--delta", type=int)
    p.add_argument("--epsilon", type=float)
    p.add_argument(
        "--strategy", choices=["adaptive", "theoretical"], default="adaptive"
    )
    p.add_argument("--norm-bound", help="rational C^nu norm bound (theoretical)")
    p.add_argument("--out", help="write the JSON report here instead of stdout")
    p.add_argument(
        "--timings",
        action="store_true",
        help="include timings (breaks byte-for-byte reproducibility)",
    )
    p.set_defaults(func=cmd_construct)

    p = add("verify", help="re-verify a stored report")
    p.add_argument("--report", required=True)
    p.add_argument("--ideal", required=True)
    p.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    p.set_defaults(func=cmd_verify)

    p = add(
        "sweep", help="affine height sweep with adaptive covers, CSV summary"
    )
    p.add_argument("--ideal", required=True, help="ideal file")
    _add_ordering(p)
    p.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    p.add_argument("--height-list", required=True, help="comma-separated Bs")
    p.add_argument("--delta", type=int)
    p.add_argument("--epsilon", type=float, help="default 0.25 without --delta")
    p.set_defaults(func=cmd_sweep)

    p = add("bound", help="determinant bound calculator")
    p.add_argument("--mu", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--norms", required=True, help="comma-separated norms")
    p.add_argument("--r", required=True, help="box diameter in (0,1)")
    p.add_argument("--output", choices=["json", "text"], default="text")
    p.set_defaults(func=cmd_bound)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BudgetExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (InputError, DegenerateIdealError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except AssertionError as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return EXIT_VERIFY


if __name__ == "__main__":
    sys.exit(main())
