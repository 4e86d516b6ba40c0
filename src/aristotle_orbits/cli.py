"""Command-line surface.

Six subcommands: ``classify`` and ``invariants`` label dual points,
``simulate`` produces trajectories, ``verify`` runs the self-check suite,
``errata`` emits the printed-formula audit, and ``derive-law``
reconstructs the group law's polynomial coefficients.

Exit codes: 0 success, 1 usage or parse error (and a standard output
closed by its reader), 2 verification or adjudication failure.  Data goes
to standard output (or ``--out``); diagnostics go to standard error.
Identical invocations produce byte-identical output.

Output is written in chunks, of CHUNK_TEXTS trajectory rows or of
CHUNK_POINTS points, by one writer loop (``_emit_texts``).  A float
trajectory's rows cost mostly their reprs, and points do not depend on
each other, so where a second CPU is free a forked worker
(``worker.shared``) renders the odd chunks of either and this process
the even ones (``_chunk_results``); ``verify`` runs three of its four
float RK4 runs in such a worker.  An ``--out`` file that cannot be
written is exit 1.  The console script ends by ``os._exit`` after its
last flush, without the interpreter's teardown.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys
from contextlib import contextmanager
from functools import lru_cache
from itertools import islice, starmap
from typing import Callable, Iterable, Iterator, Optional

from . import derive_law as derive_law_mod
from . import errata as errata_mod
from . import verify as verify_mod
from .backend import (
    BACKENDS, EPS_CLASS, NOT_FINITE, RATIONAL, InputFormatError,
    is_float_backed, json_scalar, json_text, parse_scalar, ratio_text,
)
from .dynamics import (
    ChartUndefinedError, IntegratorConfig, OrbitParams,
    closed_form_trajectory, dual_flow_trajectory, integrate,
)
from .orbits import DualElement, classify, invariant_pairs, invariants
from .worker import shared

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_FAILED = 2

POINT_FIELDS = ("p", "e", "f", "k", "y")
# CSV output order for invariant columns; "f" is renamed to avoid
# colliding with the input force column
INVARIANT_COLUMNS = ("psi", "v", "s", "q", "tau", "u", "pi", "f")
INVARIANT_HEADERS = ("psi", "v", "s", "q", "tau", "u", "pi", "f_invariant")
CHUNK_TEXTS = 256
# A point's JSON item is about 490 bytes, a float row's CSV line 65.  On
# classify-batch's rational leg (1000 points, 30 cold runs on 2 CPUs)
# 256-point chunks (126 KB frames) raised the peak RSS by 0.4 MiB over one
# process, 128 by 0.1 MiB; 64-point chunks left it as it was and ran
# fastest of 32, 64, 128 and 256.
CHUNK_POINTS = 64


class _Parser(argparse.ArgumentParser):
    """argparse exits with status 2 on usage errors; the contract is 1.

    A token of ``-`` followed by a digit or ``.digit`` is a value, not an
    option (no option is spelled that way), so ``classify -1,2,3,4,5`` and
    ``simulate --k -3/2`` parse.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"-\.?\d")

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


# ---------------------------------------------------------------- input

def _parse_fields(text: str, count: int, backend: str, where: str) -> list:
    fields = [f.strip() for f in text.split(",")]
    if len(fields) != count:
        raise InputFormatError(
            f"{where}: expected {count} comma-separated values, "
            f"got {len(fields)}")
    values = []
    for column, field in enumerate(fields, start=1):
        try:
            values.append(parse_scalar(field, backend))
        except InputFormatError as exc:
            raise InputFormatError(f"{where}, field {column}: {exc}") from exc
    return values


def _parse_point(text: str, backend: str, where: str) -> DualElement:
    return DualElement._make(_parse_fields(text, 5, backend, where))


def _source_point(where: str, source, backend: str) -> DualElement:
    """The point of a source: its "p,e,f,k,y" text, or a JSON entry."""
    if isinstance(source, str):
        return _parse_point(source, backend, where)
    if len(source) != 5:
        raise InputFormatError(
            f"{where}: expected 5 values, got {len(source)}")
    try:
        return DualElement._make([parse_scalar(c, backend) for c in source])
    except InputFormatError as exc:
        raise InputFormatError(f"{where}: {exc}") from exc


def _json_points(path: str, text: str) -> list:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputFormatError(
            f"{path}: line {exc.lineno}, column {exc.colno}: {exc.msg}")
    if (isinstance(data, list) and len(data) == 5
            and not any(isinstance(c, list) for c in data)):
        data = [data]
    if not (isinstance(data, list) and data
            and all(isinstance(row, list) for row in data)):
        raise InputFormatError(
            f"{path}: expected a [p, e, f, k, y] array or an array of them")
    return [(f"{path}: entry {index}", row)
            for index, row in enumerate(data, start=1)]


def _csv_points(path: str, lines: list) -> list:
    first = 2 if lines and tuple(
        f.strip().lower() for f in lines[0].split(",")) == POINT_FIELDS else 1
    sources = [(f"{path}: line {lineno}", line)
               for lineno, line in enumerate(lines[first - 1:], start=first)
               if line.strip()]
    if not sources:
        raise InputFormatError(f"{path}: no points found")
    return sources


def _point_sources(args) -> list:
    """(where, source) for each input point, unparsed (``_source_point``
    reads it); ``where`` names its position, line or entry for error
    messages."""
    if args.in_path and args.points:
        raise InputFormatError("give points inline or via --in, not both")
    if not args.in_path:
        if not args.points:
            raise InputFormatError(
                'no input points; pass "p,e,f,k,y" arguments or --in PATH')
        return [(f"point {index}", text)
                for index, text in enumerate(args.points, start=1)]
    path = args.in_path
    try:
        with open(path, encoding="utf-8-sig") as handle:
            text = handle.read()
    except OSError as exc:
        raise InputFormatError(f"cannot read {path}: {exc}")
    if path.lower().endswith(".json"):
        return _json_points(path, text)
    return _csv_points(path, text.splitlines())


# --------------------------------------------------------------- output

def _dump_json(payload: dict) -> str:
    """RFC 8259 JSON; a NaN or infinity is an input error, not output."""
    try:
        return json.dumps(payload, indent=2, allow_nan=False) + "\n"
    except ValueError as exc:
        raise InputFormatError(f"{NOT_FINITE}: {exc}") from exc


@contextmanager
def _output(out_path: Optional[str]):
    """The --out file, or stdout without --out; a file that cannot be
    opened for writing is an input error."""
    if out_path:
        try:
            handle = open(out_path, "w", encoding="utf-8", newline="")
        except OSError as exc:
            raise InputFormatError(f"cannot write {out_path}: "
                                   f"{exc.strerror or exc}") from exc
        with handle:
            yield handle
    else:
        yield sys.stdout


def _emit(text: str, out_path: Optional[str]):
    with _output(out_path) as handle:
        handle.write(text)


@contextmanager
def _chunk_results(items: Iterator, size: int, work: Callable, fork: bool):
    """Yields ``work(chunk)`` for each chunk of ``size`` of ``items``, in
    order.

    With ``fork``, where a second CPU is free and there is a second chunk,
    a forked worker (``worker.shared``) takes the odd chunks while this
    process does the even ones.  The worker blocks while the pipe is full,
    so it runs at most a pipe's worth ahead.  A worker that ends before
    its last chunk is a ``ChildProcessError``.
    """
    chunks = iter(lambda: list(islice(items, size)), [])
    with shared(chunks, work, lambda index: fork and index % 2,
                "the rendering worker ended before its last chunk"
                ) as results:
        yield results


def _emit_texts(opening: str, texts: Iterable[str], separator: str,
                closing: str, out_path: Optional[str]):
    """Write ``opening + separator.join(texts) + closing`` as ``texts``
    produces the texts: a chunk's, not a row's, for a write per row is
    slow."""
    with _output(out_path) as handle:
        handle.write(opening)
        lead = ""
        for text in texts:
            handle.write(lead)
            handle.write(text)
            lead = separator
        handle.write(closing)


def _csv_line(cells) -> str:
    """One CSV line of ``cells``; a ``"%s"`` cell makes it a ``%`` template.

    A slot takes a scalar, its ``format_scalar`` text or a fixed
    identifier: ``str`` of each is its ``format_scalar`` text, and none
    holds a comma, quote or line break, so no field is quoted (RFC 4180).
    """
    return ",".join(cells) + "\r\n"


def _json_layout(head: dict, key: str) -> tuple:
    """(opening, separator, closing) of ``json.dumps({**head, key: [...]},
    indent=2) + "\n"`` around the array's items, each an ``_item_template``
    text.  The text around the array is ``json.dumps``'s own, checked
    before the output is opened."""
    opening, closing = _dump_json({**head, key: ["%s"]}).rsplit('"%s"', 1)
    return opening, "," + opening[opening.rindex("\n"):], closing


def _item_template(skeleton, quoted: bool = False) -> str:
    """``%`` template of ``skeleton`` as ``json.dumps(indent=2)`` lays out an
    item of an array held by the top-level object, first line unindented.
    Each ``"%s"`` string in ``skeleton`` is a slot for a JSON text, or with
    ``quoted`` for the text of a JSON string."""
    text = json.dumps([[skeleton]], indent=2)
    return text[len("[\n  [\n    "):-len("\n  ]\n]")].replace(
        "%", "%%").replace('"%%s"', '"%s"' if quoted else "%s")


# ------------------------------------------------------------- commands

@lru_cache(maxsize=None)
def _point_template(as_json: bool, exact: bool, cls, names: tuple) -> str:
    """One point's JSON item or CSV line: its input, its class and orbit
    dimension unless ``cls`` is None, and the invariants ``names`` (in CSV,
    all but k and y, the others' columns left blank).  Exact cells are
    rational text, quoted in JSON; float cells are floats, whose ``str``
    is their JSON text."""
    if as_json:
        labels = {} if cls is None else {"class": cls.value,
                                         "orbit_dimension": cls.dimension}
        return _item_template({"input": ["%s"] * 5, **labels,
                               "invariants": dict.fromkeys(names, "%s")},
                              quoted=exact)
    labels = [] if cls is None else [cls.value, str(cls.dimension)]
    return _csv_line(["%s"] * 5 + labels + [
        "%s" if name in names else "" for name in INVARIANT_COLUMNS])


def _cmd_points(args) -> int:
    """``classify``, and ``invariants``: the same without class and
    dimension.

    Points are read, labelled and rendered in chunks of CHUNK_POINTS by
    ``_chunk_results``, the odd chunks by a forked worker where a second
    CPU is free.  A chunk's result is its JSON items or CSV lines joined,
    or the message of its first failing point.  Nothing is written until
    every chunk is in, so the first input error in input order exits 1
    with nothing written.  Rational invariants are read as text off
    ``invariant_pairs``; a float one that is not finite is refused.
    """
    classified = args.command == "classify"
    as_json = args.format == "json"
    exact = args.backend == RATIONAL
    skip = 0 if as_json else 2  # CSV has no invariant columns k and y
    if as_json:
        opening, separator, closing = _json_layout(
            {"backend": args.backend}, "points")
    else:
        labels = ("class", "dimension") if classified else ()
        opening, separator, closing = _csv_line(
            POINT_FIELDS + labels + INVARIANT_HEADERS), "", ""

    def render(where: str, source) -> str:
        mu = _source_point(where, source, args.backend)
        cls = classify(mu, tol=args.tol) if classified else None
        if exact:
            pairs = invariant_pairs(mu)
            names = tuple(pairs)
            cells = list(starmap(ratio_text, islice(pairs.values(), skip,
                                                    None)))
        else:
            present = invariants(mu, tol=args.tol).as_dict()
            names = tuple(present)
            cells = list(islice(present.values(), skip, None))
            if not all(map(math.isfinite, cells)):
                value = next(c for c in cells if not math.isfinite(c))
                raise InputFormatError(f"{where}: {NOT_FINITE}: {value!r}")
        return _point_template(as_json, exact, cls, names) % (*mu, *cells)

    def label(chunk: list) -> tuple:
        try:
            return separator.join(starmap(render, chunk)), None
        except InputFormatError as exc:
            return None, str(exc)

    texts = []
    # a wrapped classify (a tracer's timer, say) sees the calls of its own
    # process only, so then every point stays here
    with _chunk_results(iter(_point_sources(args)), CHUNK_POINTS, label,
                        not hasattr(classify, "__wrapped__")) as results:
        for text, error in results:
            if error is not None:
                raise InputFormatError(error)
            texts.append(text)
    _emit_texts(opening, texts, separator, closing, args.out)
    return EXIT_OK


def _parse_flag(text: str, backend: str, flag: str):
    try:
        return parse_scalar(text, backend)
    except InputFormatError as exc:
        raise InputFormatError(f"{flag}: {exc}") from exc


def _parse_range(text: str, backend: str) -> tuple:
    parts = text.split(":")
    if len(parts) != 2:
        raise InputFormatError(f"--range: expected A:B, got {text!r}")
    return tuple(_parse_flag(part.strip(), backend, "--range")
                 for part in parts)


def _cmd_simulate(args) -> int:
    start, stop = _parse_range(args.range, args.backend)
    step = _parse_flag(args.step, args.backend, "--step")
    try:
        config = IntegratorConfig(step=step, start=start, stop=stop)
    except ValueError as exc:
        raise InputFormatError(str(exc))

    if args.f0 is not None and (args.dual or not args.closed_form
                                or args.picture != "space"):
        raise InputFormatError(
            "--f0 applies only to --picture space --closed-form")

    if args.dual:
        if args.mu is None:
            raise InputFormatError("--dual requires --mu \"p,e,f,k,y\"")
        mu = _parse_point(args.mu, args.backend, "--mu")
        trajectory = dual_flow_trajectory(mu, args.picture, config)
    else:
        if args.state is None or args.k is None or args.y is None:
            raise InputFormatError(
                "simulate needs --state, --k and --y (or --dual with --mu)")
        state = _parse_fields(args.state, 2, args.backend, "--state")
        params = OrbitParams(_parse_flag(args.k, args.backend, "--k"),
                             _parse_flag(args.y, args.backend, "--y"))
        if args.closed_form:
            f0 = None if args.f0 is None else _parse_flag(args.f0,
                                                          args.backend, "--f0")
            trajectory = closed_form_trajectory(args.picture, state, params,
                                                config, f0=f0)
        else:
            trajectory = integrate(args.picture, state, params, config)

    # every check above ran before the first byte; cells stream out.  Float
    # cells cost their reprs, which a second process shares; an exact
    # trajectory's cost is its cells, which a second process would repeat
    fork = is_float_backed(*trajectory.params.values())
    if args.format == "json":
        head = {"picture": trajectory.picture,
                "columns": list(trajectory.columns),
                "invariant": trajectory.invariant_name,
                "method": trajectory.method,
                "params": {name: json_scalar(value)
                           for name, value in trajectory.params.items()}}
        opening, separator, closing = _json_layout(head, "rows")
        row = _item_template(["%s"] * len(trajectory.columns))
        render = lambda cells: row % tuple(map(json_text, cells))  # noqa: E731
    else:
        opening, separator, closing = _csv_line(trajectory.columns), "", ""
        render = _csv_line(["%s"] * len(trajectory.columns)).__mod__
    with _chunk_results(trajectory.cell_factory(), CHUNK_TEXTS,
                        lambda chunk: separator.join(map(render, chunk)),
                        fork) as texts:
        _emit_texts(opening, texts, separator, closing, args.out)
    return EXIT_OK


def _require_rational(args, what: str):
    if args.backend != RATIONAL:
        raise InputFormatError(f"{what} adjudicates exactly and runs on the "
                               f"rational backend only")


def _require_samples(args):
    if args.samples < 1:
        raise InputFormatError(f"--samples must be at least 1, got {args.samples}")


def _emit_report(args, report: dict, render_text: Callable):
    """An adjudication report as JSON, or as ``render_text`` lays it out."""
    _emit(_dump_json(report) if args.format == "json"
          else render_text(report) + "\n", args.out)


def _cmd_verify(args) -> int:
    _require_rational(args, "verify")
    _require_samples(args)
    if args.mutate is not None and args.mutate not in verify_mod.MUTATIONS:
        known = ", ".join(sorted(verify_mod.MUTATIONS))
        raise InputFormatError(
            f"unknown mutation id {args.mutate!r}; known: {known}")
    report = verify_mod.run_suite(seed=args.seed, samples=args.samples,
                                  mutation=args.mutate)
    _emit_report(args, report, verify_mod.render_text)
    return EXIT_OK if report["all_passed"] else EXIT_FAILED


def _cmd_errata(args) -> int:
    _require_rational(args, "errata")
    _emit_report(args, errata_mod.build_report(seed=args.seed),
                 errata_mod.render_text)
    return EXIT_OK


def _cmd_derive_law(args) -> int:
    _require_rational(args, "derive-law")
    _require_samples(args)
    _emit_report(args, derive_law_mod.build_report(seed=args.seed,
                                                   samples=args.samples),
                 derive_law_mod.render_text)
    return EXIT_OK


# -------------------------------------------------------------- wiring

def _add_output_options(parser, formats, default_format):
    parser.add_argument("--backend", choices=BACKENDS, default=RATIONAL,
                        help="numeric backend (default rational)")
    parser.add_argument("--format", choices=formats, default=default_format,
                        help=f"output format (default {default_format})")
    parser.add_argument("--out", metavar="PATH",
                        help="write output to PATH instead of stdout")


def _tolerance(text: str) -> float:
    """``--tol``: a zero tolerance, finite and at least 0."""
    tol = float(text)
    if not 0 <= tol < math.inf:
        raise argparse.ArgumentTypeError(f"{text!r}: not a finite number >= 0")
    return tol


def _add_point_options(parser):
    parser.add_argument("points", nargs="*", metavar="POINT",
                        help='dual points as "p,e,f,k,y"')
    parser.add_argument("--in", dest="in_path", metavar="PATH",
                        help="read points from a JSON or CSV file")
    parser.add_argument("--tol", type=_tolerance, default=EPS_CLASS,
                        help="zero tolerance for float classification")


def build_parser() -> _Parser:
    parser = _Parser(
        prog="aristotle-orbits",
        description="Coadjoint orbits and dynamics of the doubly "
                    "centrally extended (1+1) Aristotle group.")
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_Parser)

    p = sub.add_parser("classify",
                       help="orbit class, dimension and invariants")
    _add_point_options(p)
    _add_output_options(p, ("json", "csv"), "json")
    p.set_defaults(func=_cmd_points)

    p = sub.add_parser("invariants", help="orbit invariants only")
    _add_point_options(p)
    _add_output_options(p, ("json", "csv"), "json")
    p.set_defaults(func=_cmd_points)

    p = sub.add_parser("simulate", help="evolve a state or a dual point")
    p.add_argument("--picture", choices=("time", "space"), required=True,
                   help="evolution parameter: t (time) or x (space)")
    p.add_argument("--state", metavar="C1,C2",
                   help='chart state "q,p" (time) or "tau,e" (space)')
    p.add_argument("--k", help="Hooke constant")
    p.add_argument("--y", help="yank")
    p.add_argument("--f0", help="initial force (space closed form only; "
                                "defaults to the on-orbit value y*tau0)")
    p.add_argument("--mu", metavar="P,E,F,K,Y",
                   help="dual point for --dual mode")
    p.add_argument("--range", default="0:10", metavar="A:B",
                   help="parameter range (default 0:10)")
    p.add_argument("--step", default="0.001", metavar="H",
                   help="grid step (default 0.001)")
    p.add_argument("--closed-form", action="store_true",
                   help="sample the exact solution instead of integrating")
    p.add_argument("--dual", action="store_true",
                   help="evolve (p,e,f) on the dual; total, needs no chart")
    _add_output_options(p, ("json", "csv"), "csv")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("verify", help="run the structural self-check suite")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--samples", type=int, default=1000,
                   help="reported, read by no check: every rational check "
                        "is a proof (default 1000)")
    p.add_argument("--mutate", metavar="ID",
                   help="run against a deliberately broken structure tensor")
    _add_output_options(p, ("text", "json"), "text")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("errata",
                       help="audit printed formulas against derived ones")
    p.add_argument("--seed", type=int, default=0)
    _add_output_options(p, ("text", "json"), "text")
    p.set_defaults(func=_cmd_errata)

    p = sub.add_parser("derive-law",
                       help="reconstruct the group law's polynomials")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--samples", type=int, default=1000,
                   help="fresh verification points (default 1000)")
    _add_output_options(p, ("text", "json"), "text")
    p.set_defaults(func=_cmd_derive_law)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (InputFormatError, ChartUndefinedError) as exc:
        print(f"aristotle-orbits: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ArithmeticError, ChildProcessError) as exc:
        print(f"aristotle-orbits: error: {exc}", file=sys.stderr)
        return EXIT_FAILED


def entrypoint():
    """``main`` as a console script: exit with its code, after the last
    flush, by ``os._exit``.  The interpreter's teardown would only free
    what the exit frees (``--out`` files are closed by then); if a flush
    fails, ``sys.exit`` reports it.  A reader that closes standard output
    early (``| head``) ends the run quietly with exit 1."""
    try:
        code = main()
    except BrokenPipeError:  # the reader went away; so does what it missed
        code = EXIT_USAGE
    try:
        sys.stdout.flush()
        sys.stderr.flush()
    except BrokenPipeError:
        code = EXIT_USAGE
    except OSError:
        sys.exit(code)
    os._exit(code)
