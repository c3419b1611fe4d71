"""Command-line front end over the JSON formats.

Eight subcommands: synthesize, matrix, psd, recurrence, extend, solve,
solve-k, verify. Files in and out are JSON; degree-lex ordering inside the
files is normative so identical inputs and flags produce byte-identical
outputs.

Exit codes:
    0  success or an affirmative verdict
    2  a structured negative outcome (non-Success solve status, failed PSD
       verdict, residual above tolerance, no detectable recurrence)
    1  malformed input or bad invocation, reported with the offending
       path or field on stderr
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import fields, replace
from pathlib import Path

import numpy as np

from .binet import AtomicMeasure, evaluate_moments
from .errors import MomentError
from .moments import (
    MomentMatrix,
    TruncatedSequence,
    build_localizing_matrix,
    build_moment_matrix,
    psd_check,
)
from .polynomials import MultivariatePoly
from .recurrence import detect_characteristic_system, extend_sequence
from .sampling import minimal_tau, sample_measure
from .solver import (
    STATUS_SUCCESS,
    SemialgebraicSet,
    Tolerances,
    solve_constrained,
    solve_full,
    verify_measure,
)

__all__ = ["main"]


class _InputError(Exception):
    """Malformed file, schema, or request; always exits 1."""


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors by default, but this CLI reserves 2
    # for structured negative outcomes, so bad usage exits 1 instead
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(1)


def _json_default(obj):
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.bool_):
        return bool(obj)
    raise TypeError(f"not JSON serializable: {type(obj).__name__}")


def _emit(payload: dict, out_path: str | None) -> None:
    text = json.dumps(payload, indent=2, default=_json_default) + "\n"
    if out_path:
        Path(out_path).write_text(text)
    else:
        sys.stdout.write(text)


def _read_json(path: str):
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise _InputError(f"cannot read {path}: {exc.strerror or exc}") from exc
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise _InputError(f"{path} is not valid JSON: {exc}") from exc


def _load(path: str, loader, what: str):
    data = _read_json(path)
    try:
        return loader(data)
    except (KeyError, TypeError, ValueError) as exc:
        raise _InputError(f"{path}: bad {what}: {exc}") from exc


def _load_constraints(data) -> SemialgebraicSet:
    if not isinstance(data, dict) or "constraints" not in data:
        raise ValueError("constraints JSON needs a 'constraints' list")
    polys = tuple(MultivariatePoly.from_dict(entry) for entry in data["constraints"])
    return SemialgebraicSet(polys)


def _tolerances(args) -> Tolerances:
    overrides = {}
    for field in fields(Tolerances):
        value = getattr(args, f"tol_{field.name}", None)
        if value is not None:
            overrides[field.name] = value
    try:
        return replace(Tolerances(), **overrides)
    except ValueError as exc:
        raise _InputError(str(exc)) from exc


def _status_name(exc: MomentError) -> str:
    name = type(exc).__name__
    return name[: -len("Error")] if name.endswith("Error") else name


def _cmd_synthesize(args) -> int:
    if args.measure:
        measure = _load(args.measure, AtomicMeasure.from_dict, "measure JSON")
    else:
        measure = sample_measure(np.random.default_rng(args.seed))
    degree = args.degree
    if degree is None:
        degree = 2 * (minimal_tau(measure) + 1)
    if degree < 0:
        raise _InputError("--degree must be nonnegative")
    try:
        moments = evaluate_moments(measure, degree)
    except ValueError as exc:
        raise _InputError(str(exc)) from exc
    _emit(moments.to_dict(), args.out)
    return 0


def _cmd_matrix(args) -> int:
    seq = _load(args.in_path, TruncatedSequence.from_dict, "moments JSON")
    try:
        if args.localize:
            q = _load(args.localize, MultivariatePoly.from_dict, "polynomial JSON")
            matrix = build_localizing_matrix(seq, args.order, q)
        else:
            matrix = build_moment_matrix(seq, args.order)
    except ValueError as exc:
        raise _InputError(str(exc)) from exc
    _emit(matrix.to_dict(), args.out)
    return 0


def _cmd_psd(args) -> int:
    data = _read_json(args.in_path)
    try:
        if isinstance(data, dict) and "entries" in data:
            matrix = MomentMatrix.from_dict(data)
        elif isinstance(data, dict) and "moments" in data:
            if args.order is None:
                raise ValueError("--order is required for a moments file")
            matrix = build_moment_matrix(TruncatedSequence.from_dict(data), args.order)
        else:
            raise ValueError("expected a matrix JSON or a moments JSON")
    except (KeyError, TypeError, ValueError) as exc:
        raise _InputError(f"{args.in_path}: {exc}") from exc
    tol = _tolerances(args).psd
    check = psd_check(matrix, tol)
    _emit(
        {
            "order": matrix.order,
            "kind": matrix.kind,
            "min_eigenvalue": check.min_eigenvalue,
            "threshold": check.threshold,
            "is_psd": check.is_psd,
        },
        args.out,
    )
    return 0 if check.is_psd else 2


def _cmd_recurrence(args) -> int:
    seq = _load(args.in_path, TruncatedSequence.from_dict, "moments JSON")
    tol = _tolerances(args)
    system = detect_characteristic_system(seq, tol.residual)
    _emit(system.to_dict(), args.out)
    return 0


def _cmd_extend(args) -> int:
    seq = _load(args.in_path, TruncatedSequence.from_dict, "moments JSON")
    if args.degree < seq.max_degree:
        raise _InputError(
            f"--degree {args.degree} is below the input degree {seq.max_degree}"
        )
    tol = _tolerances(args)
    system = detect_characteristic_system(seq, tol.residual)
    extended = extend_sequence(seq, system, args.degree)
    _emit(extended.to_dict(), args.out)
    return 0


def _cmd_solve(args) -> int:
    seq = _load(args.in_path, TruncatedSequence.from_dict, "moments JSON")
    report = solve_full(seq, _tolerances(args))
    _emit(report.to_dict(), args.out)
    return 0 if report.status == STATUS_SUCCESS else 2


def _cmd_solve_k(args) -> int:
    seq = _load(args.in_path, TruncatedSequence.from_dict, "moments JSON")
    constraints = _load(args.constraints, _load_constraints, "constraints JSON")
    try:
        report = solve_constrained(seq, constraints, _tolerances(args))
    except ValueError as exc:
        raise _InputError(str(exc)) from exc
    _emit(report.to_dict(), args.out)
    return 0 if report.status == STATUS_SUCCESS else 2


def _cmd_verify(args) -> int:
    seq = _load(args.in_path, TruncatedSequence.from_dict, "moments JSON")
    measure = _load(args.measure, AtomicMeasure.from_dict, "measure JSON")
    tol = _tolerances(args)
    try:
        residual = verify_measure(measure, seq)
    except ValueError as exc:
        raise _InputError(str(exc)) from exc
    ok = residual <= tol.residual
    _emit({"residual": residual, "tolerance": tol.residual, "ok": ok}, args.out)
    return 0 if ok else 2


def _build_parser() -> _Parser:
    parser = _Parser(
        prog="momentrec",
        description="Recover atomic measures from truncated moment sequences.",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    tol_flags = _Parser(add_help=False)
    for field in fields(Tolerances):
        tol_flags.add_argument(
            f"--tol-{field.name}",
            type=float,
            default=None,
            dest=f"tol_{field.name}",
            metavar="T",
            help=f"override the {field.name} tolerance",
        )

    out_flag = _Parser(add_help=False)
    out_flag.add_argument(
        "--out", default=None, metavar="PATH", help="output JSON path (default stdout)"
    )

    in_flag = _Parser(add_help=False)
    in_flag.add_argument(
        "--in",
        dest="in_path",
        required=True,
        metavar="PATH",
        help="input moments JSON",
    )

    p = sub.add_parser(
        "synthesize",
        parents=[out_flag],
        help="moments of a measure (random when --measure is omitted)",
    )
    p.add_argument("--measure", default=None, metavar="PATH", help="measure JSON")
    p.add_argument(
        "--degree",
        type=int,
        default=None,
        help="truncation degree (default 2(tau+1) of the measure)",
    )
    p.add_argument(
        "--seed", type=int, default=0, help="RNG seed for a random measure (default 0)"
    )
    p.set_defaults(handler=_cmd_synthesize)

    p = sub.add_parser(
        "matrix", parents=[in_flag, out_flag], help="moment or localizing matrix"
    )
    p.add_argument("--order", type=int, required=True, help="matrix order n")
    p.add_argument(
        "--localize",
        default=None,
        metavar="PATH",
        help="polynomial JSON for a localizing matrix",
    )
    p.set_defaults(handler=_cmd_matrix)

    p = sub.add_parser(
        "psd",
        parents=[in_flag, out_flag, tol_flags],
        help="PSD verdict of a matrix (or moments plus --order)",
    )
    p.add_argument(
        "--order", type=int, default=None, help="matrix order when --in is moments"
    )
    p.set_defaults(handler=_cmd_psd)

    p = sub.add_parser(
        "recurrence",
        parents=[in_flag, out_flag, tol_flags],
        help="detect the minimal per-variable recurrences",
    )
    p.set_defaults(handler=_cmd_recurrence)

    p = sub.add_parser(
        "extend",
        parents=[in_flag, out_flag, tol_flags],
        help="extend moments to a higher degree via detected recurrences",
    )
    p.add_argument("--degree", type=int, required=True, help="target degree")
    p.set_defaults(handler=_cmd_extend)

    p = sub.add_parser(
        "solve",
        parents=[in_flag, out_flag, tol_flags],
        help="full recovery pipeline, writes a report",
    )
    p.set_defaults(handler=_cmd_solve)

    p = sub.add_parser(
        "solve-k",
        parents=[in_flag, out_flag, tol_flags],
        help="recovery plus support constraints, writes a report",
    )
    p.add_argument(
        "--constraints", required=True, metavar="PATH", help="constraints JSON"
    )
    p.set_defaults(handler=_cmd_solve_k)

    p = sub.add_parser(
        "verify",
        parents=[in_flag, out_flag, tol_flags],
        help="residual of a measure against moments",
    )
    p.add_argument("--measure", required=True, metavar="PATH", help="measure JSON")
    p.set_defaults(handler=_cmd_verify)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except _InputError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    except MomentError as exc:
        _emit(
            {"status": _status_name(exc), "message": str(exc)},
            getattr(args, "out", None),
        )
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
