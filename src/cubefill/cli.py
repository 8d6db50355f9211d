"""Command line for generating, filling, checking and tabulating cycles.

Reports are text, or JSON (command, inputs, results, status) with ``--json``.
Each command returns its status and results; ``main`` alone reads the chain
file, turns any ``ValueError`` raised reading it or running the command into
exit 2, emits the report and reads the exit code off the status: 0 ok, 2
invalid input, 3 bound violation or engine error, 4 I/O.  ``fill`` alone
refuses a non-cycle with exit 2, listing its boundary as ``verify`` does, and
maps any other engine exception to exit 3.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from .chainfile import read_chain, write_chain
from .chains import Chain, random_cycle
from .constants import BOUND_REL_TOL, c_constant, leq_with_tolerance
from .faces import MAX_COORDINATES, _words, face_count
from .filling import (
    DEFAULT_NODE_BUDGET,
    FillRefused,
    connected_components,
    exact_fill,
    linear_fill,
    recursive_fill,
    support_subcube,
)
from .minimizers import (SharpnessRow, minimizer_cycle, minimizer_fill_value, minimizer_norm,
                         sharpness_table)

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_BOUND_VIOLATION = 3
EXIT_IO = 4
_EXIT_CODES = {"ok": EXIT_OK, "invalid-input": EXIT_INVALID,
               "bound-violation": EXIT_BOUND_VIOLATION, "engine-error": EXIT_BOUND_VIOLATION}
# what argparse parses besides a command's inputs
_NOT_INPUTS = ("command", "func", "json", "csv")

CSV_HEADER = ",".join(SharpnessRow._fields)

_MAX_LISTED_FACES = 20
# random_cycle draws every (k+1)-cell of Q_n; (14, 4) has 1,025,024 of them.
_MAX_RANDOM_CELLS = 1 << 20
# sharpness holds its whole table, about 2 KB a row with --json
_MAX_SHARPNESS_ROWS = 1 << 16


def _emit(report: dict, as_json: bool) -> None:
    if as_json:
        print(json.dumps(report, indent=2))
        return
    print(f"{report['command']}: {report['status']}")
    for section in ("inputs", "results"):
        for key, value in report[section].items():
            if isinstance(value, list):
                value = " ".join(str(v) for v in value)
            elif value is None:
                value = "null"
            print(f"  {key}: {value}")


def _listed_boundary(boundary: Chain) -> dict:
    listed = sorted(boundary.codes)[:_MAX_LISTED_FACES]
    return {
        "boundary_norm": boundary.norm,
        "boundary_faces": _words(listed, boundary.n),
    }


def _invalid(message: str, **extra) -> tuple[str, dict]:
    return "invalid-input", {"error": message, **extra}


def _cmd_gen_minimizer(args: argparse.Namespace) -> tuple[str, dict]:
    if not 1 <= args.k < args.n <= 20:
        return _invalid("need 1 <= k < n <= 20")
    chain = minimizer_cycle(args.n, args.k)
    write_chain(chain, args.out)
    fill_value = minimizer_fill_value(args.n, args.k)
    return "ok", {
        "norm": chain.norm,
        "norm_formula": f"2*C({args.n},{args.k}) = {minimizer_norm(args.n, args.k)}",
        "fill_value": fill_value,
        "fill_formula": f"C({args.n},{args.k + 1}) = {fill_value}",
    }


def _certificate_fields(z: Chain, result) -> dict:
    if result.strategy == "linear":
        formula = f"(n-k)/(2(k+1))*norm = ({z.n}-{z.k})/(2*({z.k}+1))*{z.norm}"
    elif result.strategy == "recursive":
        formula = f"c_k*norm^((k+1)/k) with k={z.k}, c_k={c_constant(z.k)!r}, norm={z.norm}"
    elif result.optimal:
        formula = "minimum filling weight (search completed)"
    else:
        formula = "best filling weight found within the node budget"
    certificate = result.bound_certificate
    return {
        "certificate": str(certificate) if isinstance(certificate, Fraction) else certificate,
        "certificate_float": float(certificate),
        "certificate_formula": formula,
    }


def _bound_holds(result) -> bool:
    if result.lower_bound is not None and result.lower_bound > result.filling.norm:
        return False
    certificate = result.bound_certificate
    if isinstance(certificate, Fraction):
        return result.filling.norm <= certificate
    return leq_with_tolerance(float(result.filling.norm), float(certificate), BOUND_REL_TOL)


def _cmd_fill(args: argparse.Namespace, z: Chain) -> tuple[str, dict]:
    try:
        if args.strategy == "linear":
            result = linear_fill(z)
        elif args.strategy == "recursive":
            result = recursive_fill(z)
        else:
            result = exact_fill(z, args.budget)
    except FillRefused as exc:
        if exc.boundary is None:
            raise
        return _invalid("input chain is not a cycle", n=z.n, k=z.k, input_norm=z.norm,
                        **_listed_boundary(exc.boundary))
    except Exception as exc:
        return "engine-error", {"error": f"{type(exc).__name__}: {exc}"}
    out_path = f"{args.path}.fill"
    write_chain(result.filling, out_path)
    valid = result.filling.boundary() == z
    results = {
        "n": z.n,
        "k": z.k,
        "input_norm": z.norm,
        "filling_path": out_path,
        "filling_norm": result.filling.norm,
        "optimal": result.optimal,
        "nodes_explored": result.nodes_explored,
        "lower_bound": result.lower_bound,
    }
    results.update(_certificate_fields(z, result))
    return "ok" if valid and _bound_holds(result) else "bound-violation", results


def _cmd_verify(args: argparse.Namespace, z: Chain) -> tuple[str, dict]:
    boundary = z.boundary()
    results = {
        "n": z.n,
        "k": z.k,
        "norm": z.norm,
        "cycle": not boundary.codes,
        "components": len(connected_components(z)),
        "support_active_coordinates": support_subcube(z).dim,
    }
    if boundary.codes:
        results.update(_listed_boundary(boundary))
    return "ok", results


def _cmd_sharpness(args: argparse.Namespace) -> tuple[str, dict] | None:
    if not 1 <= args.k < args.n_max <= args.k + _MAX_SHARPNESS_ROWS:
        return _invalid(f"need k >= 1 and k < n_max <= k + {_MAX_SHARPNESS_ROWS}")
    rows = sharpness_table(args.k, range(args.k + 1, args.n_max + 1))
    if args.csv:
        print(CSV_HEADER)
        for row in rows:
            print(",".join(map(repr, row)))
    elif args.json:
        return "ok", {"rows": [row._asdict() for row in rows]}
    else:
        print(f"{'n':>6} {'norm':>12} {'fill':>14} "
              f"{'ratio':>12} {'asymptote':>12} {'quotient':>10}")
        for row in rows:
            print(
                f"{row.n:>6} {row.norm:>12} {row.fill:>14} "
                f"{row.ratio:>12.8f} {row.asymptote:>12.8f} {row.quotient:>10.6f}"
            )


def _cmd_random(args: argparse.Namespace) -> tuple[str, dict]:
    if args.n > MAX_COORDINATES or face_count(args.n, args.k + 1) > _MAX_RANDOM_CELLS:
        return _invalid(f"need n <= {MAX_COORDINATES} and at most 2**20 cells of dimension k+1")
    z = random_cycle(args.n, args.k, args.density, args.seed)
    write_chain(z, args.out)
    # random_cycle returns a boundary, and every boundary is a cycle
    return "ok", {"norm": z.norm, "cycle": True}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cubefill",
        description="Generate, fill, check and tabulate Z2 cycles in the n-cube.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true")

    gen = sub.add_parser("gen-minimizer", parents=[common],
                         help="write an alternating-block cycle to a chain file")
    gen.add_argument("n", type=int)
    gen.add_argument("k", type=int)
    gen.add_argument("--out", required=True, help="output chain file")
    gen.set_defaults(func=_cmd_gen_minimizer)

    fill = sub.add_parser("fill", parents=[common], help="fill the cycle in a chain file")
    fill.add_argument("path", help="input chain file; the filling goes to <path>.fill")
    fill.add_argument(
        "--strategy", choices=("linear", "recursive", "exact"), default="linear"
    )
    fill.add_argument("--budget", type=int, default=DEFAULT_NODE_BUDGET,
                      help="node budget for the exact search")
    fill.set_defaults(func=_cmd_fill)

    verify = sub.add_parser("verify", parents=[common],
                            help="report cycle status and shape of a chain file")
    verify.add_argument("path")
    verify.set_defaults(func=_cmd_verify)

    sharp = sub.add_parser("sharpness", parents=[common],
                           help="tabulate fill/norm ratios for the extremal family")
    sharp.add_argument("k", type=int)
    sharp.add_argument("--n-max", type=int, default=20)
    sharp.add_argument("--csv", action="store_true")
    sharp.set_defaults(func=_cmd_sharpness)

    rand = sub.add_parser("random", parents=[common],
                          help="write a seeded random cycle to a chain file")
    rand.add_argument("n", type=int)
    rand.add_argument("k", type=int)
    rand.add_argument("--density", type=float, default=0.1)
    rand.add_argument("--seed", type=int, default=0)
    rand.add_argument("--out", required=True)
    rand.set_defaults(func=_cmd_random)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    inputs = {key: value for key, value in vars(args).items() if key not in _NOT_INPUTS}
    try:
        try:
            chains = [read_chain(args.path)] if "path" in inputs else []
            outcome = args.func(args, *chains)
        except ValueError as exc:  # ChainFormatError, FillRefused, a library argument check
            outcome = _invalid(str(exc))
        if outcome is None:  # sharpness printed its table
            return EXIT_OK
        status, results = outcome
        report = {"command": args.command, "inputs": inputs, "results": results, "status": status}
        _emit(report, args.json)
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    return _EXIT_CODES[status]
