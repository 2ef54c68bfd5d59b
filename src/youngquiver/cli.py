"""Command-line entry point for verification sweeps and table exports.

Exit codes: 0 = pass, 1 = a mathematical check failed, 2 = usage or bounds
error (a bad option, partition or config value, a configured bound exceeded,
or a file that cannot be read or written), 3 = internal error (an
``ArithmeticError`` or any other ``ValueError`` raised inside the toolkit,
never a verdict).  Certificates go to stdout as JSON (or to --out); every
sweep is deterministic, so certificates are byte-stable across runs apart
from the elapsed_ms field.
"""

import argparse
import json
import sys
from typing import Callable, NamedTuple

from . import qdual, quiver, resolution
from ._version import __version__
from .certificates import Certificate
from .config import BoundExceededError, Bounds, load_bounds
from .partitions import (
    contains,
    format_partition,
    parse_partition,
    partition_rows,
    partition_rows_up_to,
    partitions_up_to,
    subdiagram_rows,
)
from .qdual import verify_quadratic_duality
from .resolution import verify_resolution
from .signs import verify_signs_sweep
from .symgroup import verify_branching, verify_idempotent_system

MATH_FAILURE = 1
USAGE_ERROR = 2
INTERNAL_ERROR = 3


class UsageError(ValueError):
    """An option, partition or config value the command cannot run with."""


class Sweep(NamedTuple):
    """One ``verify`` target.  ``flags`` maps each option the target reads
    to the driver parameter it fills; an option without a default is
    required.  ``battery`` holds the driver arguments of each run in the
    default battery."""

    driver: Callable[..., Certificate]
    flags: dict[str, str]
    battery: tuple[tuple, ...]


SWEEPS = {
    "signs": Sweep(verify_signs_sweep, {"--max-size": "max_size"}, ((10,),)),
    "resolution": Sweep(
        verify_resolution,
        {"--xi": "xi", "--depth": "depth", "--dump-matrices": "dump_matrices"},
        tuple((xi, 6) for xi in partitions_up_to(4)),
    ),
    "qdual": Sweep(verify_quadratic_duality, {"--max-size": "max_size"}, ((7,),)),
    "morita": Sweep(
        verify_branching, {"--n": "n_max", "--direct-n": "direct_n_max"}, ((5, 3),)
    ),
    "idempotents": Sweep(verify_idempotent_system, {"--n": "n_max"}, ((5,),)),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="youngquiver",
        description="Exact verification of the Young-lattice quiver with relations, "
        "its sign assignment, linear resolutions, and quadratic self-duality.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    quiver_p = sub.add_parser("quiver", help="render the lattice slice")
    quiver_p.add_argument("--max-size", type=int, required=True)
    quiver_p.add_argument("--format", choices=("text", "json", "dot"), default="text")
    quiver_p.add_argument("--signs", action="store_true", help="label arrows with signs")
    quiver_p.add_argument("--out")

    verify_p = sub.add_parser("verify", help="run a verification sweep")
    verify_p.add_argument("target", choices=tuple(SWEEPS))
    verify_p.add_argument("--max-size", type=int, help="signs/qdual sweep bound")
    verify_p.add_argument("--xi", help="base partition for resolution, e.g. 2,1")
    verify_p.add_argument("--depth", type=int, help="resolution truncation depth")
    verify_p.add_argument("--n", type=int, help="symmetric group degree bound")
    verify_p.add_argument(
        "--direct-n", type=int, default=3, help="degree cap for direct idempotent ranks"
    )
    verify_p.add_argument("--dump-matrices", action="store_true")
    verify_p.add_argument("--format", choices=("text", "json"), default="json")
    verify_p.add_argument("--out")

    table_p = sub.add_parser("table", help="print a deterministic table")
    table_p.add_argument("target", choices=("pieri", "betti", "dualdims"))
    table_p.add_argument("--mu", help="source partition for pieri")
    table_p.add_argument("--m", type=int, help="added node count for pieri")
    table_p.add_argument("--xi", help="base partition for betti")
    table_p.add_argument("--depth", type=int, help="depth for betti")
    table_p.add_argument("--max-size", type=int, help="size bound for dualdims")
    table_p.add_argument("--format", choices=("text", "json"), default="text")
    table_p.add_argument("--out")

    return parser


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        with open(out_path, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
    else:
        print(text)


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise UsageError(message)


def _check_options(args) -> None:
    """Reject bad option values before any work.  Every integer option is a
    size, degree, depth or count, so none may be negative; partitions are
    parsed here."""
    for dest, value in list(vars(args).items()):
        if type(value) is int:
            flag = "--" + dest.replace("_", "-")
            _require(value >= 0, f"{flag} must be non-negative, got {value}")
        elif dest in ("xi", "mu") and value is not None:
            setattr(args, dest, parse_partition(value))


def _checked_input(args) -> Bounds:
    """Check the options and load the bounds.  A ``ValueError`` here comes
    from bad input, so it is re-raised as a ``UsageError``."""
    try:
        _check_options(args)
        return load_bounds()
    except ValueError as exc:
        raise UsageError(exc) from exc


def _cmd_quiver(args, bounds) -> int:
    slice_ = quiver.quiver_slice(args.max_size, bounds)
    _emit(quiver.render(slice_, args.format, args.signs), args.out)
    return 0


def _cmd_verify(args, bounds) -> int:
    sweep = SWEEPS[args.target]
    values = {flag: getattr(args, flag[2:].replace("-", "_")) for flag in sweep.flags}
    missing = [flag for flag, value in values.items() if value is None]
    _require(not missing, f"verify {args.target} requires {' and '.join(missing)}")
    _require(args.target != "resolution" or args.depth > 0,
             f"verify resolution requires --depth of at least 1, got {args.depth}")
    certificate = sweep.driver(
        **{sweep.flags[flag]: value for flag, value in values.items()}, bounds=bounds
    )

    if args.format == "json":
        _emit(certificate.to_json(), args.out)
    else:
        lines = [f"{certificate.command}: {certificate.verdict}"]
        for key, value in certificate.counts.items():
            lines.append(f"  {key}: {value}")
        if certificate.first_failure:
            lines.append(f"  first failure: {certificate.first_failure}")
        _emit("\n".join(lines), args.out)
    return 0 if certificate.passed else MATH_FAILURE


def _table_rows(args, bounds) -> list[tuple[str, int]]:
    if args.target == "pieri":
        _require(args.mu is not None and args.m is not None,
                 "table pieri requires --mu and --m")
        mu = args.mu.rows
        return [
            (format_partition(lam), quiver.hom_dim_C(mu, lam))
            for lam in partition_rows(sum(mu) + args.m, bounds)
            if contains(lam, mu)
        ]
    if args.target == "betti":
        _require(args.xi is not None and args.depth is not None,
                 "table betti requires --xi and --depth")
        table = resolution.betti_table(args.xi, args.depth, bounds)
        return [
            (f"{i}:{format_partition(lam)}", flag)
            for (i, lam), flag in sorted(table.items(), key=lambda kv: (-kv[0][0], kv[0][1]))
        ]
    _require(args.max_size is not None, "table dualdims requires --max-size")
    presentation = qdual.build_quadratic_dual(args.max_size, bounds)
    return [
        (f"{format_partition(mu)}->{format_partition(lam)}", presentation.walk(mu).get(lam, 0))
        for lam in partition_rows_up_to(args.max_size, bounds)
        for mu in subdiagram_rows(lam)
    ]


def _cmd_table(args, bounds) -> int:
    rows = _table_rows(args, bounds)
    if args.format == "json":
        _emit(json.dumps({"target": args.target, "rows": rows}, indent=2), args.out)
    else:
        _emit("\n".join(f"{key}: {value}" for key, value in rows), args.out)
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        bounds = _checked_input(args)
        if args.command == "quiver":
            return _cmd_quiver(args, bounds)
        if args.command == "verify":
            return _cmd_verify(args, bounds)
        return _cmd_table(args, bounds)
    except (BoundExceededError, UsageError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except (ArithmeticError, ValueError) as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return INTERNAL_ERROR


if __name__ == "__main__":
    sys.exit(main())
