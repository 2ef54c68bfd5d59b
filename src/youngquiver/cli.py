"""Command-line entry point for verification sweeps and table exports.

Exit codes: 0 = pass, 1 = a mathematical check failed, 2 = usage or bounds
error (a bad option, including one the target does not read, a bad partition,
integer or config value, a configured bound exceeded, or a file that cannot
be read or written; each prints one ``error:`` line), 3 = internal error (an
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
from .config import BoundExceededError, load_bounds
from .partitions import (
    contains,
    format_partition,
    parse_partition,
    partition_rows,
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


class _Parser(argparse.ArgumentParser):
    """Raises each grammar error as a ``UsageError``, which ``main`` reports
    on one line like any other bad input."""

    def error(self, message):
        raise UsageError(message)


def _non_negative(text: str) -> int:
    """A size, degree, depth or count, in ASCII digits: int() would also
    take "1_0", "+3" and non-ASCII digits."""
    digits = text.strip()
    if digits.isascii() and digits.isdigit():
        return int(digits)
    if digits[:1] == "-" and digits[1:].isascii() and digits[1:].isdigit():
        raise argparse.ArgumentTypeError(f"must be non-negative, got {digits}")
    raise argparse.ArgumentTypeError(f"cannot parse non-negative integer {text!r}")


def _partition(text: str):
    try:
        return parse_partition(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(exc) from exc


class Sweep(NamedTuple):
    """One ``verify`` or ``table`` target.  ``flags`` maps each option the
    target reads to the driver parameter it fills, which is also the
    option's dest; the target accepts no other option.  ``battery`` holds
    the driver arguments of each run in the default battery; a table has
    none."""

    driver: Callable
    flags: dict[str, str]
    battery: tuple[tuple, ...] = ()


# every option a target can read, converted and checked by argparse
OPTIONS = {
    "--max-size": dict(type=_non_negative, required=True, help="largest diagram size swept"),
    "--xi": dict(type=_partition, required=True, help="base partition, e.g. 2,1"),
    "--depth": dict(type=_non_negative, required=True, help="resolution truncation depth"),
    "--n": dict(type=_non_negative, required=True, help="symmetric group degree bound"),
    "--direct-n": dict(
        type=_non_negative, default=3, help="degree cap for direct idempotent ranks"
    ),
    "--dump-matrices": dict(action="store_true", help="add every nonzero differential"),
    "--mu": dict(type=_partition, required=True, help="source partition, e.g. 2"),
    "--m": dict(type=_non_negative, required=True, help="number of added nodes"),
}

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


def _pieri_rows(mu, m, bounds) -> list[tuple[str, int]]:
    return [
        (format_partition(lam), quiver.hom_dim_C(mu.rows, lam))
        for lam in partition_rows(mu.size + m, bounds)
        if contains(lam, mu.rows)
    ]


def _betti_rows(xi, depth, bounds) -> list[tuple[str, int]]:
    table = resolution.betti_table(xi, depth, bounds)
    return [
        (f"{i}:{format_partition(lam)}", flag)
        for (i, lam), flag in sorted(table.items(), key=lambda kv: (-kv[0][0], kv[0][1]))
    ]


def _dualdims_rows(max_size, bounds) -> list[tuple[str, int]]:
    presentation = qdual.build_quadratic_dual(max_size, bounds)
    return [
        (f"{format_partition(mu)}->{format_partition(lam)}", presentation.walk(mu).get(lam, 0))
        for lam in presentation.objects
        for mu in subdiagram_rows(lam)
    ]


TABLES = {
    "pieri": Sweep(_pieri_rows, {"--mu": "mu", "--m": "m"}),
    "betti": Sweep(_betti_rows, {"--xi": "xi", "--depth": "depth"}),
    "dualdims": Sweep(_dualdims_rows, {"--max-size": "max_size"}),
}


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="youngquiver",
        description="Exact verification of the Young-lattice quiver with relations, "
        "its sign assignment, linear resolutions, and quadratic self-duality.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    quiver_p = sub.add_parser("quiver", help="render the lattice slice")
    quiver_p.add_argument("--max-size", **OPTIONS["--max-size"])
    quiver_p.add_argument("--format", choices=("text", "json", "dot"), default="text")
    quiver_p.add_argument("--signs", action="store_true", help="label arrows with signs")
    quiver_p.add_argument("--out")

    for command, targets, default_format, help_text in (
        ("verify", SWEEPS, "json", "run a verification sweep"),
        ("table", TABLES, "text", "print a deterministic table"),
    ):
        command_p = sub.add_parser(command, help=help_text)
        target_sub = command_p.add_subparsers(dest="target", required=True)
        for target, entry in targets.items():
            # no abbreviations: --m would otherwise stand for --max-size
            target_p = target_sub.add_parser(target, allow_abbrev=False)
            for flag, param in entry.flags.items():
                target_p.add_argument(flag, dest=param, **OPTIONS[flag])
            target_p.add_argument("--format", choices=("text", "json"), default=default_format)
            target_p.add_argument("--out")

    return parser


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        with open(out_path, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
    else:
        print(text)


def _cmd_quiver(args, bounds) -> int:
    slice_ = quiver.quiver_slice(args.max_size, bounds)
    _emit(quiver.render(slice_, args.format, args.signs), args.out)
    return 0


def _run(args, targets: dict[str, Sweep], bounds):
    entry = targets[args.target]
    return entry.driver(**{param: getattr(args, param) for param in entry.flags.values()},
                        bounds=bounds)


def _cmd_verify(args, bounds) -> int:
    if args.target == "resolution" and args.depth == 0:
        raise UsageError("verify resolution requires --depth of at least 1, got 0")
    certificate = _run(args, SWEEPS, bounds)
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


def _cmd_table(args, bounds) -> int:
    rows = _run(args, TABLES, bounds)
    if args.format == "json":
        _emit(json.dumps({"target": args.target, "rows": rows}, indent=2), args.out)
    else:
        _emit("\n".join(f"{key}: {value}" for key, value in rows), args.out)
    return 0


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        try:
            bounds = load_bounds()
        except ValueError as exc:  # a bad config file is bad input
            raise UsageError(exc) from exc
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
