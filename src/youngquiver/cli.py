"""Command-line entry point for verification sweeps and table exports.

Exit codes: 0 = pass, 1 = a mathematical check failed, 2 = bad input (a
``config.UsageError``, raised where an option, a partition, an integer, the
config file or a bound is checked, or an ``OSError`` from a file or stdout),
3 = internal error (any other exception raised inside the toolkit, never a
verdict).  Each error prints one ``error: <message>`` or ``internal error:
<Type>: <message>`` line, whose failed write leaves the code as it is.
``main`` alone writes output and picks the exit code.  Certificates go to
stdout as JSON (or to --out), byte-stable across runs but for elapsed_ms.
"""

import argparse
import contextlib
import json
import os
import sys
from typing import Callable, NamedTuple

from . import qdual, quiver, resolution
from ._version import __version__
from .config import UsageError, load_bounds
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


class _Parser(argparse.ArgumentParser):
    """Raises each grammar error as a ``UsageError``, like any other bad input."""

    def error(self, message):
        raise UsageError(message)


def _non_negative(text: str) -> int:
    """A size, degree, depth or count, in ASCII digits: int() would also
    take "1_0", "+3" and non-ASCII digits."""
    digits = text.strip()
    if digits.isascii() and digits.isdigit():
        with contextlib.suppress(ValueError):  # past int()'s limit on digits
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
    """One ``verify`` or ``table`` target.  ``flags`` lists the options the
    target reads, and it accepts no other; each flag's argparse dest
    (``--direct-n`` gives ``direct_n``) is the driver parameter it fills.
    ``battery`` holds the driver arguments of each run in the default
    battery; a table has none.  A new target also adds its slowest admitted
    input to ``FRONTIER``."""

    driver: Callable
    flags: tuple[str, ...]
    battery: tuple[tuple, ...] = ()


# every option a target can read, converted and checked by argparse
OPTIONS = {
    "--max-size": dict(type=_non_negative, required=True, help="largest diagram size swept"),
    "--xi": dict(type=_partition, required=True, help="base partition, e.g. 2,1"),
    "--depth": dict(type=_non_negative, required=True, help="resolution truncation depth"),
    "--n": dict(type=_non_negative, required=True, help="symmetric group degree bound"),
    "--direct-n": dict(type=_non_negative, default=3, help="degree cap for direct idempotent ranks"),
    "--dump-matrices": dict(action="store_true", help="add every nonzero differential"),
    "--mu": dict(type=_partition, required=True, help="source partition, e.g. 2"),
    "--m": dict(type=_non_negative, required=True, help="number of added nodes"),
}

SWEEPS = {
    "signs": Sweep(verify_signs_sweep, ("--max-size",), ((10,),)),
    "resolution": Sweep(
        verify_resolution,
        ("--xi", "--depth", "--dump-matrices"),
        tuple((xi, 6) for xi in partitions_up_to(4)),
    ),
    "qdual": Sweep(verify_quadratic_duality, ("--max-size",), ((7,),)),
    "morita": Sweep(verify_branching, ("--n", "--direct-n"), ((5, 3),)),
    "idempotents": Sweep(verify_idempotent_system, ("--n",), ((5,),)),
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
    "pieri": Sweep(_pieri_rows, ("--mu", "--m")),
    "betti": Sweep(_betti_rows, ("--xi", "--depth")),
    "dualdims": Sweep(_dualdims_rows, ("--max-size",)),
}

# The slowest input each bound admits, as (argv, config) rungs that
# scripts/run_frontier.py times; a rung runs under its config, None for defaults.
FRONTIER = tuple((tuple(command.split()), config) for command, config in (
    ("verify morita --n 11 --direct-n 5", None),
    ("verify idempotents --n 6", None),
    ("verify idempotents --n 7", {"max_group_degree": 7}),
    ("verify resolution --xi 0 --depth 30", None),
    ("verify resolution --xi 5,4,3,2,1,1,1 --depth 13", None),
    ("verify resolution --xi 5,4,3,2,1,1,1,1 --depth 12", None),
    ("table betti --xi 5,4,3,2,1,1,1 --depth 13", None),
    ("table pieri --mu 0 --m 30", None),
    ("quiver --max-size 30 --signs --format json", None),
    ("verify signs --max-size 30", None),
    ("verify qdual --max-size 18", None),
    ("table dualdims --max-size 18", None),
))


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
            for flag in entry.flags:
                target_p.add_argument(flag, **OPTIONS[flag])
            target_p.add_argument("--format", choices=("text", "json"), default=default_format)
            target_p.add_argument("--out")

    return parser


def _cmd_quiver(args, bounds) -> tuple[str, int]:
    slice_ = quiver.quiver_slice(args.max_size, bounds)
    return quiver.render(slice_, args.format, args.signs), 0


def _run(args, targets: dict[str, Sweep], bounds):
    # besides these four, the namespace holds just the dests of the target's flags
    params = {dest: value for dest, value in vars(args).items()
              if dest not in ("command", "target", "format", "out")}
    return targets[args.target].driver(**params, bounds=bounds)


def _cmd_verify(args, bounds) -> tuple[str, int]:
    certificate = _run(args, SWEEPS, bounds)
    code = 0 if certificate.passed else MATH_FAILURE
    if args.format == "json":
        return certificate.to_json(), code
    lines = [f"{certificate.command}: {certificate.verdict}"]
    lines += (f"  {key}: {value}" for key, value in certificate.counts.items())
    if certificate.first_failure:
        lines.append(f"  first failure: {certificate.first_failure}")
    for section, texts in (certificate.details or {}).items():  # opt-in, e.g. matrices
        lines.append(f"  {section}:")
        for key, text in texts.items():
            lines += [f"    {key}:", *(f"      {line}" for line in text.splitlines())]
    return "\n".join(lines), code


def _cmd_table(args, bounds) -> tuple[str, int]:
    rows = _run(args, TABLES, bounds)
    if args.format == "json":
        return json.dumps({"target": args.target, "rows": rows}, indent=2), 0
    return "\n".join(f"{key}: {value}" for key, value in rows), 0


def _write_line(stream, line: str) -> None:
    """Prints and flushes ``line``; on failure, first points the stream at
    os.devnull, so its unwritten bytes cannot make the exit code 120."""
    try:
        print(line, file=stream, flush=True)
    except OSError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), stream.fileno())
        raise


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        command = {"quiver": _cmd_quiver, "verify": _cmd_verify, "table": _cmd_table}
        text, code = command[args.command](args, load_bounds())
        if args.out:
            with open(args.out, "w", encoding="utf-8") as handle:
                handle.write(text + "\n")
        else:
            _write_line(sys.stdout, text)
        return code
    except (UsageError, OSError) as exc:
        line, code = f"error: {exc}", USAGE_ERROR
    except Exception as exc:  # any fault in the toolkit, never a verdict
        line, code = f"internal error: {type(exc).__name__}: {exc}", INTERNAL_ERROR
    with contextlib.suppress(OSError):  # a closed stderr must not change the code
        _write_line(sys.stderr, line)
    return code


if __name__ == "__main__":
    sys.exit(main())
