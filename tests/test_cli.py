import argparse
import hashlib
import inspect
import json
import os
import pathlib
import runpy
import shlex
import subprocess
import sys

import pytest

from youngquiver import cli, partitions, symgroup
from youngquiver.cli import main
from youngquiver.partitions import parse_partition, partitions_of, partitions_up_to

from oracles import chain_dim_bareiss, widened, with_relation_spaces


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def usage_error(capsys, *argv):
    """Run ``argv``, check that ``main`` returns 2 with nothing on stdout and
    one ``error:`` line on stderr, and return that line."""
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1, err
    return err


def pieri_by_skew_columns(mu, m):
    """``table pieri`` rows from ``Partition``s: every lam of size |mu| + m
    that contains mu, flagged 1 when no column holds two of its skew nodes
    (a horizontal strip), else 0."""
    rows = []
    for lam in partitions_of(mu.size + m):
        if lam.contains(mu):
            columns = [
                c
                for r in range(1, len(lam.rows) + 1)
                for c in range(mu.row(r) + 1, lam.row(r) + 1)
            ]
            rows.append((str(lam), int(len(columns) == len(set(columns)))))
    return rows


class TestQuiverCommand:
    def test_text_counts(self, capsys):
        code, out, _ = run_cli(capsys, "quiver", "--max-size", "4")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "nodes: 12"
        assert lines[1] == "arrows: 14"

    def test_single_node(self, capsys):
        code, out, _ = run_cli(capsys, "quiver", "--max-size", "0")
        assert code == 0
        assert out.splitlines()[0] == "nodes: 1"

    def test_dot_output(self, capsys):
        code, out, _ = run_cli(capsys, "quiver", "--max-size", "4", "--format", "dot")
        assert code == 0
        assert out.startswith("digraph")
        assert out.count(" -> ") == 14

    def test_signed_dot(self, capsys):
        code, out, _ = run_cli(
            capsys, "quiver", "--max-size", "4", "--format", "dot", "--signs"
        )
        assert code == 0
        assert '"1" -> "1,1" [label="-1"];' in out
        assert '"2,1" -> "2,1,1" [label="-1"];' in out

    def test_json_output(self, capsys):
        code, out, _ = run_cli(
            capsys, "quiver", "--max-size", "2", "--format", "json", "--signs"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["nodes"] == ["0", "1", "2", "1,1"]
        assert ["1", "1,1", -1] in payload["arrows"]

    def test_bounds_error_exit_code(self, capsys):
        code, _, err = run_cli(capsys, "quiver", "--max-size", "99")
        assert code == 2
        assert "exceeds" in err


def raised_rungs():
    """Each ``FRONTIER`` rung with one of its sizes, degrees or depths raised
    by one, under the rung's config: one step past a bound."""
    for argv, config in cli.FRONTIER:
        for i, flag in enumerate(argv[:-1]):
            if cli.OPTIONS.get(flag, {}).get("type") is cli._non_negative:
                raised = (*argv[: i + 1], str(int(argv[i + 1]) + 1), *argv[i + 2 :])
                yield pytest.param(raised, None, config, id=" ".join(raised))


class TestVerifyCommand:
    def test_signs_pass(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "signs", "--max-size", "6")
        assert code == 0
        certificate = json.loads(out)
        assert certificate["verdict"] == "pass"
        assert certificate["counts"]["diamonds_checked"] > 0
        assert certificate["schema_version"] == 3

    def test_resolution_pass(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "resolution", "--xi", "2,1", "--depth", "4"
        )
        assert code == 0
        certificate = json.loads(out)
        assert certificate["verdict"] == "pass"
        assert certificate["parameters"] == {"xi": "2,1", "depth": 4}
        assert "details" not in certificate

    def test_resolution_matrix_dump(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "verify",
            "resolution",
            "--xi",
            "1",
            "--depth",
            "2",
            "--dump-matrices",
        )
        assert code == 0
        assert "matrices" in json.loads(out)["details"]

    def test_text_format_prints_the_matrix_dump(self, capsys):
        argv = "verify resolution --xi 1 --depth 1 --dump-matrices --format text"
        code, out, _ = run_cli(capsys, *argv.split())
        assert code == 0
        assert out == (
            "verify resolution: pass\n"
            "  objects_checked: 4\n"
            "  positions_checked: 8\n"
            "  products_checked: 0\n"
            "  diamond_cancellations: 0\n"
            "  matrices:\n"
            "    -1@1,1:\n"
            "      1 1 1\n"
            "      1 1 -1\n"
            "    -1@2:\n"
            "      1 1 1\n"
            "      1 1 1\n"
        )

    def test_qdual_pass(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "qdual", "--max-size", "4")
        assert code == 0
        assert json.loads(out)["verdict"] == "pass"

    def test_morita_pass(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "morita", "--n", "2", "--format", "text")
        assert code == 0
        assert out.startswith("verify morita: pass")

    def test_idempotents_pass(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "idempotents", "--n", "3")
        assert code == 0
        assert json.loads(out)["verdict"] == "pass"

    def test_missing_flag_is_usage_error(self, capsys):
        err = usage_error(capsys, "verify", "resolution", "--depth", "3")
        assert err == "error: the following arguments are required: --xi\n"

    def test_bad_partition_is_usage_error(self, capsys):
        err = usage_error(capsys, "verify", "resolution", "--xi", "1,2", "--depth", "3")
        assert err.startswith("error: argument --xi: row lengths must be weakly decreasing")

    def test_unparsable_partition_is_one_line_usage_error(self, capsys):
        err = usage_error(capsys, "verify", "resolution", "--xi", "2,1_1", "--depth", "3")
        assert err == "error: argument --xi: cannot parse partition '2,1_1'\n"

    @pytest.mark.parametrize(
        "value",
        ["1_0", "+3", "\uff13", "\u0663", "3.0", "", "0x3", pytest.param("9" * 4301, id="4301-digits")],
    )
    def test_integer_options_take_ascii_digits_only(self, capsys, request, value):
        # int() takes the first four: 10, 3, full-width 3, Arabic-Indic 3;
        # it refuses the last, past its limit on digits, with its own message
        if len(value) > 4300:  # pin the default limit, which the environment can lift
            if not hasattr(sys, "set_int_max_str_digits"):
                pytest.skip("this Python has no limit on int() digits")
            request.addfinalizer(
                lambda limit=sys.get_int_max_str_digits(): sys.set_int_max_str_digits(limit)
            )
            sys.set_int_max_str_digits(4300)
        err = usage_error(capsys, "verify", "signs", "--max-size", value)
        assert err == f"error: argument --max-size: cannot parse non-negative integer {value!r}\n"

    def test_certificates_byte_stable(self, capsys):
        outputs = []
        for _ in range(2):
            _, out, _ = run_cli(capsys, "verify", "signs", "--max-size", "5")
            payload = json.loads(out)
            payload["elapsed_ms"] = 0  # timing is the one nondeterministic field
            outputs.append(json.dumps(payload, sort_keys=False))
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize(
        "argv",
        [
            ("verify", "qdual", "--max-size", "-3"),
            ("verify", "morita", "--n", "-1"),
            ("verify", "morita", "--n", "2", "--direct-n", "-1"),
            ("verify", "signs", "--max-size", "-1"),
            ("verify", "idempotents", "--n", "-2"),
            ("quiver", "--max-size", "-1"),
            ("table", "dualdims", "--max-size", "-1"),
        ],
    )
    def test_negative_size_is_usage_error(self, capsys, argv):
        assert "must be non-negative" in usage_error(capsys, *argv)

    @pytest.mark.parametrize(
        "fault, line",
        [
            pytest.param(fault, line, id=type(fault).__name__)
            for fault, line in [
                (ArithmeticError("inexact division during elimination"),
                 "internal error: ArithmeticError: inexact division during elimination"),
                # a ValueError raised inside the toolkit is not a usage error
                (ValueError("degree mismatch: 2 vs 3"),
                 "internal error: ValueError: degree mismatch: 2 vs 3"),
                (KeyError("boom"), "internal error: KeyError: 'boom'"),
                (TypeError("unhashable type: 'list'"),
                 "internal error: TypeError: unhashable type: 'list'"),
                (RecursionError("maximum recursion depth exceeded"),
                 "internal error: RecursionError: maximum recursion depth exceeded"),
            ]
        ],
    )
    def test_internal_fault_has_its_own_exit_code(self, capsys, monkeypatch, fault, line):
        def faulty(**_):
            raise fault

        monkeypatch.setitem(cli.SWEEPS, "signs", cli.SWEEPS["signs"]._replace(driver=faulty))
        code, out, err = run_cli(capsys, "verify", "signs", "--max-size", "3")
        assert code == 3
        assert out == ""
        assert err == line + "\n"

    def test_broken_self_duality_is_a_verdict(self, capsys, monkeypatch):
        build = cli.qdual.build_quadratic_dual
        pair = ((1,), (2, 1))

        def without_anticommutativity(max_size, bounds, of_lattice=False):
            presentation = build(max_size, bounds, of_lattice=of_lattice)
            rel = presentation.relations[pair]
            relations = {**presentation.relations, pair: cli.qdual.RelationSpace(rel.mids, ())}
            return with_relation_spaces(presentation, relations)

        monkeypatch.setattr(cli.qdual, "build_quadratic_dual", without_anticommutativity)
        code, out, err = run_cli(capsys, "verify", "qdual", "--max-size", "4")
        assert code == 1 and err == ""
        certificate = json.loads(out)
        assert certificate["verdict"] == "fail"
        assert certificate["first_failure"] == {
            "check": "dimension",
            "pair": ["0", "2,1"],
            "dual_dim": 1,
            "transposed_hom_dim": 0,
        }

    def test_zero_resolution_depth_is_a_passing_certificate(self, capsys):
        # position 0 alone, checked at the 7 objects of size at most 3
        code, out, _ = run_cli(capsys, "verify", "resolution", "--xi", "2,1", "--depth", "0")
        certificate = json.loads(out)
        assert (code, certificate["verdict"]) == (0, "pass")
        assert certificate["counts"] == {
            "objects_checked": 7,
            "positions_checked": 7,
            "products_checked": 0,
            "diamond_cancellations": 0,
        }
        for xi in ("0", "5,4,3,2,1,1,1"):
            assert main(["verify", "resolution", "--xi", xi, "--depth", "0"]) == 0

    @pytest.mark.parametrize(
        "content",
        [
            pytest.param(b"{bad", id="not-json"),
            pytest.param(b'{"a":' * 100_000, id="nested-100000-deep"),
            pytest.param(b"\xff\xfe", id="not-utf-8"),
        ],
    )
    def test_config_fault_is_one_line_naming_the_file(
        self, capsys, monkeypatch, tmp_path, content
    ):
        path = tmp_path / "bounds.json"
        path.write_bytes(content)
        monkeypatch.setenv("YOUNGQUIVER_CONFIG", str(path))
        err = usage_error(capsys, "verify", "signs", "--max-size", "2")
        assert str(path) in err, err

    @pytest.mark.parametrize(
        "argv, message, config",
        [
            (
                ("verify", "idempotents", "--n", "7"),
                "group degree 7 exceeds configured bound 6",
                None,
            ),
            (
                ("verify", "morita", "--n", "12", "--direct-n", "0"),
                "induction degree 13 exceeds configured bound 12",
                None,
            ),
            (
                ("verify", "morita", "--n", "6", "--direct-n", "6"),
                "direct hom degree 6 exceeds configured bound 5",
                None,
            ),
            (
                ("verify", "idempotents", "--n", "6"),
                "partition size 6 exceeds configured bound 5",
                {"max_partition_size": 5},
            ),
            (
                ("verify", "morita", "--n", "6", "--direct-n", "0"),
                "partition size 7 exceeds configured bound 5",
                {"max_partition_size": 5},
            ),
            # the largest size is checked before the smallest is enumerated
            (
                ("verify", "qdual", "--max-size", "8"),
                "partition size 8 exceeds configured bound 5",
                {"max_partition_size": 5},
            ),
            (
                ("table", "dualdims", "--max-size", "8"),
                "partition size 8 exceeds configured bound 5",
                {"max_partition_size": 5},
            ),
            *raised_rungs(),
        ],
    )
    def test_symgroup_bounds_fail_before_any_work(
        self, capsys, monkeypatch, tmp_path, argv, message, config
    ):
        # covers every target: the first cases pin the messages, and the
        # raised FRONTIER rungs show that each rung sits at its bounds
        def no_work(*args, **kwargs):
            raise AssertionError("the sweep started before checking its bounds")

        if config is None:
            monkeypatch.delenv("YOUNGQUIVER_CONFIG", raising=False)
        else:
            path = tmp_path / "bounds.json"
            path.write_text(json.dumps(config), encoding="utf-8")
            monkeypatch.setenv("YOUNGQUIVER_CONFIG", str(path))
        for module, name in (
            (symgroup, "central_idempotent"),
            (symgroup, "induction_multiplicity"),
            (symgroup, "_cycle_types"),
            (symgroup, "_mn_character"),
            (partitions, "_partition_tuples"),
        ):
            monkeypatch.setattr(module, name, no_work)
        err = usage_error(capsys, *argv)
        if message is None:
            assert " exceeds configured bound " in err, err
        else:
            assert err == f"error: {message}\n"


class TestTableCommand:
    def test_widened_relations_give_the_bareiss_dimensions(self, capsys, monkeypatch):
        # a relation vector with three nonzero entries (a mid repeated) is
        # fine for the quotient walk's general eliminator
        build = cli.qdual.build_quadratic_dual
        built = []

        def widened_dual(max_size, bounds):
            built.append(widened(build(max_size, bounds)))
            return built[-1]

        monkeypatch.setattr(cli.qdual, "build_quadratic_dual", widened_dual)
        code, out, err = run_cli(capsys, "table", "dualdims", "--max-size", "3")
        assert code == 0 and err == ""
        (presentation,) = built
        table = {}
        for line in out.splitlines():
            key, value = line.split(": ")
            mu, lam = (parse_partition(text).rows for text in key.split("->"))
            table[key] = int(value)
            assert table[key] == chain_dim_bareiss(mu, lam, presentation), key
        assert len(table) == 22  # every contained pair up to size 3

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_dualdims_matches_the_containment_scan(self, capsys, fmt):
        # the table as a scan of every diagram up to |lam| filtered by
        # containment would print it, byte for byte
        presentation = cli.qdual.build_quadratic_dual(8)
        rows = [
            (f"{mu}->{lam}", cli.qdual.dual_hom_dim(mu.rows, lam.rows, presentation))
            for lam in partitions_up_to(8)
            for mu in partitions_up_to(lam.size)
            if lam.contains(mu)
        ]
        if fmt == "json":
            expected = json.dumps({"target": "dualdims", "rows": rows}, indent=2)
        else:
            expected = "\n".join(f"{key}: {value}" for key, value in rows)
        code, out, err = run_cli(capsys, "table", "dualdims", "--max-size", "8", "--format", fmt)
        assert code == 0 and err == ""
        assert out == expected + "\n"

    @pytest.mark.parametrize("fmt", ["text", "json"])
    @pytest.mark.parametrize("mu, m", [("3,1", 4), ("2,2,1", 3), ("0", 6)])
    def test_pieri_matches_the_strip_oracle(self, capsys, fmt, mu, m):
        rows = pieri_by_skew_columns(parse_partition(mu), m)
        assert 0 < sum(flag for _, flag in rows) < len(rows)
        if fmt == "json":
            expected = json.dumps({"target": "pieri", "rows": rows}, indent=2)
        else:
            expected = "\n".join(f"{key}: {value}" for key, value in rows)
        code, out, err = run_cli(
            capsys, "table", "pieri", "--mu", mu, "--m", str(m), "--format", fmt
        )
        assert code == 0 and err == ""
        assert out == expected + "\n"

    def test_pieri_rows(self, capsys):
        code, out, _ = run_cli(capsys, "table", "pieri", "--mu", "2", "--m", "2")
        assert code == 0
        assert out.splitlines() == ["4: 1", "3,1: 1", "2,2: 1", "2,1,1: 0"]

    def test_betti_single_column(self, capsys):
        code, out, _ = run_cli(
            capsys, "table", "betti", "--xi", "0", "--depth", "3", "--format", "json"
        )
        assert code == 0
        rows = json.loads(out)["rows"]
        positive = [key for key, flag in rows if flag]
        assert positive == ["0:0", "-1:1", "-2:1,1", "-3:1,1,1"]

    @pytest.mark.parametrize(
        "argv, digest",
        [
            (
                ("--xi", "2,1", "--depth", "5"),
                "bcfd055950ffef6e1d037eb653a4f415575769f123e0f8cd30e75d1a9c7a0fa1",
            ),
            (
                ("--xi", "2,1", "--depth", "5", "--format", "json"),
                "60bbda7a78c3e273a934e44f5db43bb3faf18d76068b73e37177fa5fe0861abc",
            ),
            (
                ("--xi", "0", "--depth", "4"),
                "d162f15aaee22729911664d65826c556eebfdf95574c5314b958cca173faabaf",
            ),
            (
                ("--xi", "0", "--depth", "4", "--format", "json"),
                "95242ab6501f6d7a66183758e2366ba0382142f517de8f67315bbe6bfb91de31",
            ),
        ],
        ids=["2,1-text", "2,1-json", "0-text", "0-json"],
    )
    def test_betti_output_is_unchanged(self, capsys, argv, digest):
        # sha256 of the whole output: every row, zero rows included, and their order
        code, out, err = run_cli(capsys, "table", "betti", *argv)
        assert code == 0 and err == ""
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_dualdims_vertical_strip_indicator(self, capsys):
        code, out, _ = run_cli(capsys, "table", "dualdims", "--max-size", "3")
        assert code == 0
        table = dict(line.split(": ") for line in out.splitlines())
        assert table["1->1,1,1"] == "1"
        assert table["1->3"] == "0"
        assert table["1->2,1"] == "1"

    def test_missing_flags(self, capsys):
        err = usage_error(capsys, "table", "pieri", "--mu", "2")
        assert err == "error: the following arguments are required: --m\n"


# a valid value for each option a target can read; None for a switch
SAMPLE_VALUES = {
    "--max-size": "2",
    "--xi": "1",
    "--depth": "2",
    "--n": "2",
    "--direct-n": "1",
    "--dump-matrices": None,
    "--mu": "1",
    "--m": "1",
}

TARGETS = {"verify": cli.SWEEPS, "table": cli.TABLES}


def option_argv(flags):
    return [arg for flag in flags for arg in (flag, SAMPLE_VALUES[flag]) if arg is not None]


class TestTargetOptions:
    @pytest.mark.parametrize(
        "command, target, flag",
        [
            (command, target, flag)
            for command, targets in TARGETS.items()
            for target, entry in targets.items()
            for flag in cli.OPTIONS
            if flag not in entry.flags
        ],
    )
    def test_an_option_the_target_does_not_read_exits_2(
        self, capsys, monkeypatch, command, target, flag
    ):
        def no_run(**_):
            raise AssertionError("the driver ran")

        targets = TARGETS[command]
        monkeypatch.setitem(targets, target, targets[target]._replace(driver=no_run))
        argv = [command, target, *option_argv(targets[target].flags)]
        # the target's own options reach its driver
        code, _, err = run_cli(capsys, *argv)
        assert (code, err) == (3, "internal error: AssertionError: the driver ran\n")
        err = usage_error(capsys, *argv, *option_argv([flag]))
        assert err.startswith("error: unrecognized arguments: " + flag)

    def test_each_target_accepts_exactly_its_flags(self):
        parser = cli.build_parser()
        (commands,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        accepted = {}
        for command, targets in TARGETS.items():
            (target_parsers,) = [
                a
                for a in commands.choices[command]._actions
                if isinstance(a, argparse._SubParsersAction)
            ]
            assert list(target_parsers.choices) == list(targets)
            for target, target_parser in target_parsers.choices.items():
                accepted[command, target] = {
                    option for a in target_parser._actions for option in a.option_strings
                } - {"-h", "--help"}
        assert accepted == {
            (command, target): {*entry.flags, "--format", "--out"}
            for command, targets in TARGETS.items()
            for target, entry in targets.items()
        }
        assert sum(map(len, accepted.values())) == 29

    @pytest.mark.parametrize(
        "command, target",
        [(command, target) for command, targets in TARGETS.items() for target in targets],
    )
    def test_option_names_are_driver_parameters(self, command, target):
        entry = TARGETS[command][target]
        # the dest argparse gives each flag by itself, with no dest= override
        dests = [argparse.ArgumentParser().add_argument(flag).dest for flag in entry.flags]
        signature = inspect.signature(entry.driver)
        assert dests == [name for name in signature.parameters if name != "bounds"]
        for args in entry.battery:
            signature.bind(*args)

    @pytest.mark.parametrize(
        "argv",
        [
            ("verify", "--max-size", "3", "qdual"),
            ("table", "--max-size", "3", "dualdims"),
            ("verify", "signs", "--max", "3"),  # no abbreviations
        ],
    )
    def test_options_follow_the_full_target_name(self, capsys, argv):
        usage_error(capsys, *argv)

    @pytest.mark.parametrize("argv", [("--help",), ("--version",), ("verify", "signs", "--help")])
    def test_help_and_version_exit_0(self, capsys, argv):
        with pytest.raises(SystemExit) as exited:
            main(list(argv))
        assert exited.value.code == 0
        assert capsys.readouterr().out


class TestFrontier:
    def test_every_target_has_a_rung_that_parses(self):
        parser = cli.build_parser()
        reached = set()
        for argv, _ in cli.FRONTIER:
            args = parser.parse_args(argv)
            reached.add((args.command, getattr(args, "target", None)))
        assert reached == {("quiver", None)} | {
            (command, target) for command, targets in TARGETS.items() for target in targets
        }

    def test_the_runner_fails_on_a_refused_rung(self, capsys, monkeypatch, tmp_path):
        script = pathlib.Path(__file__).resolve().parents[1] / "scripts" / "run_frontier.py"
        runner = runpy.run_path(str(script))
        # an inherited config is dropped: this one would refuse the passing rung
        inherited = tmp_path / "bounds.json"
        inherited.write_text(json.dumps({"max_partition_size": 2}), encoding="utf-8")
        monkeypatch.setenv("YOUNGQUIVER_CONFIG", str(inherited))
        monkeypatch.setattr(
            cli,
            "FRONTIER",
            (
                (("verify", "signs", "--max-size", "3"), None),
                (("verify", "qdual", "--max-size", "19"), None),
            ),
        )
        assert runner["main"]() == 1
        captured = capsys.readouterr()
        passed, failed = [line for line in captured.out.splitlines() if line[:4] in ("PASS", "FAIL")]
        assert passed.startswith("PASS ") and passed.endswith(" s  verify signs --max-size 3")
        assert failed.startswith("FAIL ")
        assert failed.endswith(" s  verify qdual --max-size 19  exit 2")  # a refusal
        assert captured.err == "error: quadratic dual size 19 exceeds configured bound 18\n"


def readme_cli_examples():
    """The ``youngquiver ...`` lines of the ``sh`` block under README "## CLI"."""
    readme = pathlib.Path(__file__).resolve().parents[1] / "README.md"
    text = readme.read_text(encoding="utf-8")
    block = text.split("## CLI\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    return [
        shlex.split(line, comments=True)[1:]
        for line in block.splitlines()
        if line.startswith("youngquiver ")
    ]


def test_readme_shows_every_target():
    examples = readme_cli_examples()
    shown = {tuple(argv[:2]) for argv in examples}
    assert {(command, target) for command in TARGETS for target in TARGETS[command]} <= shown
    assert any(argv[0] == "quiver" for argv in examples)


@pytest.mark.parametrize("argv", readme_cli_examples(), ids="-".join)
def test_readme_cli_example_runs(capsys, argv):
    assert main(argv) == 0


class TestOutputFile:
    def test_out_writes_file(self, tmp_path, capsys):
        target = tmp_path / "certificate.json"
        code, out, _ = run_cli(
            capsys, "verify", "signs", "--max-size", "4", "--out", str(target)
        )
        assert code == 0
        assert out == ""
        assert json.loads(target.read_text())["verdict"] == "pass"


class TestModuleEntryPoint:
    def test_python_dash_m(self):
        result = subprocess.run(
            [sys.executable, "-m", "youngquiver", "quiver", "--max-size", "1"],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0
        assert result.stdout.splitlines()[0] == "nodes: 2"

    def test_bad_option_is_one_line(self):
        result = subprocess.run(
            [sys.executable, "-m", "youngquiver", "verify", "signs", "--max-size", "1", "--xi", "3"],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 2
        assert result.stdout == ""
        assert result.stderr == "error: unrecognized arguments: --xi 3\n"

    @pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
    @pytest.mark.parametrize("max_size", ["3", "99"], ids=["pass", "bound-exceeded"])
    def test_closed_stdout_and_stderr_exit_2(self, max_size, unbuffered):
        # the certificate or the error line cannot be written, and the error
        # line's own failed write leaves the code of the first failure; a
        # buffered stream must not fail again in the flush at exit (code 120)
        env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            result = subprocess.run(
                [sys.executable, "-m", "youngquiver", "verify", "signs", "--max-size", max_size],
                stdout=write_end,
                stderr=write_end,
                env=env,
            )
        finally:
            os.close(write_end)
        assert result.returncode == 2
