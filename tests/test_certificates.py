import ast
import hashlib
import json
import pathlib
import re
import time

import pytest

import youngquiver
from youngquiver.certificates import Certificate
from youngquiver.cli import SWEEPS
from youngquiver.signs import verify_signs_sweep


def make(counts, first_failure=None):
    return Certificate(time.perf_counter(), "verify test", {}, counts, first_failure)


def test_package_version_is_the_project_version():
    # a regex, not tomllib: Python 3.10 has no tomllib
    pyproject = pathlib.Path(__file__).resolve().parents[1] / "pyproject.toml"
    versions = re.findall(r'^version = "([^"]+)"$', pyproject.read_text(), re.MULTILINE)
    assert versions == [youngquiver.__version__]
    assert make({"pairs_checked": 1}).to_dict()["tool_version"] == youngquiver.__version__


class TestHonestVerdicts:
    def test_pass_with_a_nonzero_count(self):
        assert make({"empty_checked": 0, "pairs_checked": 3}).passed

    @pytest.mark.parametrize("counts", [{}, {"pairs_checked": 0}, {"a": 0, "b": 0}])
    def test_pass_that_checked_nothing_is_rejected(self, counts):
        with pytest.raises(ValueError, match="nonzero count"):
            make(counts)

    def test_fail_may_stop_before_counting(self):
        assert not make({"pairs_checked": 0}, {"pair": "0"}).passed

    def test_diamond_free_sizes(self):
        # no diamond has a top of at most two nodes, so below size 3 the
        # sweep checks no diamond; it still passes on the growth orders it
        # checks at every size
        for max_size in range(3):
            cert = verify_signs_sweep(max_size)
            assert cert.passed
            assert cert.counts["diamonds_checked"] == 0
            assert cert.counts["orders_checked"] > 0


# sha256 of each default-battery certificate: ``to_dict()`` without
# ``elapsed_ms``, dumped as JSON with indent 2, keyed by target and
# arguments.  A change to any of them must be deliberate.
GOLDEN = {
    "signs 10": "1e389249067c849fdb2074ad77525400bf79c3b0a135528488da40b8624598f3",
    "resolution 0 6": "6c90323fbec0b514fa08a8c4eeb96b7ba3df74c74cd527a8cc96047785ad365b",
    "resolution 1 6": "a439a0d0a50aa65ea772aecb139bd507f0f0aba496024ab7fd5ac632c294cc03",
    "resolution 2 6": "571efdfbde3207284cbeb674907ecea058c74973b2f89aea707c54ada3c91d46",
    "resolution 1,1 6": "e17ea94c507bb39d8ba3fbceb179a82fa511da11294a81ff673d477d565ebad2",
    "resolution 3 6": "5abb41c873a69d857efe1a2e4d0a15bd8e59a32d089ed852060986a851df1c18",
    "resolution 2,1 6": "6a4e20c6642697da1ddf4f49aea0457561a0f24fd7072b297b98de72a9e919c1",
    "resolution 1,1,1 6": "b4d3c3f5abbcf2d701f2e799c48eae6112e1402b39cd5e520620eb249adabf30",
    "resolution 4 6": "01e58f984d6bfd818a4dc7ef4cb885d2f3360f2fc7da7a4be9211671fad46eef",
    "resolution 3,1 6": "07d7665e56ff3c5f7099d728c3a734e242b0ca6b4c7c1bfa04577982ae873971",
    "resolution 2,2 6": "af825694f7183d935f17e5a54647d7bc17ed9bec1d423551190c521d6e64bf88",
    "resolution 2,1,1 6": "b9e3e5fb756864238147fc215e0a9c495b7196252a3c81e8f065a123f1291ed1",
    "resolution 1,1,1,1 6": "51e153aee69455ba1c8d009cb1b6c4038f22a53095a66ea6562c4a6fbb4d1db8",
    "qdual 7": "fe2ad26d57a03c61619e39f1f5e33b0e35c069be7de258715423a4853d4d6653",
    "morita 5 3": "3b474f34170073bd50f1ef375818cde3b0714d9bbd885ab629ea03af5dc3529f",
    "idempotents 5": "d33c941ba0e5ac0001fc30b9e7d455b130dc5c501fb6d3648f683a5477458b89",
}

BATTERY = {
    " ".join([target, *map(str, args)]): (sweep.driver, args)
    for target, sweep in SWEEPS.items()
    for args in sweep.battery
}


def test_every_battery_run_has_a_golden_digest():
    assert list(BATTERY) == list(GOLDEN)


@pytest.mark.parametrize("run", list(BATTERY))
def test_battery_certificate_is_unchanged(run):
    driver, args = BATTERY[run]
    fields = driver(*args).to_dict()
    del fields["elapsed_ms"]
    digest = hashlib.sha256(json.dumps(fields, indent=2).encode()).hexdigest()
    assert digest == GOLDEN[run]


SCHEMA_KEYS = ["schema_version", "tool_version", "command", "parameters", "verdict", "counts",
               "first_failure", "elapsed_ms"]


@pytest.mark.parametrize("run", list(BATTERY))
def test_only_a_matrix_dump_adds_details(run):
    driver, args = BATTERY[run]
    assert list(driver(*args).to_dict()) == SCHEMA_KEYS
    if "--dump-matrices" in SWEEPS[run.split()[0]].flags:
        dumped = driver(*args, dump_matrices=True).to_dict()
        assert list(dumped) == [*SCHEMA_KEYS[:-1], "details", "elapsed_ms"]
        assert list(dumped["details"]) == ["matrices"]


# A check name as a locator in src/youngquiver carries it: "check": "<name>",
# check="<name>", or assigned to ``check``, alone, with a key, or in an
# if/else.
CHECK_NAME = re.compile(r'\bcheck(?:": |=| = |, key = )"(\w+)"(?: if .* else "(\w+)")?')

# One mutant test per check name: a test that breaks the code under the
# check and pins a locator that names it.
MUTANT_TESTS = {
    "anticommutation": "test_signs.py::TestFailureLocator::test_flip_on_a_left_path",
    "growth_agreement": "test_signs.py::TestGrowthLocator::test_exhaustive_order",
    "complex": "test_resolution.py::TestMutants::test_flipped_sign_fails_the_complex",
    "exactness": "test_resolution.py::TestMutants::test_reversed_strata_fail_exactness",
    "dimension": "test_cli.py::TestVerifyCommand::test_broken_self_duality_is_a_verdict",
    "relation_cases":
        "test_qdual.py::TestSelfDuality::test_anticommuting_c_diamond_fails_relation_cases",
    "sign_twist": "test_qdual.py::TestSelfDuality::test_sign_twist_locator",
    "lattice_dual_dimension":
        "test_qdual.py::TestLatticeDual::test_lattice_dual_dimension_locator",
    "character_branching":
        "test_symgroup.py::TestBranchingLocators::test_character_branching_locator",
    "direct_idempotent_rank":
        "test_symgroup.py::TestBranchingLocators::test_direct_idempotent_rank_locator",
    "idempotent":
        "test_symgroup.py::TestCentralityByGenerators::test_sweep_stops_at_the_failing_degree",
    "central":
        "test_symgroup.py::TestCentralityByGenerators::test_sweep_finds_a_non_central_idempotent",
    "orthogonal":
        "test_symgroup.py::TestCentralityByGenerators::test_sweep_finds_a_non_orthogonal_pair",
    "symmetrizer_idempotent":
        "test_symgroup.py::TestCentralityByGenerators::test_symmetrizer_mutant_locators",
    "sum_to_identity":
        "test_symgroup.py::TestCentralityByGenerators::"
        "test_sweep_locators_match_the_multiply_oracle",
}


def test_every_check_has_a_mutant_test():
    root = pathlib.Path(__file__).resolve().parents[1]
    names = set()
    for path in (root / "src" / "youngquiver").glob("*.py"):
        for match in CHECK_NAME.finditer(path.read_text()):
            names.update(name for name in match.groups() if name)
    assert names == set(MUTANT_TESTS)
    for name, test in MUTANT_TESTS.items():
        module, cls, function = test.split("::")
        source = (root / "tests" / module).read_text()
        (node,) = [
            item
            for c in ast.parse(source).body
            if isinstance(c, ast.ClassDef) and c.name == cls
            for item in c.body
            if isinstance(item, ast.FunctionDef) and item.name == function
        ]
        # the test's text, its decorators included, pins the check by name
        start = min([node.lineno] + [d.lineno for d in node.decorator_list])
        text = "\n".join(source.splitlines()[start - 1 : node.end_lineno])
        assert f'"check": "{name}"' in text, test
