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
    "signs 10": "290c60a2a7d31f411af9d0fa98eedd443c1ddb01f9094ae1a56f1da2ee8b7cd5",
    "resolution 0 6": "45f447faac8f5e3245d19faf33adb3e5eb69a3209c9c82ab0bcf31b588c511ca",
    "resolution 1 6": "ac6a073148f8212d142585337a636b2dc4fc2906c8956c0c060f659532ce8de5",
    "resolution 2 6": "88ce85e2563eea14f859c6ad8e71510682f8b451b1ca99ec56f9e4e127040e33",
    "resolution 1,1 6": "b7f6a249df740c0290c3b7ba1fa9a9db89cac7cd90f238a21fcb7343244a17be",
    "resolution 3 6": "9ee1fac778b37dbc0d54a60407f71412c4b19b8a538a719041c688b165683ebc",
    "resolution 2,1 6": "b5e38ae06d8fba1e8d426aaea7c9d7a38f25cb1650cd6c8626633e0f554c6a64",
    "resolution 1,1,1 6": "be61107d47421f384fb3bc696191a4675f14164d45acb738574e14a7ae4a965c",
    "resolution 4 6": "2a98f7c1e209843c3f3e2e44c7b8a608731cb17f32fee96f6d19091c52c9ca05",
    "resolution 3,1 6": "63036b9e7ec8b2a60dd268ade88c0a799531b8e04c72857423ece9bcd5bdadd1",
    "resolution 2,2 6": "937f1a44512d66bdb5f0ebaf239637d862a18382787295f66753d8491ef1bd79",
    "resolution 2,1,1 6": "8ba9d6d5ac5cb73f4fdbe66cdf3064822a9f8799dafa39cefce6588043184376",
    "resolution 1,1,1,1 6": "76253c11dffcf10c71346b40783104cac4dd8cb27b1843dd047b6092a9cfcc20",
    "qdual 7": "5e6a239bf0213d5aef2b86c0210a9d05964cc17aa766976b44df592965abd687",
    "morita 5 3": "1910e9e3ca67dadbe63909fc9325ab61bdc9603f8fdd31e8eacde72b7d0a2f0a",
    "idempotents 5": "1e56e17f340e6bf3ae3026310329f802c2334032e95c652c161597ebcec5d324",
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
