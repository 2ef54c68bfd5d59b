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
    "signs 10": "fc5cf9dd4421967a98d4e637ac7be769a5f1a46ff97b821f0783564b789bfb86",
    "resolution 0 6": "bf30cd52f174fc5284af983545edf903efba0a7347250185a4ea60549b271a8e",
    "resolution 1 6": "49fc02431177928089ce8f129845e6e73d6c0c74c54a7b805999cfa908b1c908",
    "resolution 2 6": "28a8e414681e8c69e04fb3da66acbbd844479bd3dc29287df3e4a78a0a369394",
    "resolution 1,1 6": "5443187057c9a963d93155b48c800d5058f15d2db9509462ffab12e172a97940",
    "resolution 3 6": "96fbd60807e132dac7ef526d367d00252cae1d93790b0e1dba00139ba3d157bd",
    "resolution 2,1 6": "d5359f7aca500d918eefb694150cf30c3bc7cec639bebc6e4c7c074554fe96ff",
    "resolution 1,1,1 6": "facac943405c3f965cbc1c72906be2310013a0e253b0b539e4c588ac25e661d9",
    "resolution 4 6": "ac457ab743ccf5694d2d7924d5cbf01392ecb6f5e8f6f422ba302e25ac4a88aa",
    "resolution 3,1 6": "e3e82a196546bdaea53fc922300aa69cc43217a1ce5785441d4a4ed97bf82cb8",
    "resolution 2,2 6": "63d3b6b14ed652d4d48083a44c3068570be8e4354f4bf0dd4e76e985d39db96d",
    "resolution 2,1,1 6": "d3d0e5a54801f043b5c1d5a4c77322370f94ae55f535ac820d977583491aeea2",
    "resolution 1,1,1,1 6": "8462b683b0e394b4ef9fbe029433d1368c876758be8e465408303aa738d9b8e0",
    "qdual 7": "0034791cb3d9e8101d652fa710bca15a32fad0feece314bee168b31d6ffdb8ff",
    "morita 5 3": "fb2abeb709f212678e820ff48a585ee66a0862c17ae54c9188cf32760a25b623",
    "idempotents 5": "13e23a6f68bf79694abcb3fd15720b79d83ea9781586ef27b2ba5e1d43fe6d5e",
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
