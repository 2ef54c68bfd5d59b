import pytest

from youngquiver.certificates import Certificate
from youngquiver.signs import verify_signs_sweep


def make(verdict, counts, first_failure=None):
    return Certificate("verify test", {}, verdict, counts, first_failure)


class TestHonestVerdicts:
    def test_pass_with_a_nonzero_count(self):
        assert make("pass", {"empty_checked": 0, "pairs_checked": 3}).passed

    @pytest.mark.parametrize("counts", [{}, {"pairs_checked": 0}, {"a": 0, "b": 0}])
    def test_pass_that_checked_nothing_is_rejected(self, counts):
        with pytest.raises(ValueError, match="nonzero count"):
            make("pass", counts)

    def test_fail_may_stop_before_counting(self):
        assert not make("fail", {"pairs_checked": 0}, {"pair": "0"}).passed

    def test_fail_needs_a_locator(self):
        with pytest.raises(ValueError, match="first_failure"):
            make("fail", {"pairs_checked": 1})

    def test_diamond_free_sizes(self):
        # no diamond has a top of at most two nodes, so below size 3 the
        # sweep checks no diamond; it still passes on the growth orders it
        # checks at every size
        for max_size in range(3):
            cert = verify_signs_sweep(max_size)
            assert cert.passed
            assert cert.counts["diamonds_checked"] == 0
            assert cert.counts["orders_checked"] > 0
