import pytest

from .helpers import TimeBoundExceeded, time_bound


def test_time_bound_ends_an_endless_loop():
    with pytest.raises(TimeBoundExceeded, match="still running after 0.05 s, in test_time_bound"):
        with time_bound(0.05):
            while True:
                pass
