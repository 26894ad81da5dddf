import pytest

from bnscore import Variable, load_alarm

from .helpers import time_bound


@pytest.fixture(scope="session")
def alarm():
    return load_alarm()


@pytest.fixture
def xy_vars():
    return (Variable("X", 2), Variable("Y", 2))


def pytest_configure(config):
    config.addinivalue_line(
        "markers",
        "bounded: fail the test after 5 s, for tests that reach a loop whose "
        "guard, if deleted, would leave it without end",
    )


@pytest.hookimpl(wrapper=True)
def pytest_runtest_call(item):
    if item.get_closest_marker("bounded") is None:
        return (yield)
    with time_bound(5):
        return (yield)
