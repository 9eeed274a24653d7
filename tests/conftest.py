import signal
import threading

import pytest

from stabconn.graph import build_graph, figure1, parse_graph


#: no tier-1 test needs more than a few seconds; one that runs this long is
#: almost surely a run that never converges going on to its round cap
TIME_LIMIT_S = 60


class TimeLimitExceeded(BaseException):
    """Not an ``Exception``, so that neither the code under test nor
    hypothesis, which would shrink on it, catches it."""


def _expire(signum, frame):
    raise TimeLimitExceeded(f"test phase ran longer than {TIME_LIMIT_S} s")


def _time_limited():
    """Fail the test phase run at the yield if it takes over TIME_LIMIT_S.

    A hook, not a fixture, so that the limit also covers the set-up of
    module-scoped fixtures, which pytest makes before any function's."""
    if threading.current_thread() is not threading.main_thread():
        yield
        return
    previous = signal.signal(signal.SIGALRM, _expire)
    signal.setitimer(signal.ITIMER_REAL, TIME_LIMIT_S)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_setup(item):
    yield from _time_limited()


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_call(item):
    yield from _time_limited()


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_teardown(item):
    yield from _time_limited()


@pytest.fixture
def triangle():
    return parse_graph("3 3\n1 2\n2 3\n3 1\n")


@pytest.fixture
def single_edge():
    return parse_graph("2 1\n1 2\n")


@pytest.fixture
def path3():
    return parse_graph("3 2\n1 2\n2 3\n")


@pytest.fixture
def star4():
    # center 1 with three leaves
    return parse_graph("4 3\n1 2\n1 3\n1 4\n")


@pytest.fixture
def fig1():
    return figure1()


@pytest.fixture
def k4_adversarial():
    """K4 with ports arranged so a corrupted all-ones path of maximal length
    undercuts the legitimate paths of nodes 3 and 4."""
    return build_graph(
        4,
        [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)],
        {1: (2, 3, 4), 2: (1, 3, 4), 3: (4, 1, 2), 4: (3, 1, 2)},
    )
