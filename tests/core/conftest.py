"""Shared fixtures of the core suite.

* ``--oracle`` (``pytest tests/core --oracle``; the option exists only
  when this directory is named on the command line) runs every test
  inside :func:`repro.core.plan.seed_engine`, so the reference
  enumerator the differential tests compare against cannot rot.  Tests
  marked ``production`` assert things only the production executors do
  (vectorization counters, probe memoization, the plan cache) and are
  left outside the block.
* ``tuple_executor`` pins a whole fixpoint to the tuple-at-a-time
  executor.
"""

from contextlib import contextmanager

import pytest

from repro.core import eval as core_eval
from repro.core.plan import seed_engine


def pytest_addoption(parser):
    parser.addoption(
        "--oracle", action="store_true", default=False,
        help="run tests/core inside seed_engine() (the reference oracle)",
    )


def pytest_configure(config):
    config.addinivalue_line(
        "markers",
        "production: pins the production executors; not wrapped by --oracle",
    )


@pytest.fixture(autouse=True)
def _oracle_leg(request):
    if (
        request.config.getoption("--oracle", default=False)
        and request.node.get_closest_marker("production") is None
    ):
        with seed_engine():
            yield
    else:
        yield


@contextmanager
def _tuple_executor():
    saved = core_eval.execute_batch
    core_eval.execute_batch = lambda *args, **kwargs: None
    try:
        yield
    finally:
        core_eval.execute_batch = saved


@pytest.fixture(scope="session")
def tuple_executor():
    """A context manager under which every firing runs tuple-at-a-time:
    the batch kernel declines each call through its own contract
    (``execute_batch`` returning ``None`` = re-run on the tuple
    executor)."""
    return _tuple_executor
