"""Shared fixtures and marker wiring.

Kernels and operator factories are expensive to warm up (operator
fitting, quadrature generation), so they are session-scoped.

Two opt-in markers keep the default ``pytest -x -q`` lane fast:

* ``slow`` - long-running scaling/benchmark style tests;
* ``fuzz`` - the full schedule-fuzz sweeps (>= 100 fuzzed schedules
  per method; see ``test_schedule_fuzz.py``);
* ``parallel`` - tests that spawn real worker processes and shared
  memory (the ``backend="parallel"`` lane; see ``test_realparallel.py``
  and ``test_shm_gas.py``).

Tests carrying either marker are skipped unless a ``-m`` expression
selects markers explicitly (``pytest -m fuzz``, ``pytest -m "slow or
fuzz"``, ...).

The session runs with BLAS capped at one thread (see below), so no lane
depends on a hand-set environment, and it fails at the end if any test
left a shared-memory segment, child process or operator-cache temp dir
behind (``no_leaked_resources``).
"""

from __future__ import annotations

import glob
import multiprocessing
import os
import sys
import tempfile

# Workers of the real-parallel backend cap their BLAS at one thread; the
# ``parallel`` tests compare their potentials bit for bit with this
# process, whose operator fits differ in the last bits under any other
# thread count.  BLAS reads the caps when it is loaded, so they are set
# here, before the first numpy import of the test session.
_THREAD_ENV = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
_BLAS_PINNED = "numpy" not in sys.modules or all(
    os.environ.get(var) == "1" for var in _THREAD_ENV
)
os.environ.update(dict.fromkeys(_THREAD_ENV, "1"))

import numpy as np  # noqa: E402
import pytest  # noqa: E402

from repro.hpx import parallel  # noqa: E402
from repro.hpx.gas import ShmArena  # noqa: E402
from repro.kernels.fitops import OperatorFactory  # noqa: E402
from repro.kernels.laplace import LaplaceKernel  # noqa: E402
from repro.kernels.yukawa import YukawaKernel  # noqa: E402

assert _THREAD_ENV == parallel._THREAD_ENV

OPT_IN_MARKERS = ("slow", "fuzz", "parallel")


@pytest.hookimpl(trylast=True)  # after ``-m`` has deselected
def pytest_collection_modifyitems(config, items):
    if config.getoption("-m"):
        # an explicit marker expression overrides the default skip
        if not _BLAS_PINNED and any("parallel" in item.keywords for item in items):
            raise pytest.UsageError(
                "numpy was imported before tests/conftest.py could cap its BLAS: "
                "the parallel tests compare one-thread workers with this process "
                f"bit for bit, so export {'=1 '.join(_THREAD_ENV)}=1 and rerun"
            )
        return
    for marker in OPT_IN_MARKERS:
        skip = pytest.mark.skip(reason=f"{marker} test: select with -m {marker}")
        for item in items:
            if marker in item.keywords:
                item.add_marker(skip)


def _op_dirs() -> set[str]:
    return set(glob.glob(os.path.join(tempfile.gettempdir(), "hmmops_*")))


@pytest.fixture(scope="session", autouse=True)
def no_leaked_resources():
    """Fail the run if it leaves a shared-memory segment of this process,
    a live child process or an operator-cache directory behind (a test
    that trips this gets its leak fixed, not an exemption)."""
    dirs_before = _op_dirs()
    yield
    leaks = [f"shm segment {name}" for name in ShmArena.leaked(f"hmmgas_{os.getpid()}_")]
    leaks += [f"child process {p.pid}" for p in multiprocessing.active_children()]
    leaks += [f"temp dir {d}" for d in sorted(_op_dirs() - dirs_before)]
    if leaks:
        pytest.fail("the test session leaked: " + ", ".join(leaks), pytrace=False)


@pytest.fixture(scope="session")
def laplace():
    return LaplaceKernel(10)


@pytest.fixture(scope="session")
def yukawa():
    return YukawaKernel(10, lam=2.0)


@pytest.fixture(scope="session")
def laplace_factory(laplace):
    return OperatorFactory(laplace, eps=1e-4)


@pytest.fixture(scope="session")
def yukawa_factory(yukawa):
    return OperatorFactory(yukawa, eps=1e-4)


@pytest.fixture(scope="session")
def small_cloud():
    """A deterministic small source/target pair for quick accuracy tests."""
    rng = np.random.default_rng(42)
    n = 1500
    sources = rng.uniform(0.0, 1.0, size=(n, 3))
    targets = rng.uniform(0.0, 1.0, size=(n, 3))
    weights = rng.normal(size=n)
    return sources, weights, targets
