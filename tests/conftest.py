import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

import nncalc
from nncalc.generator import (
    ExtendedGenerator,
    convex_combine,
    make_identity_generator,
    make_sine_generator,
)

settings.register_profile(
    "ci",
    derandomize=True,
    max_examples=200,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("ci")


@pytest.fixture(autouse=True)
def no_thread_outlives_the_test():
    """Fail a test that leaves a thread running which it started, such as
    an iterate helper that was never joined."""
    before = set(threading.enumerate())
    yield
    leaked = [t.name for t in threading.enumerate() if t not in before]
    if leaked:
        pytest.fail(f"threads outlived the test: {leaked}")


@pytest.fixture(scope="session")
def sine_gen():
    return make_sine_generator()


@pytest.fixture(scope="session")
def sine_eg(sine_gen):
    return ExtendedGenerator(sine_gen)


@pytest.fixture(scope="session")
def identity_eg():
    return ExtendedGenerator(make_identity_generator())


@pytest.fixture(scope="session")
def convex_eg():
    return ExtendedGenerator(convex_combine([make_sine_generator(), make_identity_generator()],
                                            [0.5, 0.5]))


class CountingGenerator(ExtendedGenerator):
    """An extended generator that records each outermost call as ("forward", None)
    or ("iterate", k); an array forward's own iterate call is not counted."""

    def __init__(self, base):
        super().__init__(base)
        self.calls = []
        self._inside = False

    def _count(self, call, method, *args):
        if self._inside:
            return method(*args)
        self.calls.append(call)
        self._inside = True
        try:
            return method(*args)
        finally:
            self._inside = False

    def forward(self, x):
        return self._count(("forward", None), super().forward, x)

    def iterate(self, x, k):
        return self._count(("iterate", k), super().iterate, x, k)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def resolvable(*values, margin=1e-7):
    """True when every value keeps a workable distance from the integer
    plateaus of the iterate maps.

    A pushed value at distance d from an integer is stored with relative
    error ~ulp/d; a later pull re-exposes that as absolute error, so
    identities that pull after pushing are only double-verifiable when all
    pushed intermediates clear the margin (1e-7 keeps the 1e-9 budgets).
    """
    return all(abs(v - round(v)) > margin for v in values)


def python_process(args: list, timeout: float = 60.0) -> subprocess.CompletedProcess:
    """Run a fresh interpreter that imports this nncalc on ``args``; its output
    is bytes.  A run past ``timeout`` seconds fails, so a call that hangs fails
    the test instead of stalling the suite."""
    src = str(Path(nncalc.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    return subprocess.run([sys.executable, *args], env=env, capture_output=True,
                          timeout=timeout)


def run_python(code: str, timeout: float = 60.0) -> str:
    """Run ``code`` in a fresh interpreter that imports this nncalc; return its
    stdout.  A non-zero exit fails, as a run past ``timeout`` seconds does."""
    done = python_process(["-c", code], timeout)
    assert done.returncode == 0, done.stderr.decode()
    return done.stdout.decode()
