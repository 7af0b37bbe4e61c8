import os
import random
import resource
import subprocess
import sys
from pathlib import Path

import pytest

import symfano
from symfano.schemas import fixture_path, read_json

#: the address space and the seconds that a bounded CLI run may take
BOUNDED_BYTES = 256 * 2**20
BOUNDED_SECONDS = 60


@pytest.fixture
def rng():
    return random.Random(20240817)


@pytest.fixture
def fixture_data():
    def load(name):
        return read_json(fixture_path(name))

    return load


@pytest.fixture
def property_cases():
    """Iterations per randomized property test."""
    return 200


def _cap_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (BOUNDED_BYTES, BOUNDED_BYTES))


@pytest.fixture(scope="session")
def fresh_env() -> dict[str, str]:
    """The environment of a fresh interpreter that imports the package from
    this checkout: this one's, with the package's source first on
    ``PYTHONPATH``."""
    src = str(Path(symfano.__file__).resolve().parent.parent)
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}


@pytest.fixture
def run_bounded(fresh_env):
    """Run ``python -m symfano.cli`` with the given arguments in a child
    process whose address space is capped at ``BOUNDED_BYTES`` and that is
    killed after ``BOUNDED_SECONDS``, in ``fresh_env``; the cap acts on the
    child only.  A run that needs more fails in seconds, as a
    ``MemoryError`` or a timeout, instead of taking the machine's memory."""

    def run(argv: list[str]) -> subprocess.CompletedProcess:
        return subprocess.run(
            [sys.executable, "-m", "symfano.cli", *argv],
            capture_output=True, text=True, env=fresh_env, timeout=BOUNDED_SECONDS,
            preexec_fn=_cap_address_space,
        )

    return run
