"""Session fixture failing the run when fork-based tests leave
shared-memory segments behind in ``/dev/shm``.

Imported by the ``conftest.py`` of each test package that forks
workers (``tests/fleet``, ``tests/stream``)."""

import os

import pytest

SHM_DIR = "/dev/shm"


@pytest.fixture(scope="session", autouse=True)
def no_leaked_shared_memory():
    if not os.path.isdir(SHM_DIR):
        yield
        return
    before = set(os.listdir(SHM_DIR))
    yield
    leaked = sorted(set(os.listdir(SHM_DIR)) - before)
    assert not leaked, f"shared-memory segments leaked: {leaked}"
