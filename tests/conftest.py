"""Fixtures shared by the test modules."""

import os
import subprocess
import sys

import pytest


@pytest.fixture(scope="session", autouse=True)
def blas_on_one_thread():
    """Run the session's BLAS on one thread, as every kmslab subcommand
    does.  An idle OpenBLAS thread spins beside the caller: the dense
    scipy.linalg.expm references of test_liouville.py took 2.7 times as
    long on two threads as on one, and no test gained from the second."""
    import numpy  # noqa: F401  the libraries whose pools are capped
    import scipy.linalg  # noqa: F401
    from kmslab import cli
    with cli._blas_threads():
        yield


@pytest.fixture(scope="session")
def cli_env(tmp_path_factory):
    """Environment for child processes that run ``python -m kmslab.cli``.

    The children start in a temporary directory, where a relative
    ``PYTHONPATH=src`` points nowhere.  So the absolute directory holding
    the ``kmslab`` this process imported goes first on ``PYTHONPATH``, and
    a child is checked once to import that very package, not an installed
    or other copy.  Treat the returned mapping as read-only: it is shared
    by the whole session.
    """
    # Imported here, not at module level, so that a missing package fails
    # the test modules that need it rather than the whole session.
    import kmslab

    package_file = os.path.abspath(kmslab.__file__)
    root = os.path.dirname(os.path.dirname(package_file))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (root, env.get("PYTHONPATH")) if p)
    env.setdefault("OMP_NUM_THREADS", "1")
    proc = subprocess.run(
        [sys.executable, "-c", "import kmslab; print(kmslab.__file__)"],
        cwd=str(tmp_path_factory.mktemp("cli_env")), env=env,
        capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == package_file, (
        "child imported kmslab from %r, this process from %r"
        % (proc.stdout.strip(), package_file))
    return env
