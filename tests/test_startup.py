"""What importing the package costs a fresh process: one OS thread.

numpy's bundled OpenBLAS starts a worker thread per core when it loads.
``import diamondnet`` loads numpy with one BLAS thread when it is the first
to load it, and leaves ``os.environ`` as it found it; a user's
``OPENBLAS_NUM_THREADS``, and a numpy imported before the package, are
left alone. Each case runs a fresh interpreter and counts the threads in
``/proc/self/task``.
"""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

import diamondnet

pytestmark = pytest.mark.skipif(
    not os.path.isdir("/proc/self/task"), reason="needs /proc/self/task"
)

SRC = os.path.dirname(os.path.dirname(os.path.abspath(diamondnet.__file__)))

REPORT = (
    "import json, os; print(json.dumps([len(os.listdir('/proc/self/task')), "
    "os.environ.get('OPENBLAS_NUM_THREADS')]))"
)


def blas_is_openblas():
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy < 1.26 has no dict form
        return False
    return "openblas" in str(blas.get("name", "")).lower()


def fresh(imports, **env):
    """(OS threads, OPENBLAS_NUM_THREADS) in a new interpreter after
    ``imports``, with ``env`` set and OPENBLAS_NUM_THREADS unset unless it
    is given."""
    child = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    child["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, child.get("PYTHONPATH")]))
    child.update(env)
    out = subprocess.run(
        [sys.executable, "-c", f"{imports}; {REPORT}"],
        env=child, capture_output=True, text=True, check=True, timeout=120,
    ).stdout
    return tuple(json.loads(out))


def test_import_leaves_one_thread_and_the_environment_as_it_was():
    assert fresh("import diamondnet") == (1, None)
    assert fresh("import diamondnet.cli") == (1, None)


@pytest.mark.skipif(not blas_is_openblas(), reason="numpy's BLAS is not OpenBLAS")
def test_user_setting_is_kept():
    # OpenBLAS runs no more threads than the process has CPUs
    threads = min(2, len(os.sched_getaffinity(0)))
    assert fresh("import diamondnet", OPENBLAS_NUM_THREADS="2") == (threads, "2")


def test_numpy_imported_first_is_left_alone():
    alone = fresh("import numpy")
    assert alone[1] is None
    assert fresh("import numpy; import diamondnet") == alone
