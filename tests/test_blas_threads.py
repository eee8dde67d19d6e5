"""Importing cohwalk starts no idle OpenBLAS worker, unless the user chose a pool.

Each case runs in a fresh interpreter, because OpenBLAS sizes its pool
once, when numpy first loads it, and counts the threads in
/proc/self/task.
"""

import os
import subprocess
import sys

import pytest

pytestmark = pytest.mark.skipif(not os.path.isdir("/proc/self/task"),
                                reason="threads are counted in /proc/self/task")

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


def threads_after(imports, **variables):
    """(threads, OPENBLAS_NUM_THREADS or None) after ``imports`` in a fresh
    interpreter whose only thread variables are ``variables``."""
    env = {key: value for key, value in os.environ.items() if key not in THREAD_VARIABLES}
    script = (f"{imports}; import os; "
              "print(len(os.listdir('/proc/self/task')), os.environ.get('OPENBLAS_NUM_THREADS'))")
    out = subprocess.run([sys.executable, "-c", script], env=dict(env, PYTHONPATH=SRC, **variables),
                         capture_output=True, text=True, check=True).stdout.split()
    return int(out[0]), None if out[1] == "None" else out[1]


def test_import_leaves_one_thread_and_no_variable():
    assert threads_after("import cohwalk") == (1, None)


def test_openblas_num_threads_is_respected():
    two = threads_after("import numpy", OPENBLAS_NUM_THREADS="2")
    assert threads_after("import cohwalk", OPENBLAS_NUM_THREADS="2") == two
    if len(os.sched_getaffinity(0)) >= 2:
        assert two == (2, "2")


@pytest.mark.parametrize("variable", ["GOTO_NUM_THREADS", "OMP_NUM_THREADS"])
def test_other_thread_variables_are_respected(variable):
    assert (threads_after("import cohwalk", **{variable: "2"})
            == threads_after("import numpy", **{variable: "2"}))


def test_numpy_loaded_first_keeps_its_pool():
    pool = threads_after("import numpy")
    assert threads_after("import numpy; import cohwalk") == pool
    if len(os.sched_getaffinity(0)) >= 2:
        assert pool[0] > 1
