"""The child runner of the scale checks in ``scale.py``."""

import subprocess

import pytest

from scale import run


def test_a_child_reads_its_own_peak():
    """``RUSAGE_CHILDREN`` would give the second child the first's 64 MB, and
    a child started from the test process would count that process's."""
    assert run("-c", "b = b'x' * (64 << 20)").peak_mb >= 64
    assert run("-c", "pass").peak_mb < 32


def test_a_child_gives_its_exit_code_output_and_counted_lines():
    code = "print('ab'); print('b'); print('a', end=''); raise SystemExit(3)"
    child = run("-c", code, count=b"a")
    assert (child.code, child.stdout, child.lines) == (3, "", 2)
    child = run("-c", "import sys; sys.stderr.write('e'); print('x', end='\\r\\n')")
    assert (child.code, child.stdout, child.stderr) == (0, "x\r\n", b"e")


def test_a_child_past_its_timeout_is_killed():
    with pytest.raises(subprocess.TimeoutExpired):
        run("-c", "import time; time.sleep(60)", timeout=0.5)
