"""``python -m metadice`` and the installed ``metadice`` script.

:func:`main` runs :func:`metadice.cli.main` and freezes the cyclic garbage
collector before the process exits. The interpreter's shutdown collections
walk every object still tracked; frozen, none of them is walked, which
saves some 4 ms of a 42 ms ``import metadice.cli`` process. The command has
written its output and closed its files by then, and the objects it leaves
are freed when the process ends, as they would be anyway. ``atexit``
callbacks still run and stdout is still flushed at exit.

Only a process that ends with the command freezes: tests and library
callers run :func:`metadice.cli.main` in process, where a freeze would keep
their objects out of every later collection.
"""

import gc
import sys

from metadice import cli


def main() -> int:
    status = cli.main()
    gc.freeze()
    return status


if __name__ == "__main__":
    sys.exit(main())
