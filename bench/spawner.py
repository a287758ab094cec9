"""Run batches of commands one after another, timing each from outside.

The benchmark starts every CLI invocation from this small process rather
than from ``run.py``. On Linux a child's max-RSS counts the memory of the
process that spawned it, up to the moment it executes the new program;
``run.py`` holds the oracles' expected outputs, so children spawned from it
would report its size instead of their own.

Protocol, one JSON object per line each way:
request ``{"cwd": dir, "cmds": [[argv, stdout_path, stderr_path], ...]}``;
reply ``{"wall_s": s, "runs": [[exit_code, start, end, maxrss_kb], ...]}``.
Children inherit this process's environment. Times are ``perf_counter``
readings, the same monotonic clock ``run.py`` and traced children use.
"""

import json
import os
import subprocess
import sys
import time


def run_batch(cwd: str, cmds) -> dict:
    runs = []
    first = time.perf_counter()
    for argv, out_path, err_path in cmds:
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=cwd, stdout=out, stderr=err)
            _, status, usage = os.wait4(proc.pid, 0)
            end = time.perf_counter()
        proc.returncode = code = os.waitstatus_to_exitcode(status)
        runs.append([code, start, end, usage.ru_maxrss])
    return {"wall_s": time.perf_counter() - first, "runs": runs}


def main() -> None:
    for line in sys.stdin:
        request = json.loads(line)
        print(json.dumps(run_batch(request["cwd"], request["cmds"])), flush=True)


if __name__ == "__main__":
    main()
