"""End-to-end benchmark of the metadice CLI, with a separate layer trace.

Run from the repository root::

    python3 bench/run.py --workload verify-deep --seed 1 --seconds 30 --trace 0

Every invocation is a fresh ``python -m metadice`` process, timed from
start to exit. One client runs them one after another (a closed loop with
at most one child at a time). ``--trace 0`` reports the end-to-end metrics;
``--trace 1`` alternates timed passes with traced ones and reports per-layer
metrics from the traced ones, plus the tracing overhead. The last line of
stdout is one JSON object: ``correct``, ``attempted``, ``failed``,
``metrics``. See README.md in this directory.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

SETUP_REPEATS = 15
IMPORT_CLI = "import metadice.cli"

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "cmd_p50_s": "s",
    "cmd_tail_s": "s",
    "peak_rss_mb": "MB",
}

#: Traced layers, each reported as ``<layer>.s`` (inclusive seconds per
#: pass) and, where given, one work count per pass.
LAYER_COUNTS = {
    "loshu.parse_stack": None,
    "hierarchy.generate": "dice",
    "hierarchy.DiceFamily": None,
    "hierarchy.family_from_json": None,
    "sweep.sweep_pairs": "pairs",
    "hierarchy.verify_family": "failures",
    "cli.report_json": "bytes",
    "hierarchy.family_to_json": "bytes",
    "export.normalized_values": "points",
    "export.points_to_csv": "bytes",
    "export.to_dot": "bytes",
    "export.build_graph": "edges",
}


def per_layer_units() -> dict[str, str]:
    units = {}
    for layer, count in LAYER_COUNTS.items():
        units[f"{layer}.s"] = "s"
        if count is not None:
            units[f"{layer}.{count}"] = "bytes" if count == "bytes" else "count"
    units["sweep.pairs_per_s"] = "1/s"
    units["hierarchy.verify_family.self_s"] = "s"
    units["process.bare_s"] = "s"
    units["trace.overhead_s"] = "s"
    return units


PER_LAYER = per_layer_units()


def tail(values: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten samples beyond it.

    Returns (value, percentile). With ten samples or fewer there is no such
    percentile, and the maximum is returned as the 100th.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


@functools.cache
def environment() -> dict:
    probe = subprocess.run(
        [sys.executable, "-c",
         "from metadice.sweep import available_backends as a; print(*a())"],
        env=child_env(), capture_output=True, text=True, check=True,
    )
    try:
        numpy = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy = None
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as info:
            models = (ln.split(":", 1)[1] for ln in info if ln.startswith("model name"))
            cpu = next(models, cpu).strip()
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "backends": probe.stdout.split(),
        "numpy": numpy,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
    }


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p
    )
    return env


class Spawner:
    """The small process that starts and times every child (see spawner.py)."""

    def __init__(self, workdir: Path):
        self.workdir = workdir
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "spawner.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
            env=child_env(),
        )

    def batch(self, cmds: list[list]) -> dict:
        request = {"cwd": str(self.workdir), "cmds": cmds}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("the spawner process exited")
        return json.loads(line)

    def start_times(self, code: str, repeats: int) -> list[float]:
        """Wall times of ``repeats`` fresh ``python -c code`` processes."""
        cmd = [[sys.executable, "-c", code], os.devnull, os.devnull]
        runs = self.batch([cmd] * repeats)["runs"]
        if any(r[0] != 0 for r in runs):
            raise RuntimeError(f"python -c {code!r} failed")
        return [end - start for _, start, end, _ in runs]

    def close(self) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


class Checker:
    """Checks exit codes and outputs; a repeat must match its first output."""

    def __init__(self):
        self.seen: dict[tuple, tuple[bytes, str | None]] = {}
        self.attempted = 0
        self.problems: list[str] = []

    def check(
        self, inv: workloads.Invocation, code: int, stdout: bytes, stderr: bytes
    ) -> None:
        self.attempted += 1
        problem = None
        if code != inv.exit_code:
            problem = f"exit code {code}, want {inv.exit_code}: {stderr[-300:]!r}"
        digest = hashlib.sha256(stdout).digest()
        if inv.argv not in self.seen:
            self.seen[inv.argv] = (digest, inv.check(stdout))
        first, first_problem = self.seen[inv.argv]
        if digest != first:
            problem = problem or "stdout differs from an earlier run of this command"
        problem = problem or first_problem
        if problem:
            self.problems.append(f"{inv.label} ({' '.join(inv.argv)}): {problem}")


def run_pass(spawner: Spawner, workload, checker: Checker, traced: bool):
    """One pass over the workload's invocations, checked after it ends.

    Returns (wall seconds, [(start, end, maxrss_kb, spans or None)]).
    """
    work = spawner.workdir
    cmds = []
    for i, inv in enumerate(workload.invocations):
        if traced:
            cli = [str(HERE / "traced_cli.py"), str(work / f"spans-{i}")]
        else:
            cli = ["-m", "metadice"]
        out, err = str(work / f"out-{i}"), str(work / f"err-{i}")
        cmds.append([[sys.executable, *cli, *inv.argv], out, err])
    reply = spawner.batch(cmds)
    results = []
    for i, inv in enumerate(workload.invocations):
        code, start, end, rss = reply["runs"][i]
        stdout = (work / f"out-{i}").read_bytes()
        checker.check(inv, code, stdout, (work / f"err-{i}").read_bytes())
        spans = None
        if traced:
            spans_path = work / f"spans-{i}"
            spans = json.loads(spans_path.read_text()) if spans_path.exists() else []
            spans_path.unlink(missing_ok=True)
        results.append((start, end, rss, spans))
    return reply["wall_s"], results


def keep_going(
    walls: list[float], min_passes: int, started: float, seconds: float
) -> bool:
    """Another pass runs while it is needed or fits in the measured time."""
    if len(walls) < min_passes:
        return True
    return time.perf_counter() - started + statistics.median(walls) <= seconds


def child_time(spans: list[dict]) -> list[float]:
    """For each span, the time its direct children cover (they never overlap:
    the traced program is single-threaded)."""
    covered = [0.0] * len(spans)
    for span in spans:
        if span["parent"] is not None:
            covered[span["parent"]] += span["end"] - span["start"]
    return covered


def layer_metrics(results) -> dict[str, float]:
    """Per-layer totals for one traced pass, from its invocations' spans."""
    totals = dict.fromkeys(PER_LAYER, 0.0)
    for _, _, _, spans in results:
        for span, covered in zip(spans, child_time(spans)):
            layer = span["name"]
            if layer not in LAYER_COUNTS:
                continue
            totals[f"{layer}.s"] += span["end"] - span["start"]
            count = LAYER_COUNTS[layer]
            if count is not None:
                totals[f"{layer}.{count}"] += span[count]
            if layer == "hierarchy.verify_family":
                totals[f"{layer}.self_s"] += span["end"] - span["start"] - covered
    if totals["sweep.sweep_pairs.s"]:
        totals["sweep.pairs_per_s"] = (
            totals["sweep.sweep_pairs.pairs"] / totals["sweep.sweep_pairs.s"]
        )
    return totals


def trace_records(workload, results, pass_no: int) -> list[dict]:
    """Spans of one traced pass, each invocation's under a ``process`` span.

    ``pass`` and ``invocation`` (the position in the pass) identify the
    command run a span belongs to.
    """
    records = []
    for i, inv in enumerate(workload.invocations):
        start, end, rss, spans = results[i]
        run = {"pass": pass_no, "invocation": i, "label": inv.label}
        base = len(records)
        records.append(
            dict(run, name="process", start=start, end=end, parent=None, maxrss_kb=rss)
        )
        for span in spans:
            parent = base if span["parent"] is None else base + 1 + span["parent"]
            records.append(dict(span, parent=parent, **run))
    return records


def span_table(records: list[dict], passes: int) -> list[str]:
    """Calls, inclusive and self seconds per pass for every span name."""
    rows: dict[str, list[float]] = {}
    for r, covered in zip(records, child_time(records)):
        name = r["name"] + (f"[{r['backend']}]" if r.get("backend") else "")
        row = rows.setdefault(name, [0, 0.0, 0.0])
        row[0] += 1
        row[1] += r["end"] - r["start"]
        row[2] += r["end"] - r["start"] - covered
    lines = [f"  {'span':<36}{'calls':>8}{'incl_s':>12}{'self_s':>12}   per pass"]
    for name, (calls, incl, own) in sorted(rows.items(), key=lambda kv: -kv[1][1]):
        calls, incl, own = calls / passes, incl / passes, own / passes
        lines.append(f"  {name:<36}{calls:>8.1f}{incl:>12.4f}{own:>12.4f}")
    return lines


def timed_run(spawner: Spawner, workload, checker: Checker, seconds: float,
              min_passes: int, repeats: int):
    """End-to-end metrics from untraced passes: (values, notes, table lines)."""
    # Set-up samples are spread over the run, after each pass, so that a slow
    # spell of the machine weighs on them no more than on the passes. The
    # first import also writes the bytecode cache and is not counted.
    spawner.start_times(IMPORT_CLI, 1)
    per_pass = -(-repeats // min_passes)
    setup, walls, times, rss = [], [], [], []
    by_label: dict[str, list[float]] = {}
    started = time.perf_counter()
    while keep_going(walls, min_passes, started, seconds):
        wall, results = run_pass(spawner, workload, checker, False)
        setup += spawner.start_times(IMPORT_CLI, per_pass)
        walls.append(wall)
        for inv, (start, end, maxrss, _) in zip(workload.invocations, results):
            times.append(end - start)
            rss.append(maxrss)
            by_label.setdefault(inv.label, []).append(end - start)
    tail_value, percentile = tail(times)
    values = {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(walls),
        "cmd_p50_s": statistics.median(times),
        "cmd_tail_s": tail_value,
        "peak_rss_mb": max(rss) / 1024,
    }
    notes = {
        "setup_s": f"median of {len(setup)} fresh `{IMPORT_CLI}`",
        "wall_s": (
            f"median of {len(walls)} passes of {len(workload.invocations)} invocations"
        ),
        "cmd_p50_s": f"median of {len(times)} invocations",
        "cmd_tail_s": f"p{percentile:.1f} of {len(times)} invocations",
        "peak_rss_mb": "largest max-RSS of any invocation",
    }
    lines = [
        f"  {label:<36}{statistics.median(t):<22.6g}s       median of {len(t)} runs"
        for label, t in by_label.items()
    ]
    return values, notes, lines


def traced_run(spawner: Spawner, workload, checker: Checker, seconds: float,
               repeats: int, trace_file: Path):
    """Per-layer metrics from traced passes: (values, notes, table lines).

    Timed and traced passes alternate, and which goes first alternates too,
    so the overhead compares passes run at nearly the same time.
    """
    bare = spawner.start_times("pass", repeats + 1)[1:]
    timed, traced, layer_runs, records = [], [], [], []
    started = time.perf_counter()
    pair_walls: list[float] = []
    while keep_going(pair_walls, 1, started, seconds):
        if len(pair_walls) % 2:
            wall_traced, results = run_pass(spawner, workload, checker, True)
            wall_timed, _ = run_pass(spawner, workload, checker, False)
        else:
            wall_timed, _ = run_pass(spawner, workload, checker, False)
            wall_traced, results = run_pass(spawner, workload, checker, True)
        timed.append(wall_timed)
        traced.append(wall_traced)
        pair_walls.append(wall_timed + wall_traced)
        layer_runs.append(layer_metrics(results))
        records += trace_records(workload, results, len(traced))
    values = {k: statistics.median(run[k] for run in layer_runs) for k in PER_LAYER}
    values["process.bare_s"] = statistics.median(bare)
    values["trace.overhead_s"] = statistics.median(traced) - statistics.median(timed)
    notes = {
        "process.bare_s": f"median of {len(bare)} fresh `python -c pass`",
        "trace.overhead_s": (
            f"traced minus timed wall_s, medians of {len(traced)} passes each"
            f" ({statistics.median(traced):.4f} - {statistics.median(timed):.4f} s)"
        ),
    }
    trace_file.write_text(json.dumps({
        "workload": workload.name, "env": environment(),
        "metrics": values, "spans": records,
    }))
    lines = span_table(records, len(traced))
    lines.append(f"  spans written to {trace_file.relative_to(ROOT)}")
    return values, notes, lines


def measure(name: str, seed: int, seconds: float, trace: bool, smoke: bool) -> dict:
    """Build one workload, run it, and return its result object."""
    workdir = WORK / f"{name}-{seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    spawner = Spawner(workdir)
    try:
        workload = workloads.build(
            name, seed, workdir, workloads.SMOKE if smoke else workloads.FULL
        )
        repeats = 3 if smoke else SETUP_REPEATS
        checker = Checker()
        if trace:
            units = PER_LAYER
            values, notes, lines = traced_run(
                spawner, workload, checker, seconds, repeats,
                WORK / f"trace-{name}-seed{seed}.json",
            )
        else:
            units = END_TO_END
            values, notes, lines = timed_run(
                spawner, workload, checker, seconds,
                1 if smoke else workload.min_passes, repeats,
            )
        failed = len(checker.problems)
        lines.insert(0, f"workload {name}: {workload.why}")
        lines.append(
            f"  {'failed_ratio':<36}{failed / checker.attempted:<22.6g}ratio"
            f"   {failed} of {checker.attempted} invocations disagreed with the oracle"
        )
        for metric, value in values.items():
            note = notes.get(metric, "")
            lines.append(f"  {metric:<36}{value:<22.6g}{units[metric]:<8}{note}")
        for problem in checker.problems[:10]:
            print(f"FAILED {problem}", file=sys.stderr)
        return {
            "lines": lines,
            "correct": failed == 0,
            "attempted": checker.attempted,
            "failed": failed,
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
        }
    finally:
        spawner.close()
        shutil.rmtree(workdir, ignore_errors=True)


def main(argv=None, smoke: bool = False) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--workload", choices=[*workloads.WORKLOADS, "all"], default="all"
    )
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "metadice" / "cli.py").is_file():
        print(f"error: no metadice sources under {SRC}", file=sys.stderr)
        return 2
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        results[name] = measure(name, args.seed, args.seconds, bool(args.trace), smoke)
        print("\n".join(results[name]["lines"]), flush=True)
    print("env " + json.dumps(environment()))
    if len(names) == 1:
        metrics = results[names[0]]["metrics"]
    else:
        metrics = {
            f"{n}.{k}": v for n, r in results.items() for k, v in r["metrics"].items()
        }
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
