"""Run the metadice CLI with a span recorded around each layer function.

Usage: ``python traced_cli.py SPANS_JSON CLI_ARG...``

The wrappers are installed from outside the library: each public layer
function listed in ``LAYERS`` is replaced, in every ``metadice`` module that
bound it, by a wrapper that records a span (name, start, end, parent) and a
few work counts. ``DiceFamily`` is traced through its ``__init__``. Spans are
kept in memory and written to SPANS_JSON as the process exits; stdout and the
exit code are the CLI's own, so the benchmark checks traced runs like timed
ones. Byte counts are measured after a span closes and are not in its time.
"""

import functools
import json
import sys
import time


def _json_bytes(doc, *_):
    return {"bytes": len(json.dumps(doc, indent=2)) + 1}


def _text_bytes(text, *_):
    return {"bytes": len(text.encode())}


#: module -> {function: counts taken from (result, args, kwargs)}
LAYERS = {
    "loshu": {"parse_stack": None},
    "hierarchy": {
        "generate": lambda family, *_: {"dice": family.size},
        "family_from_json": None,
        "family_to_json": _json_bytes,
        "verify_family": lambda report, *_: {"failures": len(report.failures)},
    },
    "sweep": {
        "sweep_pairs": lambda result, args, kwargs: {
            "pairs": sum(result[0]),
            "backend": kwargs.get("backend"),
        },
    },
    "export": {
        "normalized_values": lambda points, *_: {"points": len(points)},
        "points_to_csv": _text_bytes,
        "to_dot": _text_bytes,
        "build_graph": lambda graph, *_: {"edges": len(graph.edges)},
    },
    "cli": {"report_json": _json_bytes},
}

spans: list[dict] = []
_open: list[int] = []


def traced(name: str, fn, counts=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        span = {"name": name, "parent": _open[-1] if _open else None}
        _open.append(len(spans))
        spans.append(span)
        span["start"] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span["end"] = time.perf_counter()
            _open.pop()
        if counts is not None:
            span.update(counts(result, args, kwargs))
        return result

    return wrapper


def install() -> None:
    """Wrap every layer function wherever a metadice module bound it."""
    import metadice.cli  # noqa: F401  (imports every layer module)

    modules = [m for n, m in sys.modules.items() if n.startswith("metadice")]
    for short, functions in LAYERS.items():
        module = sys.modules[f"metadice.{short}"]
        for fname, counts in functions.items():
            original = getattr(module, fname)
            wrapper = traced(f"{short}.{fname}", original, counts)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, attr, wrapper)
    family = sys.modules["metadice.hierarchy"].DiceFamily
    family.__init__ = traced("hierarchy.DiceFamily", family.__init__)


def main() -> int:
    out_path, cli_args = sys.argv[1], sys.argv[2:]
    install()
    from metadice.cli import main as cli_main

    try:
        return traced("cli.main", cli_main)(cli_args)
    finally:
        sys.stdout.flush()
        with open(out_path, "w") as out:
            json.dump(spans, out)


if __name__ == "__main__":
    sys.exit(main())
