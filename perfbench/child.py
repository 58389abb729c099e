"""Work the benchmark runs in a fresh interpreter, so every cache starts cold.

Reads one JSON request on stdin and writes one JSON response on stdout:

    {"mode": "queries", "ids": [...], "trace": false}
        parse_triple_id -> stability_verdict -> report_record for each id,
        timed one id at a time.
    {"mode": "cli", "argv": [...], "trace": true}
        twoorbit.cli.main(argv) in this process, with stdout captured.
        Untraced CLI operations do not come here: run.py starts them as
        `python3 -m twoorbit.cli`, the way a user does.

With "trace", every function named in LAYERS is replaced, in every twoorbit
module that holds it by name, by a wrapper that records one span per call:
(layer, start ns, end ns, index of the enclosing span or -1).
"""

from __future__ import annotations

import functools
import hashlib
import io
import json
import sys
import time
import traceback

# layer name -> the public functions whose calls it times, as "module.function"
LAYERS = {
    "rootsys.closure": ["rootsys.closure_from_cartan"],
    "rootsys.build": ["rootsys.build_root_system"],
    "rootsys.weyl_dim": ["rootsys.weyl_dim"],
    "flagvar.enum": ["flagvar.flag_dimension", "flagvar.anticanonical_weight", "flagvar.flag_invariants"],
    "flagvar.levi": ["flagvar.flag_dimension_of_type", "flagvar.anticanonical_weight_of_type"],
    "pasquier.variety": ["pasquier.variety_invariants"],
    "pasquier.verdict": ["pasquier.stability_verdict", "pasquier.foliation_invariants"],
    "pasquier.record": ["pasquier.report_record"],
    "pasquier.catalog": ["pasquier.enumerate_triples", "pasquier.parse_triple_id"],
    "fixtures.verify": ["fixtures.verify"],
    "cli.render": ["cli.cmd_table", "cli.cmd_roots", "cli.cmd_flag", "cli.cmd_dim"],
}

# layers whose calls also add the length of what they return to a counter
RESULT_COUNTERS = {"rootsys.closure": "rootsys.closure.roots"}

# CLI commands whose stdout is the cli.render layer's output
RENDER_COMMANDS = ("table", "roots", "flag", "dim")


class Tracer:
    """Spans kept in memory until the child answers."""

    def __init__(self):
        self.t0 = time.perf_counter_ns()
        self.names: list[str] = list(LAYERS)
        self.spans: list = []
        self.stack: list[int] = []
        self.counters: dict[str, int] = {}
        self.missing: list[str] = []
        self._cached: dict[str, object] = {}

    def wrap(self, layer: str, fn):
        name = self.names.index(layer)
        counter = RESULT_COUNTERS.get(layer)
        spans, stack, counters, clock = self.spans, self.stack, self.counters, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, stack[-1] if stack else -1)
            if counter:
                counters[counter] = counters.get(counter, 0) + len(result)
            return result

        return traced

    def install(self) -> None:
        import twoorbit.cli  # noqa: F401  (imports every module of the package)

        modules = [m for n, m in sys.modules.items() if n == "twoorbit" or n.startswith("twoorbit.")]
        for layer, targets in LAYERS.items():
            for target in targets:
                module_name, _, fn_name = target.partition(".")
                original = getattr(sys.modules.get(f"twoorbit.{module_name}"), fn_name, None)
                if original is None:
                    self.missing.append(target)
                    continue
                if hasattr(original, "cache_info"):
                    self._cached[layer] = original
                wrapper = self.wrap(layer, original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)

    def report(self) -> dict:
        for layer, fn in self._cached.items():
            info = fn.cache_info()
            self.counters[f"{layer}.hits"] = info.hits
            self.counters[f"{layer}.misses"] = info.misses
        return {
            "t0": self.t0,
            "names": self.names,
            "spans": self.spans,
            "counters": self.counters,
            "missing": self.missing,
        }


def run_queries(ids: list[str]) -> list[dict]:
    from twoorbit import pasquier

    results = []
    for triple_id in ids:
        start = time.perf_counter()
        try:
            record = pasquier.report_record(pasquier.stability_verdict(pasquier.parse_triple_id(triple_id)))
        except Exception:  # a failed query is reported, and the stream goes on
            results.append({"id": triple_id, "ms": (time.perf_counter() - start) * 1e3,
                            "error": traceback.format_exc(limit=3)})
        else:
            results.append({"id": triple_id, "ms": (time.perf_counter() - start) * 1e3, "record": record})
    return results


def run_cli(argv: list[str], tracer: Tracer | None) -> dict:
    from twoorbit import cli

    sink = io.StringIO()
    real_stdout, sys.stdout = sys.stdout, sink
    error = None
    try:
        code = cli.main(argv)
    except SystemExit as exc:  # argparse exits on bad usage
        code = exc.code if isinstance(exc.code, int) else 1
    except Exception:
        code, error = 1, traceback.format_exc(limit=3)
    finally:
        sys.stdout = real_stdout
    out = sink.getvalue().encode()
    if tracer is not None and argv and argv[0] in RENDER_COMMANDS:
        tracer.counters["cli.render.bytes_out"] = len(out)
    return {"exit": code, "error": error, "stdout": digest(out)}


def last_line(text: bytes) -> str:
    lines = text.decode(errors="replace").strip().splitlines()
    return lines[-1] if lines else ""


def digest(out: bytes) -> dict:
    """What the benchmark compares a CLI output by: hash, size and last line."""
    return {"sha256": hashlib.sha256(out).hexdigest(), "bytes": len(out), "last_line": last_line(out)}


def main() -> None:
    request = json.loads(sys.stdin.read())
    tracer = Tracer() if request.get("trace") else None
    if tracer is not None:
        tracer.install()
    if request["mode"] == "queries":
        response = {"results": run_queries(request["ids"])}
    else:
        response = run_cli(request["argv"], tracer)
    if tracer is not None:
        response["trace"] = tracer.report()
    sys.stdout.write(json.dumps(response, separators=(",", ":")))
    sys.stdout.write("\n")


if __name__ == "__main__":
    main()
