#!/usr/bin/env python3
"""Benchmark for twoorbit: end-to-end metrics per workload, per-layer metrics from a traced run.

    python3 perfbench/run.py --workload catalog --seed 1 --seconds 40 --trace 0

Run it from the root of a checkout; the package is imported from ./src, no
install needed. Every operation runs in a fresh interpreter, one at a time.
The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics; the lines before it say what was measured. With
--trace 0 the metrics are the end-to-end ones of BENCHMARK.json, with
--trace 1 the per-layer ones. perfbench/README.md describes them.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import signal
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

from child import LAYERS, digest, last_line

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"
SRC = ROOT / "src"
OUT = BENCH / "out"
CHILD = BENCH / "child.py"
REFERENCES = BENCH / "references.json"

PYTHON = sys.executable
ENV = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")

# a whole run has to end within 180 s, so any operation still running this
# long after the start is killed and counted as failed
STARTED = time.perf_counter()
RUN_LIMIT_S = 160
SETUP_PER_PASS = 3
TAIL_BEYOND = 10
# probe_s on a quiet vCPU of the 2-vCPU Xeon VM the bounds were set on; the
# timings are reported at the speed of a CPU that runs the probe this fast
REFERENCE_PROBE_S = 0.014
CPUS = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else []


@dataclass
class Pass:
    """One pass of a workload: its operations, their timings and their failures."""

    process_walls: list[float] = field(default_factory=list)
    process_times: list[float] = field(default_factory=list)
    rss_kb: int = 0
    latencies_ms: list[float] = field(default_factory=list)
    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    traces: list[dict] = field(default_factory=list)
    layers: dict[str, dict] = field(default_factory=dict)
    counters: Counter = field(default_factory=Counter)
    missing: set[str] = field(default_factory=set)
    spans: int = 0

    @property
    def wall_s(self) -> float:
        return sum(self.process_walls)

    def summarize(self, keep: bool) -> None:
        """Reduce the traces of a traced pass to per-layer numbers; drop the spans unless `keep`."""
        self.layers = layer_stats(self.traces)
        for trace in self.traces:
            self.counters.update(trace["counters"])
            self.missing.update(trace["missing"])
            self.spans += len(trace["spans"])
        if not keep:
            self.traces = []

    def tally(self, failure: str | None) -> None:
        """Count one attempted operation; `failure` says why it failed, or is None."""
        self.attempted += 1
        if failure:
            self.failures.append(failure)


def probe_s() -> float:
    """Wall time of a fixed bit of pure-Python work, about 15 ms on a quiet 2-vCPU Xeon."""
    start = time.perf_counter()
    total = Fraction(0)
    for i in range(1, 5000):
        total += Fraction(i % 97, i % 89 + 1)
    return time.perf_counter() - start


def pin_to_quietest_cpu() -> float:
    """Pin this process, and so the children it starts next, to the CPU that runs probe_s fastest.

    Returns the probe's time on that CPU. On a VM shared with other tenants
    each vCPU is slowed about 1.7x while a neighbour runs on its physical
    core, mostly independently of the other vCPUs and for 10 s or more at a
    time. Probing before every child keeps most operations on a vCPU that is
    quiet at that moment.
    """
    if not hasattr(os, "sched_setaffinity") or len(CPUS) < 2:
        return probe_s()
    times = {}
    for cpu in CPUS:
        os.sched_setaffinity(0, {cpu})
        times[cpu] = probe_s()
    quietest = min(times, key=times.get)
    os.sched_setaffinity(0, {quietest})
    return times[quietest]


def spawn(argv: list[str], stdin: bytes = b"") -> tuple[int, bytes, bytes, float, int, float]:
    """Run one child to its end on the quietest CPU: (exit code, stdout, stderr, wall s, peak RSS KiB, speed).

    `speed` is REFERENCE_PROBE_S over the probe's time on the child's CPU,
    averaged over just before and just after the child; wall s * speed is
    the child's time at the reference speed. When every vCPU stays slow for
    minutes, the probe and the child slow alike, so that product holds steady.
    """
    before = pin_to_quietest_cpu()
    start = time.perf_counter()
    with subprocess.Popen(argv, cwd=ROOT, env=ENV, stdin=subprocess.PIPE,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
        # os.kill rather than proc.kill, which could reap the child before wait4 does
        timer = threading.Timer(max(1.0, STARTED + RUN_LIMIT_S - start), os.kill, (proc.pid, signal.SIGKILL))
        timer.start()
        err: list[bytes] = []
        reader = threading.Thread(target=lambda: err.append(proc.stderr.read()))
        reader.start()
        try:
            proc.stdin.write(stdin)
            proc.stdin.close()
            out = proc.stdout.read()
            reader.join()
        finally:
            timer.cancel()
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
    wall = time.perf_counter() - start
    speed = 2 * REFERENCE_PROBE_S / (before + probe_s())
    return proc.returncode, out, err[0] if err else b"", wall, usage.ru_maxrss, speed


# --- correctness ------------------------------------------------------------

def load_references() -> dict:
    with open(REFERENCES) as f:
        return json.load(f)


def judge_cli(argv: list[str], code: int, out: dict, references: dict) -> str | None:
    """Why a CLI operation's result is wrong, or None when it matches its reference."""
    key = " ".join(argv)
    if argv[0] == "verify" and not all(v.endswith(": PASS") for v in out["last_line"].split(", ")):
        return f"{key}: exit {code}, {out['last_line']}"
    if code != 0:
        return f"{key}: exit {code}"
    ref = references.get(key)
    if ref is None:
        return f"{key}: no reference output"
    if (out["sha256"], out["bytes"]) != (ref["sha256"], ref["bytes"]):
        return f"{key}: stdout differs from the reference ({out['bytes']} bytes, expected {ref['bytes']})"
    return None


def expected_record(triple_id: str) -> dict:
    """The report record of a Bn or Cn triple, from the closed forms in twoorbit.fixtures."""
    from twoorbit.fixtures import BL_H_NUM, CF, CF_NUM, STAB
    from twoorbit.pasquier import Family

    head, *params = triple_id.split(":")
    values = dict(p.split("=") for p in params)
    n, k = int(values["n"]), int(values["k"]) if "k" in values else None
    family = Family(head)
    closed = {column: formula(n, k) for column, formula in BL_H_NUM[family].items()}
    rank_ey, c1_ey = CF_NUM[family](n, k)
    rank_f, c1_f = CF[family](n, k)
    mu_f, mu_theta, _ = STAB[family](n, k)
    if mu_f > mu_theta:
        verdict = "Unstable"
    elif mu_f == mu_theta:
        verdict = "StrictlySemistableBoundary"
    else:
        verdict = "Stable"
    return {
        "triple": triple_id, "family": family.value, "n": n, "k": k,
        "dim_Y": closed["dim_Y"], "c1_Y": closed["c1_Y"], "dim_Z": closed["dim_Z"], "c1_Z": closed["c1_Z"],
        "dim_X": closed["dim_X"], "r_X": closed["c1_X"], "codim_Z": closed["dim_X"] - closed["dim_Z"],
        "rank_EY": rank_ey, "c1_EY": c1_ey, "rank_F": rank_f, "c1_F": c1_f,
        "mu_F": f"{mu_f.numerator}/{mu_f.denominator}",
        "mu_Theta": f"{mu_theta.numerator}/{mu_theta.denominator}",
        "verdict": verdict,
    }


def judge_record(triple_id: str, result: dict) -> str | None:
    """Why one large-rank query's answer is wrong, or None when it matches the closed forms."""
    if "error" in result:
        return f"{triple_id}: {result['error'].strip().splitlines()[-1]}"
    expected = expected_record(triple_id)
    wrong = [k for k in expected.keys() | result["record"].keys() if expected.get(k) != result["record"].get(k)]
    return f"{triple_id}: wrong {', '.join(sorted(wrong))}" if wrong else None


# --- workloads --------------------------------------------------------------

def catalog_size(max_n: int) -> int:
    """Triples with parameter n <= max_n: Bn, B3special, Cn for 2 <= k <= n, and four fixed ones."""
    return (max_n - 2) + 1 + max_n * (max_n - 1) // 2 + 4


def large_rank_ids(seed: int, count: int, lo: int, hi: int) -> list[str]:
    """Distinct Bn and Cn ids, half each, with n log-uniform in [lo, hi].

    Each family draws one n from each of `count/2` equal slices of log n, so
    the latency quantiles hardly move from one seed to the next.
    """
    rng = random.Random(seed)
    ids: list[str] = []
    for family, size in (("Bn", count - count // 2), ("Cn", count // 2)):
        for j in range(size):
            while True:
                n = round(lo * (hi / lo) ** ((j + rng.random()) / size))
                triple_id = f"Bn:n={n}" if family == "Bn" else f"Cn:n={n}:k={rng.randint(2, n)}"
                if triple_id not in ids:
                    break
            ids.append(triple_id)
    rng.shuffle(ids)
    return ids


class CliWorkload:
    """A fixed list of CLI operations, each one run as `python3 -m twoorbit.cli ...`."""

    unit = "command"

    def __init__(self, ops: list[list[str]], items: int, item: str):
        self.ops, self.items, self.item = ops, items, item
        self.references = load_references()

    def run_pass(self, traced: bool) -> Pass:
        p = Pass()
        for argv in self.ops:
            if traced:
                request = json.dumps({"mode": "cli", "argv": argv, "trace": True}).encode()
                code, raw, err, wall, rss, speed = spawn([PYTHON, str(CHILD)], request)
                try:
                    response = json.loads(raw)
                except ValueError:
                    p.tally(f"{' '.join(argv)}: traced child exit {code} {last_line(err)}")
                else:
                    p.traces.append(response["trace"])
                    failure = judge_cli(argv, response["exit"], response["stdout"], self.references)
                    if failure and response["error"]:
                        failure += " " + response["error"].strip().splitlines()[-1]
                    p.tally(failure)
            else:
                code, raw, err, wall, rss, speed = spawn([PYTHON, "-m", "twoorbit.cli", *argv])
                failure = judge_cli(argv, code, digest(raw), self.references)
                p.tally(failure and f"{failure} {last_line(err)}".strip())
            p.process_walls.append(wall)
            p.process_times.append(wall * speed)
            p.rss_kb = max(p.rss_kb, rss)
            p.latencies_ms.append(wall * speed * 1e3)
        return p


class QueryWorkload:
    """A stream of triple ids answered in one fresh interpreter per pass."""

    unit = "query"
    item = "queries"

    def __init__(self, ids: list[str]):
        self.ids = ids
        self.items = len(ids)

    def run_pass(self, traced: bool) -> Pass:
        p = Pass()
        request = json.dumps({"mode": "queries", "ids": self.ids, "trace": traced}).encode()
        code, raw, err, wall, p.rss_kb, speed = spawn([PYTHON, str(CHILD)], request)
        p.process_walls = [wall]
        p.process_times = [wall * speed]
        try:
            response = json.loads(raw)
        except ValueError:
            for triple_id in self.ids:
                p.tally(f"{triple_id}: query child exit {code} {last_line(err)}")
            return p
        answered = {r["id"]: r for r in response["results"]}
        for triple_id in self.ids:
            result = answered.get(triple_id)
            p.tally(judge_record(triple_id, result) if result else f"{triple_id}: no answer")
        p.latencies_ms = [r["ms"] * speed for r in response["results"]]
        if traced:
            p.traces.append(response["trace"])
        return p


def make_workload(name: str, seed: int, small: bool):
    # Sizes keep every operation at about 2 s or less on a 2-vCPU VM, so a
    # 40 s run times each one 9 or more times. With the 5 s operations of
    # `table --max-n 200` and 10^6-rank queries, a run had 3 or 4 passes.
    if name == "catalog":
        max_n = 6 if small else 100
        ops = [["table", "--max-n", str(max_n)], ["verify", "--max-n", str(max_n)]]
        return CliWorkload(ops, 2 * catalog_size(max_n), "triple evaluations")
    if name == "large-rank":
        return QueryWorkload(large_rank_ids(seed, 5, 10, 1000) if small else large_rank_ids(seed, 100, 10**3, 3 * 10**5))
    if name == "enumerate":
        b, c_roots, c_dim = (8, 6, 5) if small else (48, 40, 30)
        ops = [["flag", f"B{b}", "--mark", str(b // 2)], ["roots", f"C{c_roots}"], ["dim", f"C{c_dim}", ",".join(["1"] * c_dim)]]
        # B_r and C_r have r*r positive roots
        return CliWorkload(ops, b * b + c_roots * c_roots + c_dim * c_dim, "positive roots")
    raise ValueError(name)


WORKLOADS = ("catalog", "large-rank", "enumerate")


# --- per-layer numbers from spans ------------------------------------------

def layer_stats(traces: list[dict]) -> dict[str, dict]:
    """Calls and self time per layer, summed over the processes of one pass.

    A span's self time is its duration minus the durations of the spans it
    encloses; the wrapped calls run on one thread, so those never overlap.
    """
    stats = {layer: {"calls": 0, "self_ns": 0} for layer in LAYERS}
    for trace in traces:
        spans = trace["spans"]
        covered = [0] * len(spans)
        for _, start, end, parent in spans:
            if parent >= 0:
                covered[parent] += end - start
        for (name, start, end, _), inner in zip(spans, covered):
            entry = stats[trace["names"][name]]
            entry["calls"] += 1
            entry["self_ns"] += end - start - inner
    return stats


def write_trace(path: Path, header: dict, traces: list[dict]) -> None:
    """One JSON header line, then one [process, layer, start us, end us, parent] line per span."""
    path.parent.mkdir(parents=True, exist_ok=True)
    base = min((t["t0"] for t in traces), default=0)
    with open(path, "w") as f:
        f.write(json.dumps(header) + "\n")
        for proc, trace in enumerate(traces):
            names = trace["names"]
            for name, start, end, parent in trace["spans"]:
                f.write(f'[{proc},"{names[name]}",{(start - base) / 1e3:.3f},{(end - base) / 1e3:.3f},{parent}]\n')


# --- the run ----------------------------------------------------------------

def check_checkout() -> None:
    """Exit without a result unless twoorbit imports from the ./src of this checkout."""
    if not (SRC / "twoorbit" / "cli.py").is_file():
        sys.exit(f"perfbench: {SRC / 'twoorbit'} not found; run from the root of a twoorbit checkout")
    code, out, err, *_ = spawn([PYTHON, "-c", "import twoorbit.cli; print(twoorbit.cli.__file__)"])
    if code != 0 or Path(out.decode().strip()).resolve() != (SRC / "twoorbit" / "cli.py").resolve():
        sys.exit(f"perfbench: cannot import twoorbit.cli from {SRC}: {last_line(err) or out.decode().strip()}")
    sys.path.insert(0, str(SRC))  # for the closed forms the large-rank answers are checked against


def measure_setup(count: int) -> list[float]:
    """Times at the reference speed of `count` fresh interpreters that each import twoorbit.cli and exit."""
    samples = []
    for _ in range(count):
        code, _, err, wall, _, speed = spawn([PYTHON, "-c", "import twoorbit.cli"])
        if code != 0:
            sys.exit(f"perfbench: importing twoorbit.cli failed: {last_line(err)}")
        samples.append(wall * speed)
    return samples


def tail(values: list[float]) -> tuple[float, str]:
    """The highest percentile with at least TAIL_BEYOND samples above it, else the maximum."""
    ordered = sorted(values)
    if len(ordered) > TAIL_BEYOND:
        rank = len(ordered) - TAIL_BEYOND
        return ordered[rank - 1], f"p{100 * rank / len(ordered):g}"
    return ordered[-1], "p100"


def run_passes(workload, seconds: float, tracing: bool) -> tuple[list[Pass], list[Pass], list[float]]:
    """Passes until `seconds` would be exceeded: (untraced, traced, set-up samples).

    Untraced, set-up is sampled before every pass, so that its median spans the
    whole run. Tracing, traced passes alternate with untraced ones, and only the
    first traced pass keeps its spans.
    """
    plain: list[Pass] = []
    traced: list[Pass] = []
    setup: list[float] = []
    start = time.perf_counter()
    kinds = [False, True] if tracing else [False]
    while True:
        round_start = time.perf_counter()
        if not tracing:
            setup += measure_setup(SETUP_PER_PASS)
        for kind in kinds:
            p = workload.run_pass(kind)
            if kind:
                p.summarize(keep=not traced)
            (traced if kind else plain).append(p)
        now = time.perf_counter()
        # start another round only if one as long as the last fits in the time left
        if now - start + (now - round_start) > seconds:
            return plain, traced, setup


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def medians(runs: list[list[float]]) -> list[float]:
    """Element-wise median of equally long lists: each operation's median time over the passes."""
    return [statistics.median(times) for times in zip(*runs)]


def end_to_end(workload, passes: list[Pass], setup: list[float]) -> tuple[dict, list[str]]:
    # Every pass runs the same operations in the same order, so each timing
    # is the median over the run's passes of one operation's time at the
    # reference speed (see spawn).
    pass_s = sum(medians([p.process_times for p in passes]))
    # a pass whose query process died has no latencies; leave it out
    complete = [p.latencies_ms for p in passes if p.latencies_ms]
    typical = medians(complete) or [0.0]
    tail_ms, percentile = tail(typical)
    notes = [
        f"items: {workload.items} {workload.item} per pass",
        f"pass_s: each process of a pass at its median time over {len(passes)} passes, at the reference speed "
        f"(probe_s {REFERENCE_PROBE_S * 1e3:g} ms); pass wall times: " + " ".join(f"{p.wall_s:.4g}" for p in passes)
        + "; at the reference speed: " + " ".join(f"{sum(p.process_times):.4g}" for p in passes),
        f"query_ms: p50 and {percentile} (highest percentile with {TAIL_BEYOND} samples beyond it, else the "
        f"maximum) of {len(typical)} {workload.unit} latencies, each the median of {len(complete)} passes",
        f"setup_s: median of {len(setup)} fresh interpreters importing twoorbit.cli, {SETUP_PER_PASS} before each "
        "pass, at the reference speed",
    ]
    metrics = {
        "items_per_s": metric(workload.items / pass_s, "1/s"),
        "pass_s": metric(pass_s, "s"),
        "query_ms.p50": metric(statistics.median(typical), "ms"),
        "query_ms.tail": metric(tail_ms, "ms"),
        "peak_rss_mb": metric(max(p.rss_kb for p in passes) / 1024, "MB"),
        "setup_s": metric(statistics.median(setup), "s"),
    }
    return metrics, notes


def per_layer(plain: list[Pass], traced: list[Pass]) -> tuple[dict, list[str]]:
    # every number comes from one traced pass, the one of median wall time, so
    # the layers' self times add up to at most its wall time
    chosen = sorted(traced, key=lambda p: p.wall_s)[(len(traced) - 1) // 2]
    metrics = {}
    for layer, s in chosen.layers.items():
        metrics[f"{layer}.calls"] = metric(s["calls"], "count")
        metrics[f"{layer}.self_s"] = metric(s["self_ns"] / 1e9, "s")
    hits, misses = chosen.counters["pasquier.variety.hits"], chosen.counters["pasquier.variety.misses"]
    metrics["rootsys.closure.roots"] = metric(chosen.counters["rootsys.closure.roots"], "count")
    metrics["pasquier.variety.misses"] = metric(misses, "count")
    metrics["pasquier.variety.hit_ratio"] = metric(hits / (hits + misses) if hits + misses else 0.0, "ratio")
    metrics["cli.render.bytes_out"] = metric(chosen.counters["cli.render.bytes_out"], "bytes")
    untraced_s = statistics.median(p.wall_s for p in plain)
    traced_s = statistics.median(p.wall_s for p in traced)
    metrics["trace.wall_s"] = metric(chosen.wall_s, "s")
    metrics["trace.overhead"] = metric(traced_s / untraced_s - 1, "ratio")
    calls = [{layer: s["calls"] for layer, s in p.layers.items()} for p in traced]
    self_s = sum(s["self_ns"] for s in chosen.layers.values()) / 1e9
    notes = [
        f"spans: {chosen.spans} in the traced pass of median wall time ({len(traced)} traced passes); "
        f"self times sum to {self_s:.6g} s of its {chosen.wall_s:.6g} s",
        f"pasquier.variety.hit_ratio: {hits} hits of {hits + misses} lookups",
        f"trace.overhead: median traced pass {traced_s:.6g} s over median untraced pass {untraced_s:.6g} s "
        f"({len(plain)} untraced passes)",
        "calls repeat exactly in every traced pass" if all(c == calls[0] for c in calls)
        else "WARNING: calls differ between traced passes",
    ]
    missing = set().union(*(p.missing for p in traced))
    if missing:
        notes.append(f"not traced, no such function: {', '.join(sorted(missing))}")
    return metrics, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="how long the passes may run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: per-layer metrics from traced passes instead of end-to-end ones")
    parser.add_argument("--small", action="store_true", help="tiny inputs, for the smoke test")
    args = parser.parse_args(argv)

    check_checkout()
    workload = make_workload(args.workload, args.seed, args.small)
    plain, traced, setup = run_passes(workload, args.seconds, bool(args.trace))
    if args.trace:
        metrics, notes = per_layer(plain, traced)
        header = {"workload": args.workload, "seed": args.seed, "small": args.small,
                  "fields": ["process", "layer", "start_us", "end_us", "parent"]}
        write_trace(OUT / f"trace-{args.workload}.jsonl", header, traced[0].traces)
    else:
        metrics, notes = end_to_end(workload, plain, setup)
    passes = plain + traced
    attempted = sum(p.attempted for p in passes)
    failures = [f for p in passes for f in p.failures]

    print(f"perfbench workload={args.workload} seed={args.seed} trace={args.trace} small={args.small} "
          f"passes={len(passes)} seconds={args.seconds:g}")
    for note in notes:
        print(f"  {note}")
    print(f"  fail_ratio: {len(failures)}/{attempted} = {len(failures) / attempted:.6g}")
    for failure in failures[:20]:
        print(f"  FAILED {failure}")
    print(json.dumps({"correct": not failures, "attempted": attempted, "failed": len(failures),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
