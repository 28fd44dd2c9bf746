"""Measurement for the tracecheck benchmark.

End-to-end runs (--trace 0) drive tracecheck.pipeline's public entry points
with tracing off: a closed loop of `check_pair` with one client on every
workload, and on corpus also `run_batch`, as `tracecheck batch` does, taking
turns with the loop.

Per-layer runs (--trace 1) call the stages of `check_pair` one by one, in
its order, and record a span around each call, named `<module>.<stage>`.
Spans are kept in memory and summarised when the run ends.  The same pair
is also checked once through `check_pair` without spans, and both must
write the same script.

Both kinds of run compare every verdict with bench/expected.json, and both
require per-pair counts (script size and digest, record counts, solver
status) to repeat exactly whenever a pair is checked again.  The solver is
the default command, `tracecheck-solve`, which bench/run.py resolves to the
launcher in bench/bin.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import threading
import time
from collections import Counter, defaultdict
from pathlib import Path
from typing import Dict, List, Optional

import workloads
from tracecheck import shim
from tracecheck.pipeline import StageError, check_pair, run_batch
from tracecheck.preprocess import apply_a1, apply_a2, filter_unused
from tracecheck.semantics import check_direct
from tracecheck.smt import choose_iota_mode, translate
from tracecheck.solver import run_solver, verdict_of
from tracecheck.syntax import load_property, signals_of
from tracecheck.trace import load_trace_file

BENCH = Path(__file__).resolve().parent
WORK = BENCH.parent / ".bench_work"
EXPECTED = BENCH / "expected.json"

JOBS = min(2, os.cpu_count() or 1)
# Half of the set-up repeats run before the measurement and half after it,
# so that a slow spell of the host at the start of a run does not decide
# setup_s on its own.
SETUP_REPEATS = 12
# Traced corpus passes cover R1, not R1 and the lowest genrand seeds, the same
# pairs whatever the seed; a traced pass over all 202 pairs would not fit in one run.
TRACED_CORPUS_PAIRS = 24
# Seconds of single-client `check_pair` calls after each corpus `run_batch` call.
LOOP_SLICE_S = 1.5
# Empty spans timed per traced pair to price one span (tracing.overhead_s).
SPAN_PROBES = 2000
DECIDED = ("satisfied", "violated")
STATUSES = ("sat", "unsat", "unknown", "timeout", "resource", "error")
LAYERS = ("trace", "syntax", "preprocess", "smt", "pipeline", "solver", "shim", "semantics")

END_TO_END_UNITS = {
    "setup_s": "s",
    "pairs_per_s": "1/s",
    "verdict_p50_s": "s",
    "decided_ratio": "ratio",
    "script_bytes": "bytes",
    "peak_rss_mb": "MB",
}
PER_LAYER_UNITS = {
    "trace.load_s": "s",
    "trace.records": "count",
    "syntax.parse_s": "s",
    "preprocess.filter_s": "s",
    "preprocess.resample_s": "s",
    "preprocess.records_out": "count",
    "smt.translate_s": "s",
    "smt.script_bytes": "bytes",
    "smt.iota_ites": "count",
    "smt.floors": "count",
    "pipeline.write_s": "s",
    "solver.run_s": "s",
    **{f"solver.status.{s}": "count" for s in STATUSES},
    "solver.start_s": "s",
    "shim.eval_s": "s",
    "shim.parse_s": "s",
    "solver.overhead_s": "s",
    "semantics.direct_s": "s",
    "semantics.decided_ratio": "ratio",
    "pipeline.batch_parallelism": "ratio",
    "tracing.overhead_s": "s",
    **{f"{layer}.self_s": "s" for layer in LAYERS},
}


class Nondeterminism(SystemExit):
    """A count that must repeat exactly did not; the run stops without a result."""


class Checker:
    """Every verdict against the expected-verdicts file; failures are kept, not raised."""

    def __init__(self, expected: Dict[str, List[str]]):
        self.expected = expected
        self.attempted = 0
        self.decided = 0
        self.failures: List[str] = []
        self._seen: Dict[str, tuple] = {}

    def verdict(self, pid: str, verdict: str, oracle: str = "") -> None:
        """Count one attempted pair; `oracle` is the direct route's verdict, if it ran."""
        self.attempted += 1
        self.decided += verdict in DECIDED
        want = self.expected.get(pid)
        if want != [verdict, oracle]:
            self.failures.append(f"{pid}: got {[verdict, oracle]}, expected {want}")

    def raised(self, pid: str, exc: BaseException) -> None:
        self.attempted += 1
        self.failures.append(f"{pid}: raised {exc!r}")

    def repeat(self, pid: str, fingerprint: tuple) -> None:
        first = self._seen.setdefault(pid, fingerprint)
        if first != fingerprint:
            raise Nondeterminism(
                f"nondeterministic output for {pid}: {first} then {fingerprint}"
            )


def script_fingerprint(data: bytes) -> tuple:
    return len(data), hashlib.sha256(data).hexdigest()[:16]


class Tracer:
    """Spans in memory: [name, start, end, index of the enclosing span]."""

    def __init__(self):
        self.spans: List[list] = []
        self._open: List[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        record = [name, time.perf_counter(), None, self._open[-1] if self._open else None]
        self._open.append(len(self.spans))
        self.spans.append(record)
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self._open.pop()

    def durations(self) -> Dict[str, float]:
        out: Dict[str, float] = defaultdict(float)
        for name, start, end, _ in self.spans:
            out[name] += end - start
        return out

    def self_times(self) -> Dict[str, float]:
        """Per layer (the module before the dot): span time not covered by child spans."""
        own = [end - start for _, start, end, _ in self.spans]
        for _, start, end, parent in self.spans:
            if parent is not None:
                own[parent] -= end - start
        out = {layer: 0.0 for layer in LAYERS}
        for (name, *_), t in zip(self.spans, own):
            out[name.split(".")[0]] += t
        return out


def span_cost() -> float:
    """Seconds one empty span costs, from SPAN_PROBES of them in a fresh tracer."""
    tracer = Tracer()
    started = time.perf_counter()
    for _ in range(SPAN_PROBES):
        with tracer.span("probe"):
            pass
    return (time.perf_counter() - started) / SPAN_PROBES


def setup(name: str, seed: int, size: str, out: Path):
    """Generate the workload's inputs into `out` and warm the solver path once.

    The in-process imports are already done when this runs.  Returns
    (workload, the `(check-sat)` script, seconds taken).
    """
    started = time.perf_counter()
    wl = workloads.build(name, out, seed, size)
    empty = out / "check-sat.smt2"
    empty.write_text("(check-sat)\n")
    outcome = run_solver(str(empty))
    took = time.perf_counter() - started
    if outcome.status != "sat":
        raise SystemExit(f"solver warm-up failed: {outcome.status} {outcome.detail}")
    return wl, empty, took


# ---------------------------------------------------------------------------
# End-to-end runs (tracing off)
# ---------------------------------------------------------------------------

def record(check: Checker, row, sizes: Dict[str, int]) -> None:
    """Check a row's verdict and that its script and counts repeat; keep its script size."""
    check.verdict(row.id, row.verdict, row.oracle_verdict)
    data = Path(row.script).read_bytes() if row.script else b""
    sizes[row.id] = len(data)
    check.repeat(row.id, script_fingerprint(data) + (row.solver_status, row.records_pre))


def timed_check(p, wl, check: Checker, out: Path, latencies: List[float]):
    """One `check_pair` call, timed from call to return; None if a stage raised."""
    called = time.perf_counter()
    try:
        row = check_pair(p.trace, p.prop, wl.options, out / f"{p.id}.smt2", row_id=p.id)
    except StageError as exc:
        check.raised(p.id, exc)
        return None
    latencies.append(time.perf_counter() - called)
    return row


def measure_corpus(wl, check: Checker, deadline: float, out: Path, sizes: Dict[str, int]):
    """Rounds of one `run_batch` call on a slice, then LOOP_SLICE_S of single-client calls.

    The slices come in turn; each call gives one throughput sample.  The
    single-client loop goes on through `wl.pairs` where the last round left
    off.  Rounds run until the deadline, at least one.  Returns
    (throughput samples, latencies).
    """
    rates: List[float] = []
    latencies: List[float] = []
    cursor = 0
    while True:
        manifest = wl.batches[len(rates) % len(wl.batches)]
        started = time.perf_counter()
        rows = run_batch(manifest, wl.options, out, jobs=JOBS)
        rates.append(len(rows) / (time.perf_counter() - started))
        for row in rows:
            record(check, row, sizes)
        done = []
        slice_end = time.perf_counter() + LOOP_SLICE_S
        while time.perf_counter() < slice_end:
            done.append(timed_check(wl.pairs[cursor % len(wl.pairs)], wl, check, out, latencies))
            cursor += 1
        for row in filter(None, done):
            record(check, row, sizes)
        if time.perf_counter() >= deadline:
            return rates, latencies


def measure_passes(wl, check: Checker, deadline: float, out: Path, sizes: Dict[str, int]):
    """Closed loop, one client: whole passes of `check_pair` over `wl.pairs`.

    Every pair is sampled equally often.  A pass starts only if it should
    end by the deadline, and at least one runs.  Returns (latencies,
    attempts, wall).
    """
    latencies: List[float] = []
    attempts, wall = 0, 0.0
    while True:
        started = time.perf_counter()
        done = [timed_check(p, wl, check, out, latencies) for p in wl.pairs]
        took = time.perf_counter() - started
        wall += took
        attempts += len(done)
        for row in filter(None, done):
            record(check, row, sizes)
        if time.perf_counter() + took >= deadline:
            return latencies, attempts, wall


def peak_rss_mb() -> float:
    """Largest resident set of this process or any waited-for child (ru_maxrss is KiB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024


def end_to_end(wl, check: Checker, seconds: float, out: Path):
    deadline = time.perf_counter() + seconds
    sizes: Dict[str, int] = {}
    if wl.name == "corpus":
        # Batch throughput and single-client latency (timed here, because
        # batch rows carry only millisecond times) take turns over the run.
        rates, latencies = measure_corpus(wl, check, deadline, out, sizes)
        pairs_per_s = statistics.median(rates)
        print(f"samples = {len(rates)} run_batch calls")
    else:
        latencies, pairs, wall = measure_passes(wl, check, deadline, out, sizes)
        pairs_per_s = pairs / wall
        print(f"samples = {pairs} pairs in {wall} s")
    if not latencies or not sizes:
        raise SystemExit("no pair reached a verdict")
    tail = tail_percentile(latencies)
    if tail:
        print(f"verdict_p{tail[0]:g}_s = {tail[1]} s (n={len(latencies)})")
    print(f"{len(latencies)} single-client latencies, {len(sizes)} distinct scripts")
    return {
        "pairs_per_s": pairs_per_s,
        "verdict_p50_s": statistics.median(latencies),
        "decided_ratio": check.decided / check.attempted,
        # One size per pair, so how often a pair was sampled does not matter.
        "script_bytes": statistics.median(sizes.values()),
        "peak_rss_mb": peak_rss_mb(),
    }


def tail_percentile(samples: List[float]):
    """The highest of p90/p95/p99/p99.9 with at least ten samples beyond it, or None."""
    ordered = sorted(samples)
    best = None
    for p in (90, 95, 99, 99.9):
        if len(ordered) * (100 - p) / 100 >= 10:
            best = (p, ordered[min(len(ordered) - 1, int(len(ordered) * p / 100))])
    return best


# ---------------------------------------------------------------------------
# Per-layer runs (tracing on)
# ---------------------------------------------------------------------------

def staged_check(tracer: Tracer, p, opts, script_path: Path):
    """check_pair's stages in its order, one span per call into a module."""
    with tracer.span("pipeline.pair"):
        with tracer.span("trace.load"):
            trace = load_trace_file(str(p.trace))
        text = p.prop.read_text()
        with tracer.span("syntax.parse"):
            formula, _, _ = load_property(text, trace.signals)
        used = signals_of(formula)
        with tracer.span("preprocess.filter"):
            filtered = filter_unused(trace, used) if used else trace
        resample = apply_a1 if opts.preprocess.strategy == "A1" else apply_a2
        with tracer.span("preprocess.resample"):
            pre = resample(filtered, opts.preprocess)
        with tracer.span("smt.translate"):
            script = translate(pre, formula, mode=choose_iota_mode(pre, opts.iota), cap=opts.cap)
        with tracer.span("pipeline.write"):
            script_path.write_text(script.text)
        with tracer.span("solver.run"):
            outcome = run_solver(str(script_path), opts.solver_cmd, opts.timeout_s, opts.mem_mb)
        direct = None
        if opts.oracle:
            with tracer.span("semantics.direct"):
                direct = check_direct(pre, formula)
    return trace, pre, script, outcome, direct


def shim_in_process(script_path: Path) -> str:
    """shim.main on a script, stdout captured; restores the interpreter limits it raises."""
    limit = sys.getrecursionlimit()
    buf = io.StringIO()
    try:
        with contextlib.redirect_stdout(buf):
            code = shim.main([str(script_path)])
    finally:
        sys.setrecursionlimit(limit)
        threading.stack_size(0)
    if code != 0:
        raise RuntimeError(f"in-process shim exited {code}")
    return buf.getvalue().split()[0]


def direct_probe(tracer: Tracer, probe, opts, check: Checker) -> str:
    """The direct evaluator on the workload's probe pair, outside the verdict path."""
    trace = load_trace_file(str(probe.trace))
    formula, _, _ = load_property(probe.prop.read_text(), trace.signals)
    pre = apply_a2(filter_unused(trace, signals_of(formula)), opts.preprocess)
    with tracer.span("semantics.direct"):
        result = check_direct(pre, formula)
    if check.expected.get(probe.id) != ["", result.verdict.value]:
        check.failures.append(f"{probe.id}: direct evaluation says {result.verdict.value}")
    return result.verdict.value


def per_layer(wl, check: Checker, seconds: float, out: Path, empty: Path):
    deadline = time.perf_counter() + seconds
    started = time.perf_counter()
    rows = run_batch(wl.manifest, wl.options, out / "batch", jobs=JOBS)
    batch_wall = time.perf_counter() - started
    for row in rows:
        check.verdict(row.id, row.verdict, row.oracle_verdict)
    samples: Dict[str, List[float]] = defaultdict(list)
    counts: Optional[Counter] = None
    pairs = wl.pairs
    if wl.name == "corpus":
        # r1 and not_r1 sort before the genrand ids (False < True), then g0000, g0001, ...
        pairs = sorted(pairs, key=lambda p: (p.id.startswith("g"), p.id))[:TRACED_CORPUS_PAIRS]
    while True:
        pass_counts: Counter = Counter()
        for p in pairs:
            untraced_path, traced_path = out / f"{p.id}.smt2", out / f"{p.id}.traced.smt2"
            try:
                row = check_pair(p.trace, p.prop, wl.options, untraced_path, row_id=p.id)
            except StageError as exc:
                check.raised(p.id, exc)
                continue
            check.verdict(row.id, row.verdict, row.oracle_verdict)

            tracer = Tracer()
            try:
                trace, pre, script, outcome, direct = staged_check(
                    tracer, p, wl.options, traced_path
                )
                with tracer.span("solver.start"):
                    run_solver(str(empty))
                with tracer.span("shim.parse"):
                    shim.parse_script(script.text)
                with tracer.span("shim.eval"):
                    in_process = shim_in_process(traced_path)
                if direct is not None:
                    direct_verdict = direct.verdict.value
                else:
                    direct_verdict = direct_probe(tracer, wl.direct_probe, wl.options, check)
            except Exception as exc:  # a stage raised: the pair failed
                check.raised(p.id, exc)
                continue
            verdict = verdict_of(outcome)[0].value
            check.verdict(p.id, verdict, direct.verdict.value if direct else "")
            if in_process != outcome.status:
                check.failures.append(f"{p.id}: in-process shim says {in_process}")
            data = script.text.encode()
            if untraced_path.read_bytes() != data:
                raise Nondeterminism(f"{p.id}: check_pair and the staged calls wrote different scripts")
            check.repeat(
                p.id, script_fingerprint(data) + (outcome.status, len(trace), len(pre))
            )
            pass_counts[outcome.status] += 1

            d = tracer.durations()
            values = {
                "trace.load_s": d["trace.load"],
                "trace.records": len(trace),
                "syntax.parse_s": d["syntax.parse"],
                "preprocess.filter_s": d["preprocess.filter"],
                "preprocess.resample_s": d["preprocess.resample"],
                "preprocess.records_out": len(pre),
                "smt.translate_s": d["smt.translate"],
                "smt.script_bytes": len(data),
                "smt.iota_ites": script.iota_ite_count,
                "smt.floors": script.floor_count,
                "pipeline.write_s": d["pipeline.write"],
                "solver.run_s": d["solver.run"],
                "solver.start_s": d["solver.start"],
                "shim.eval_s": d["shim.eval"],
                "shim.parse_s": d["shim.parse"],
                "solver.overhead_s": d["solver.run"] - d["shim.eval"],
                "semantics.direct_s": d["semantics.direct"],
                "semantics.decided_ratio": float(direct_verdict in DECIDED),
                "tracing.overhead_s": len(tracer.spans) * span_cost(),
                **{f"{layer}.self_s": t for layer, t in tracer.self_times().items()},
            }
            for name, value in values.items():
                samples[name].append(value)
        if counts is None:
            counts = pass_counts
        elif counts != pass_counts:
            raise Nondeterminism(f"solver status counts changed: {counts} then {pass_counts}")
        if time.perf_counter() >= deadline:
            break

    if not samples:
        raise SystemExit("no traced pair got through its stages")
    print(f"traced pairs = {len(samples['trace.load_s'])}")
    metrics = {name: statistics.median(values) for name, values in samples.items()}
    metrics["semantics.decided_ratio"] = statistics.fmean(samples["semantics.decided_ratio"])
    metrics.update({f"solver.status.{s}": counts[s] for s in STATUSES})
    metrics["pipeline.batch_parallelism"] = sum(r.time_s for r in rows) / batch_wall
    return metrics


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="bench/run.py", description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=sorted(workloads.SIZES), default="full")
    args = parser.parse_args(argv)

    expected = json.loads(EXPECTED.read_text())[args.workload]
    WORK.mkdir(exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=WORK))
    try:
        setup_times = []
        for k in range(SETUP_REPEATS // 2):
            wl, empty, took = setup(args.workload, args.seed, args.size, run_dir / f"setup{k}")
            setup_times.append(took)
        check = Checker(expected)
        out = run_dir / "out"
        out.mkdir()
        if args.trace:
            values, units = per_layer(wl, check, args.seconds, out, empty), PER_LAYER_UNITS
        else:
            values = end_to_end(wl, check, args.seconds, out)
            for k in range(SETUP_REPEATS // 2, SETUP_REPEATS):
                _, _, took = setup(args.workload, args.seed, args.size, run_dir / f"setup{k}")
                setup_times.append(took)
            values = {"setup_s": statistics.median(setup_times), **values}
            units = END_TO_END_UNITS
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    for failure in check.failures:
        print(f"FAILED {failure}", file=sys.stderr)
    failed = min(len(check.failures), check.attempted)
    print(f"failed_ratio = {failed / check.attempted} ratio")
    for name, value in values.items():
        print(f"{name} = {value} {units[name]}")
    print(json.dumps({
        "correct": not check.failures,
        "attempted": check.attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }))
    return 0
