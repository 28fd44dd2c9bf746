"""Seeded inputs for the benchmark's three workloads.

Each build function writes trace CSVs, property files and a batch manifest
into a directory and returns a Workload: the pairs to check, in a fixed order, and
the options every pair is checked with.  The same seed writes the same
bytes.  Expected verdicts live in bench/expected.json; `build_irregular`
also checks each trace it draws against its designed verdict, so a
generator bug cannot pass for a pipeline bug.

Needs this checkout's src/ and tests/ on sys.path (bench/run.py does that).
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from random import Random
from typing import List, Optional, Tuple

from conftest import FIG_CSV, R1_TEXT
from genrand import pair as genrand_pair
from tracecheck.pipeline import CheckOptions
from tracecheck.preprocess import PreprocessConfig
from tracecheck.trace import format_rational, serialize_trace

WORKLOADS = ("corpus", "settle", "irregular")

# Two input sizes: "full" is what the benchmark measures; "small" keeps the
# shape of each workload at a size the benchmark's self-test can afford.
SIZES = {
    "full": {"corpus_pairs": 200, "settle_records": 10_000, "irregular_records": 600},
    "small": {"corpus_pairs": 20, "settle_records": 1_000, "irregular_records": 60},
}

# The direct evaluator needs minutes on the full settle trace, so `settle`
# times it on this many leading records instead (it is not on the verdict path).
SETTLE_PROBE_RECORDS = 200

# `corpus` times `run_batch` on this many interleaved slices of its pairs in
# turn, so that throughput is sampled many times across a run.
CORPUS_BATCHES = 8

IRREGULAR_GAPS = (Fraction(1, 10), Fraction(2, 10), Fraction(3, 10), Fraction(5, 10))
IRREGULAR_HOLE_P = 0.13  # about 10% of value cells end up empty after the adjacency rule
IRREGULAR_VIOLATED = "irr3"


@dataclass(frozen=True)
class Pair:
    id: str
    trace: Path
    prop: Path


@dataclass(frozen=True)
class Workload:
    name: str
    pairs: List[Pair]
    options: CheckOptions
    manifest: Path
    # A pair that only the direct-evaluation probe uses (see SETTLE_PROBE_RECORDS).
    direct_probe: Optional[Pair] = None
    # Manifests that split `pairs` into slices (see CORPUS_BATCHES).
    batches: Tuple[Path, ...] = ()


def settle_property(last_index: int) -> str:
    """The two-quantifier settle property of acceptance criterion 9."""
    return (
        f"forall sigma0 in [0, {last_index - 1}] such that ((mode @i sigma0) = 1) implies "
        "(exists tau0 in [0.0, 1.0] such that ((spd @t (tau0 + i2t(sigma0))) < 0.5))\n"
    )


def _write_pair(out: Path, pid: str, trace_csv: str, prop_text: str) -> Pair:
    trace, prop = out / f"{pid}.csv", out / f"{pid}.prop"
    trace.write_text(trace_csv)
    prop.write_text(prop_text)
    return Pair(pid, trace, prop)


def _write_manifest(
    out: Path, pairs: List[Pair], strategy: str = "", name: str = "manifest.csv"
) -> Path:
    path = out / name
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["id", "trace", "property", "strategy", "config"])
        for p in pairs:
            writer.writerow([p.id, p.trace.name, p.prop.name, strategy, ""])
    return path


def build_corpus(out: Path, genrand_seeds: List[int]) -> Workload:
    """R1 and not R1 on the running example, then the given genrand pairs in order.

    The benchmark checks genrand seeds 0..N-1, the start of the acceptance
    suite's differential corpus, so every seed measures the same pairs and
    script sizes stay comparable; the seed only shuffles the order in which
    they are submitted.
    """
    pairs = [
        _write_pair(out, "r1", FIG_CSV, R1_TEXT + "\n"),
        _write_pair(out, "not_r1", FIG_CSV, f"not ({R1_TEXT})\n"),
    ]
    for gseed in genrand_seeds:
        trace, _, text = genrand_pair(gseed)
        pairs.append(_write_pair(out, f"g{gseed:04d}", serialize_trace(trace), text + "\n"))
    batches = tuple(
        _write_manifest(out, pairs[k::CORPUS_BATCHES], name=f"batch{k}.csv")
        for k in range(CORPUS_BATCHES)
    )
    return Workload(
        "corpus", pairs, CheckOptions(oracle=True), _write_manifest(out, pairs), batches=batches
    )


def _settle_csv(n: int) -> str:
    """Acceptance criterion 9's trace: a mode=1 record every 5 s, spd=0.4 0.5 s later."""
    lines = ["timestamp,mode,spd"]
    for j in range(n):
        mode = 1 if (j % 500 == 0 and j <= n - 1000) else 0
        spd = Fraction(4, 10) if (j % 500 == 50 and j <= n - 950) else Fraction(1)
        lines.append(f"{format_rational(Fraction(j, 100))},{mode},{format_rational(spd)}")
    return "\n".join(lines) + "\n"


def build_settle(out: Path, size: str) -> Workload:
    """The criterion-9 input; it has no random part, so it takes no seed."""
    n = SIZES[size]["settle_records"]
    trace_csv = _settle_csv(n)
    pair = _write_pair(out, "settle", trace_csv, settle_property(n - 1))
    probe_csv = "".join(trace_csv.splitlines(keepends=True)[: SETTLE_PROBE_RECORDS + 1])
    probe = _write_pair(
        out, "settle_probe", probe_csv, settle_property(SETTLE_PROBE_RECORDS - 1)
    )
    return Workload("settle", [pair], CheckOptions(), _write_manifest(out, [pair]), probe)


def _settle_holds(times, mode, spd) -> bool:
    """Reference verdict of settle_property on a hole-free variable-rate trace.

    On a variable-rate trace `spd @t x` reads the last record at or before
    x, so the reads for tau0 in [0, 1] are the records stamped within one
    second of sigma0 (sigma0 itself included).
    """
    for s in range(len(times) - 1):
        if mode[s] == 1 and not any(
            spd[k] < Fraction(1, 2)
            for k in range(s, len(times))
            if times[k] <= times[s] + 1
        ):
            return False
    return True


def _irregular_csv(rng: Random, n: int, violated: bool) -> str:
    times, t = [], Fraction(0)
    for _ in range(n):
        times.append(t)
        t += rng.choice(IRREGULAR_GAPS)
    mode = [0] * n
    spd = [Fraction(1)] * n
    events = []
    j = rng.randint(5, 15)
    while j < n - 20:
        events.append(j)
        j += rng.randint(20, 40)
    for j in events:
        mode[j] = 1
        spd[j + 1] = Fraction(4, 10)
    if violated:
        spd[events[len(events) // 2] + 1] = Fraction(1)
    if _settle_holds(times, mode, spd) == violated:
        raise AssertionError("irregular trace does not have its designed verdict")

    # Holes only where both column neighbours are assigned background values,
    # so every interpolation kind fills them with that background value and
    # the designed verdict survives strategy A1.
    columns = {"mode": mode, "spd": spd}
    background = {"mode": 0, "spd": Fraction(1)}
    holes = {name: [False] * n for name in columns}
    for j in range(1, n - 1):
        for name in ("mode", "spd"):
            col, bg = columns[name], background[name]
            other = holes["spd" if name == "mode" else "mode"]
            if (
                rng.random() < IRREGULAR_HOLE_P
                and col[j - 1] == col[j] == col[j + 1] == bg
                and not holes[name][j - 1]
                and not other[j]
            ):
                holes[name][j] = True
    lines = ["timestamp,mode,spd"]
    for j in range(n):
        cells = [format_rational(times[j])]
        for name in ("mode", "spd"):
            cells.append("" if holes[name][j] else format_rational(Fraction(columns[name][j])))
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def build_irregular(out: Path, seed: int, size: str) -> Workload:
    """Variable-rate traces with holes, checked with strategy A1 and the oracle."""
    n = SIZES[size]["irregular_records"]
    rng = Random(seed)
    pairs = [
        _write_pair(
            out, pid, _irregular_csv(rng, n, pid == IRREGULAR_VIOLATED), settle_property(n - 1)
        )
        for pid in ("irr0", "irr1", "irr2", "irr3")
    ]
    options = CheckOptions(preprocess=PreprocessConfig(strategy="A1"), oracle=True)
    return Workload("irregular", pairs, options, _write_manifest(out, pairs, "A1"))


def build(name: str, out: Path, seed: int, size: str) -> Workload:
    """Write workload `name`'s inputs into `out`."""
    out.mkdir(parents=True, exist_ok=True)
    if name == "corpus":
        genrand_seeds = list(range(SIZES[size]["corpus_pairs"]))
        Random(seed).shuffle(genrand_seeds)
        return build_corpus(out, genrand_seeds)
    if name == "settle":
        return build_settle(out, size)
    return build_irregular(out, seed, size)
