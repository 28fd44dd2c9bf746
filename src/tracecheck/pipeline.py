"""End-to-end check pipeline: load, preprocess, translate, solve, report.

This is the engine behind the command-line interface.  Stages run in a
fixed order (load inputs, drop unused records, resample, pick the index
map, translate the negated property, call the solver) and every failure
before the solver carries a stage tag, so callers can print
"error at <stage>: ..." and exit with a code distinct from the four
verdicts.  Solver trouble is not a stage error: outcomes map onto
verdicts through solver.verdict_of.
"""

from __future__ import annotations

import csv
import io
import json
import shlex
import statistics
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, field, fields, replace
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Type, Union

from .preprocess import (
    InterpolationKind,
    PreprocessConfig,
    PreprocessError,
    apply_a1,
    apply_a2,
    filter_unused,
    parse_keyvalues,
)
from .semantics import check_direct
from .smt import DEFAULT_EXPANSION_CAP, SmtScript, TranslateError, choose_iota_mode, translate
from .solver import (
    DEFAULT_MEM_MB,
    DEFAULT_SOLVER_CMD,
    DEFAULT_TIMEOUT_S,
    Verdict,
    run_solver,
    verdict_of,
)
from .syntax import Formula, ParseError, load_property, signals_of
from .trace import Trace, TraceError, load_trace, quoted


class StageError(Exception):
    """A pipeline stage failed before any verdict could be reached."""

    def __init__(self, stage: str, message: str):
        super().__init__(message)
        self.stage = stage

    def tagged(self) -> str:
        return f"{self.stage}: {self}"


@dataclass
class CheckOptions:
    preprocess: PreprocessConfig = field(default_factory=PreprocessConfig)
    iota: str = "auto"
    solver_cmd: str = DEFAULT_SOLVER_CMD
    timeout_s: float = DEFAULT_TIMEOUT_S
    mem_mb: int = DEFAULT_MEM_MB
    oracle: bool = False
    cap: int = DEFAULT_EXPANSION_CAP


@dataclass
class TimingStats:
    runs: int
    avg_s: float
    min_s: float
    max_s: float
    sd_s: float


@dataclass
class ReportRow:
    id: str
    verdict: str
    reason: str = ""
    solver_status: str = ""
    time_s: float = 0.0
    solve_s: float = 0.0
    solver_rss_mb: float = 0.0  # peak resident set of the solver process
    records_raw: int = 0
    records_filtered: int = 0
    records_pre: int = 0
    iota: str = ""
    script: str = ""
    script_bytes: int = 0  # size of the script file as written
    oracle_verdict: str = ""
    oracle_reason: str = ""
    timing: Optional[TimingStats] = None


EXIT_BY_VERDICT = {
    "satisfied": 0,
    "violated": 1,
    "unknown": 2,
    "inconclusive": 3,
}
EXIT_STAGE_ERROR = 4


def slug(name: str) -> str:
    """A filesystem-safe rendering of an entry id or file stem."""
    return "".join(c if c.isalnum() or c in "-._" else "_" for c in name) or "entry"


# ---------------------------------------------------------------------------
# Stages
# ---------------------------------------------------------------------------

@contextmanager
def stage(tag: str, *errors: Type[Exception], path: Union[str, Path, None] = None):
    """Turn `errors` raised in the block into a StageError tagged `tag`.

    Any OSError is an io-error naming `path` (else the failing file), and so
    is text that is not UTF-8, by the offset of its first bad byte.  With a
    `path`, the other messages are prefixed by it too.
    """
    try:
        yield
    except OSError as exc:
        name = path if path is not None else exc.filename
        raise StageError("io-error", f"{name}: {exc.strerror or exc}") from exc
    except UnicodeDecodeError as exc:
        raise StageError("io-error", f"{path}: not UTF-8 (byte {exc.start})") from exc
    except errors as exc:
        raise StageError(tag, f"{path}: {exc}" if path is not None else str(exc)) from exc


def read_text(path: Union[str, Path]) -> str:
    """The whole input file at `path`, decoded strictly as UTF-8.  Every
    input file is read here."""
    with stage("io-error", path=path):
        return Path(path).read_bytes().decode("utf-8")


def write_text(path: Path, text: str) -> int:
    """Write `text` to `path`, making its directory; returns the file's size in bytes."""
    with stage("io-error", path=path):
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
        return path.stat().st_size


def read_trace(path: Union[str, Path]) -> Trace:
    text = read_text(path)
    with stage("trace-format", TraceError, path=path):
        return load_trace(text)


def parse_property(path: Union[str, Path], text: str, signals: Optional[Sequence[str]]):
    """Parse the text of the property file `path`; returns (formula, signature, declared)."""
    with stage("property-parse", ParseError, path=path):
        return load_property(text, signals)


def check_signature(formula: Formula, signals: Sequence[str]) -> None:
    missing = signals_of(formula) - set(signals)
    if missing:
        raise StageError(
            "signature",
            "property uses signals absent from the trace: " + ", ".join(sorted(missing)),
        )


def resample(trace: Trace, cfg: PreprocessConfig) -> Trace:
    """Strategy A1 or A2, as `cfg` says."""
    with stage("preprocess", PreprocessError, TraceError):
        return (apply_a1 if cfg.strategy == "A1" else apply_a2)(trace, cfg)


def load_inputs(trace_path: Union[str, Path], property_path: Union[str, Path]):
    """Read and parse both files; returns (trace, formula)."""
    trace = read_trace(trace_path)
    formula, _, _ = parse_property(property_path, read_text(property_path), trace.signals)
    check_signature(formula, trace.signals)
    return trace, formula


def preprocess_for(trace: Trace, formula: Formula, cfg: PreprocessConfig):
    """Drop records the property never reads, then resample.

    A property with no signal reads (pure time/index arithmetic) keeps the
    whole trace: its timestamps still drive i2t/t2i.
    Returns (filtered, preprocessed).
    """
    used = signals_of(formula)
    with stage("preprocess", PreprocessError, TraceError):
        filtered = filter_unused(trace, used) if used else trace
    return filtered, resample(filtered, cfg)


def build_script(pre: Trace, formula: Formula, options: CheckOptions) -> SmtScript:
    with stage("iota", TranslateError):
        mode = choose_iota_mode(pre, options.iota)
    with stage("translate", TranslateError, RecursionError):
        return translate(pre, formula, mode=mode, cap=options.cap)


def check_pair(
    trace_path: Union[str, Path],
    property_path: Union[str, Path],
    options: CheckOptions,
    script_path: Union[str, Path],
    row_id: str = "",
) -> ReportRow:
    """Run the whole pipeline for one trace/property pair."""
    started = time.perf_counter()
    trace, formula = load_inputs(trace_path, property_path)
    filtered, pre = preprocess_for(trace, formula, options.preprocess)
    script = build_script(pre, formula, options)
    script_path = Path(script_path)
    script_bytes = write_text(script_path, script.text)
    outcome = run_solver(
        str(script_path), options.solver_cmd, options.timeout_s, options.mem_mb
    )
    verdict, reason = verdict_of(outcome)
    row = ReportRow(
        id=row_id or f"{Path(property_path).stem}__{Path(trace_path).stem}",
        verdict=verdict.value,
        reason=reason,
        solver_status=outcome.status,
        solve_s=round(outcome.elapsed_s, 3),
        solver_rss_mb=round(outcome.max_rss_mb, 1),
        records_raw=len(trace),
        records_filtered=len(filtered),
        records_pre=len(pre),
        iota=script.iota,
        script=str(script_path),
        script_bytes=script_bytes,
    )
    if options.oracle:
        direct = check_direct(pre, formula)
        row.oracle_verdict = direct.verdict.value
        row.oracle_reason = direct.reason
        definitive = (Verdict.SATISFIED, Verdict.VIOLATED)
        if (
            verdict in definitive
            and direct.verdict in definitive
            and verdict != direct.verdict
        ):
            raise StageError(
                "cross-check",
                f"solver path says {verdict.value} but direct evaluation "
                f"says {direct.verdict.value} (script: {script_path})",
            )
    row.time_s = round(time.perf_counter() - started, 3)
    return row


# ---------------------------------------------------------------------------
# Configuration overlays
# ---------------------------------------------------------------------------

def _positive(key: str, value: str, kind: type, noun: str):
    """`value` as a `kind` above zero (NaN is not), else a PreprocessError."""
    try:
        number = kind(value)
    except ValueError:
        number = None
    if number is None or not number > 0:
        raise PreprocessError(f"{key} must be {noun}, got {quoted(value)}")
    return number


def apply_config_keys(options: CheckOptions, keys: Dict[str, str]) -> CheckOptions:
    """Overlay parsed key=value settings; keys left unset keep prior values."""
    pre = replace(options.preprocess, per_signal=dict(options.preprocess.per_signal))
    out = replace(options, preprocess=pre)
    for key, value in keys.items():
        if key == "strategy":
            pre.strategy = value.upper()
            if pre.strategy not in ("A1", "A2"):
                raise PreprocessError(f"strategy must be A1 or A2, got {quoted(value)}")
        elif key == "default":
            pre.default_kind = InterpolationKind.parse(value)
        elif key == "solver.cmd":
            try:
                words = shlex.split(value)
            except ValueError:  # an unbalanced quote or a trailing backslash
                words = []
            if not words:
                raise PreprocessError(f"solver.cmd must be a command line, got {quoted(value)}")
            out.solver_cmd = value
        elif key == "solver.timeout_s":
            out.timeout_s = _positive(key, value, float, "a positive number")
        elif key == "solver.mem_mb":
            out.mem_mb = _positive(key, value, int, "a positive integer")
        elif "." in key:
            raise PreprocessError(f"unknown config key {quoted(key)}")
        else:  # any other undotted key names a signal
            pre.per_signal[key] = InterpolationKind.parse(value)
    return out


def load_config_file(options: CheckOptions, path: Union[str, Path]) -> CheckOptions:
    text = read_text(path)
    with stage("config", PreprocessError, path=path):
        return apply_config_keys(options, parse_keyvalues(text))


# ---------------------------------------------------------------------------
# Batch manifests
# ---------------------------------------------------------------------------

MANIFEST_FIELDS = ("id", "trace", "property", "strategy", "config")


@dataclass(frozen=True)
class ManifestEntry:
    id: str
    trace: str
    property: str
    strategy: str = ""
    config: str = ""


def _resolve(base: Path, cell: str) -> str:
    p = Path(cell)
    return str(p if p.is_absolute() else base / p)


def load_manifest(path: Union[str, Path]) -> List[ManifestEntry]:
    """Parse a batch manifest CSV with header id,trace,property,strategy,config."""
    text = read_text(path)
    with stage("manifest", csv.Error, path=path):
        reader = csv.DictReader(io.StringIO(text))
        header = [f.strip() for f in reader.fieldnames or []]
        records = list(reader)
    if header != list(MANIFEST_FIELDS):
        raise StageError(
            "manifest",
            f"{path}: header must be {','.join(MANIFEST_FIELDS)},"
            f" got {quoted(','.join(header)) if header else '(empty file)'}",
        )
    base = Path(path).parent
    entries: List[ManifestEntry] = []
    first: Dict[str, Tuple[int, str]] = {}  # script name -> (line, id) that took it
    for num, rec in enumerate(records, start=2):
        if rec.get(None):
            raise StageError("manifest", f"{path} line {num}: too many columns")
        cells = {k: (rec.get(k) or "").strip() for k in MANIFEST_FIELDS}
        if not cells["id"]:
            raise StageError("manifest", f"{path} line {num}: empty id")
        name = slug(cells["id"])
        if name in first:
            line, other = first[name]
            raise StageError(
                "manifest",
                f"{path} lines {line} and {num}: ids {quoted(other)} and {quoted(cells['id'])}"
                f" both name the script {quoted(name + '.smt2')}",
            )
        first[name] = (num, cells["id"])
        if not cells["trace"] or not cells["property"]:
            raise StageError("manifest", f"{path} line {num}: trace and property are required")
        strategy = cells["strategy"].upper()
        if strategy not in ("", "A1", "A2"):
            raise StageError(
                "manifest", f"{path} line {num}: strategy must be A1 or A2, got {quoted(cells['strategy'])}"
            )
        entries.append(
            ManifestEntry(
                id=cells["id"],
                trace=_resolve(base, cells["trace"]),
                property=_resolve(base, cells["property"]),
                strategy=strategy,
                config=_resolve(base, cells["config"]) if cells["config"] else "",
            )
        )
    return entries


def entry_options(entry: ManifestEntry, base_options: CheckOptions) -> CheckOptions:
    """Per-entry options: the entry's config file and strategy cell win."""
    opts = load_config_file(base_options, entry.config) if entry.config else base_options
    return apply_config_keys(opts, {"strategy": entry.strategy} if entry.strategy else {})


def run_batch(
    manifest_path: Union[str, Path],
    base_options: CheckOptions,
    out_dir: Union[str, Path],
    jobs: int = 1,
    repeat: int = 1,
) -> List[ReportRow]:
    """Run every manifest entry, isolating per-entry failures.

    Rows come back sorted by entry id regardless of completion order, so
    reports are deterministic under any parallelism.
    """
    entries = load_manifest(manifest_path)
    scripts_dir = Path(out_dir) / "scripts"
    runs = max(1, repeat)

    def run_entry(entry: ManifestEntry) -> ReportRow:
        script_path = scripts_dir / f"{slug(entry.id)}.smt2"
        try:
            opts = entry_options(entry, base_options)
            rows = [
                check_pair(entry.trace, entry.property, opts, script_path, row_id=entry.id)
                for _ in range(runs)
            ]
        except StageError as exc:
            return ReportRow(id=entry.id, verdict="inconclusive", reason=exc.tagged())
        except Exception as exc:  # isolation: one broken entry must not sink the batch
            return ReportRow(id=entry.id, verdict="inconclusive", reason=f"internal: {exc!r}")
        row = rows[-1]
        verdicts = {r.verdict for r in rows}
        if len(verdicts) > 1:
            note = "verdict varied across repeats: " + ",".join(sorted(verdicts))
            row.reason = f"{row.reason}; {note}" if row.reason else note
        if runs > 1:
            times = [r.time_s for r in rows]
            row.timing = TimingStats(
                runs=runs,
                avg_s=round(statistics.fmean(times), 3),
                min_s=min(times),
                max_s=max(times),
                sd_s=round(statistics.stdev(times), 3),
            )
        return row

    with ThreadPoolExecutor(max_workers=max(1, jobs)) as pool:
        rows = list(pool.map(run_entry, entries))
    rows.sort(key=lambda r: r.id)
    return rows


def batch_exit_code(rows: Sequence[ReportRow]) -> int:
    """Worst entry wins."""
    return max((EXIT_BY_VERDICT[r.verdict] for r in rows), default=0)


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------

BASE_COLUMNS = tuple(f.name for f in fields(ReportRow) if f.name != "timing")
STAT_COLUMNS = ("time_avg_s", "time_min_s", "time_max_s", "time_sd_s")


def row_dict(row: ReportRow) -> Dict[str, object]:
    d: Dict[str, object] = {col: getattr(row, col) for col in BASE_COLUMNS}
    if row.timing is not None:
        d["time_avg_s"] = row.timing.avg_s
        d["time_min_s"] = row.timing.min_s
        d["time_max_s"] = row.timing.max_s
        d["time_sd_s"] = row.timing.sd_s
    return d


def write_report(rows: Sequence[ReportRow], fmt: str, path: Union[str, Path]) -> None:
    dicts = [row_dict(r) for r in rows]
    if fmt == "csv":
        columns = list(BASE_COLUMNS)
        if any(r.timing is not None for r in rows):
            columns += list(STAT_COLUMNS)
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=columns, restval="")
        writer.writeheader()
        writer.writerows(dicts)
        text = buf.getvalue()
    elif fmt == "jsonl":
        text = "".join(json.dumps(d) + "\n" for d in dicts)
    else:
        raise ValueError(f"unknown report format {fmt!r}")
    write_text(Path(path), text)
