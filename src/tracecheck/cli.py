"""Command-line interface: validate, preprocess, translate, check, batch.

Exit codes: 0 satisfied, 1 violated, 2 unknown, 3 inconclusive, 4 any
stage error (bad input, signature mismatch, refused translation, broken
manifest) or internal error.  Commands that reach no verdict (validate, preprocess,
translate) use 0 for success and 4 for failure.
"""

from __future__ import annotations

import argparse
import sys
import tempfile
from dataclasses import replace
from pathlib import Path
from typing import Optional, Sequence

from .pipeline import (
    EXIT_BY_VERDICT,
    EXIT_STAGE_ERROR,
    CheckOptions,
    ReportRow,
    StageError,
    apply_config_keys,
    batch_exit_code,
    build_script,
    check_pair,
    check_signature,
    load_config_file,
    load_inputs,
    parse_property,
    preprocess_for,
    read_text,
    read_trace,
    resample,
    run_batch,
    slug,
    stage,
    write_report,
    write_text,
)
from .preprocess import PreprocessError
from .solver import DEFAULT_MEM_MB, DEFAULT_SOLVER_CMD, DEFAULT_TIMEOUT_S
from .syntax import format_formula
from .trace import Fixed, format_rational, serialize_trace


def _add_pipeline_flags(p: argparse.ArgumentParser, solver: bool = True) -> None:
    p.add_argument(
        "--strategy",
        choices=("A1", "A2"),
        default=None,
        help="preprocessing strategy (default A2: resample on a fixed grid)",
    )
    p.add_argument(
        "--iota",
        choices=("auto", "variable", "fixed"),
        default=None,
        help="index-map encoding (default auto)",
    )
    p.add_argument("--config", metavar="FILE", default=None, help="key=value settings file")
    if solver:
        p.add_argument(
            "--solver",
            metavar="CMD",
            default=None,
            help=(
                f"solver command line (default: {DEFAULT_SOLVER_CMD}, the bundled "
                "evaluator, served under this interpreter)"
            ),
        )
        p.add_argument(
            "--timeout",
            type=float,
            metavar="S",
            default=None,
            help=f"solver wall-clock limit in seconds (default {DEFAULT_TIMEOUT_S:g})",
        )
        p.add_argument(
            "--mem",
            type=int,
            metavar="MB",
            default=None,
            help=f"solver address-space limit in MB (default {DEFAULT_MEM_MB})",
        )
        p.add_argument(
            "--oracle",
            action="store_true",
            help="also run the direct evaluator and cross-check the verdict",
        )


def _options_from(args: argparse.Namespace) -> CheckOptions:
    options = CheckOptions()
    if getattr(args, "config", None):
        options = load_config_file(options, args.config)
    if getattr(args, "strategy", None):
        options = apply_config_keys(options, {"strategy": args.strategy})
    if getattr(args, "iota", None):
        options = replace(options, iota=args.iota)
    for flag, key in (
        ("solver", "solver.cmd"), ("timeout", "solver.timeout_s"), ("mem", "solver.mem_mb")
    ):
        value = getattr(args, flag, None)
        if value is not None:
            with stage("config", PreprocessError, path=f"--{flag}"):
                options = apply_config_keys(options, {key: str(value)})
    if getattr(args, "oracle", False):
        options = replace(options, oracle=True)
    return options


def _out_dir(args: argparse.Namespace) -> Path:
    if not getattr(args, "out", None):
        return Path(tempfile.mkdtemp(prefix="tracecheck-"))
    with stage("io-error", path=args.out):
        Path(args.out).mkdir(parents=True, exist_ok=True)
    return Path(args.out)


def _pair_name(trace: str, prop: str) -> str:
    return f"{slug(Path(prop).stem)}__{slug(Path(trace).stem)}"


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def cmd_validate(args: argparse.Namespace) -> int:
    text = read_text(args.property)
    trace_signals = read_trace(args.trace).signals if args.trace else None
    formula, signature, declared = parse_property(args.property, text, trace_signals)
    if trace_signals is not None:
        check_signature(formula, trace_signals)
    print("ok")
    source = "declared" if declared else ("trace header" if args.trace else "none")
    print(f"signature ({source}): " + (", ".join(sorted(signature)) or "(empty)"))
    print(format_formula(formula))
    return 0


def cmd_preprocess(args: argparse.Namespace) -> int:
    cfg = _options_from(args).preprocess
    trace = read_trace(args.trace)
    pre = resample(trace, cfg)
    out_path = _out_dir(args) / f"{slug(Path(args.trace).stem)}.pre.csv"
    write_text(out_path, serialize_trace(pre))
    rate = (
        f"fixed sr={format_rational(pre.rate.sr)}"
        if isinstance(pre.rate, Fixed)
        else "variable"
    )
    print(f"strategy {cfg.strategy}: {len(trace)} records in, {len(pre)} out, rate {rate}")
    print(out_path)
    return 0


def cmd_translate(args: argparse.Namespace) -> int:
    options = _options_from(args)
    trace, formula = load_inputs(args.trace, args.property)
    _, pre = preprocess_for(trace, formula, options.preprocess)
    script = build_script(pre, formula, options)
    out_path = _out_dir(args) / f"{_pair_name(args.trace, args.property)}.smt2"
    write_text(out_path, script.text)
    print(
        f"iota {script.iota}, {script.quantifier_count} quantifiers, "
        f"{script.floor_count} floor terms, {script.iota_ite_count} index-map selectors"
    )
    print(out_path)
    return 0


def cmd_check(args: argparse.Namespace) -> int:
    options = _options_from(args)
    script_path = _out_dir(args) / f"{_pair_name(args.trace, args.property)}.smt2"
    row = check_pair(args.trace, args.property, options, script_path)
    print(f"verdict: {row.verdict}")
    if row.reason:
        print(f"reason: {row.reason}")
    print(f"solver: {row.solver_status} in {row.solve_s:.3f}s")
    print(f"iota: {row.iota}")
    print(
        f"records: raw={row.records_raw} filtered={row.records_filtered} "
        f"preprocessed={row.records_pre}"
    )
    if row.oracle_verdict:
        line = f"oracle: {row.oracle_verdict}"
        if row.oracle_reason:
            line += f" ({row.oracle_reason})"
        print(line)
    print(f"script: {row.script}")
    return EXIT_BY_VERDICT[row.verdict]


def _print_row(row: ReportRow) -> None:
    line = f"{row.id}: {row.verdict} [{row.time_s:.3f}s]"
    if row.reason:
        line += f" ({row.reason})"
    print(line)


def cmd_batch(args: argparse.Namespace) -> int:
    options = _options_from(args)
    out_dir = _out_dir(args)
    rows = run_batch(
        args.manifest, options, out_dir, jobs=args.jobs, repeat=args.repeat
    )
    for row in rows:
        _print_row(row)
    report_path = out_dir / ("report.csv" if args.report == "csv" else "report.jsonl")
    write_report(rows, args.report, report_path)
    print(f"report: {report_path}")
    return batch_exit_code(rows)


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tracecheck",
        description="check recorded CPS traces against hybrid-logic properties",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    p = sub.add_parser("validate", help="parse a property file and echo its shape")
    p.add_argument("property", help="property file")
    p.add_argument("--trace", default=None, help="trace CSV supplying the signature")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("preprocess", help="resample a trace and write the result")
    p.add_argument("trace", help="trace CSV")
    _add_pipeline_flags(p, solver=False)
    p.add_argument("--out", metavar="DIR", default=None, help="output directory")
    p.set_defaults(func=cmd_preprocess)

    p = sub.add_parser("translate", help="emit the SMT-LIB script without solving")
    p.add_argument("trace", help="trace CSV")
    p.add_argument("property", help="property file")
    _add_pipeline_flags(p, solver=False)
    p.add_argument("--out", metavar="DIR", default=None, help="output directory")
    p.set_defaults(func=cmd_translate)

    p = sub.add_parser("check", help="decide one trace/property pair")
    p.add_argument("trace", help="trace CSV")
    p.add_argument("property", help="property file")
    _add_pipeline_flags(p)
    p.add_argument("--out", metavar="DIR", default=None, help="artifact directory")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("batch", help="run every entry of a manifest CSV")
    p.add_argument("manifest", help="CSV with header id,trace,property,strategy,config")
    _add_pipeline_flags(p)
    p.add_argument("--jobs", type=int, default=1, metavar="N", help="worker threads")
    p.add_argument(
        "--repeat",
        type=int,
        default=1,
        metavar="N",
        help="run each entry N times and report avg/min/max/sd wall time",
    )
    p.add_argument(
        "--report", choices=("csv", "jsonl"), default="csv", help="report format"
    )
    p.add_argument("--out", metavar="DIR", default=None, help="artifact directory")
    p.set_defaults(func=cmd_batch)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except StageError as exc:
        print(f"error at {exc.tagged()}", file=sys.stderr)
        return EXIT_STAGE_ERROR
    except Exception as exc:  # a bug must not exit with a verdict's code
        print(f"error at internal: {exc!r}", file=sys.stderr)
        return EXIT_STAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
