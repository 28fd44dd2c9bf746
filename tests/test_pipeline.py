"""Pipeline stages, manifest handling, batch isolation, report writers."""

import csv
import json
import sys
import traceback

import pytest

from tracecheck.pipeline import (
    EXIT_BY_VERDICT,
    CheckOptions,
    ManifestEntry,
    ReportRow,
    StageError,
    TimingStats,
    apply_config_keys,
    batch_exit_code,
    build_script,
    check_pair,
    entry_options,
    load_inputs,
    load_manifest,
    preprocess_for,
    run_batch,
    slug,
    write_report,
)
from tracecheck.preprocess import InterpolationKind, PreprocessConfig, PreprocessError
from tracecheck.semantics import DirectResult
from tracecheck.solver import Verdict
from tracecheck.syntax import parse

from conftest import FIG_CSV, R1_TEXT, SIGMA_EXAMPLE_TEXT


@pytest.fixture
def workdir(tmp_path):
    (tmp_path / "fig1.csv").write_text(FIG_CSV)
    (tmp_path / "r1.prop").write_text(R1_TEXT + "\n")
    (tmp_path / "sigma.prop").write_text(SIGMA_EXAMPLE_TEXT + "\n")
    return tmp_path


def stage_of(excinfo):
    return excinfo.value.stage


class TestLoadInputs:
    def test_trace_header_supplies_signature(self, workdir):
        trace, formula = load_inputs(workdir / "fig1.csv", workdir / "r1.prop")
        assert len(trace) == 7
        assert formula is not None

    def test_declared_signature_accepted(self, workdir):
        p = workdir / "decl.prop"
        p.write_text("signal ang-rate : real\n" + SIGMA_EXAMPLE_TEXT + "\n")
        trace, formula = load_inputs(workdir / "fig1.csv", p)
        assert trace.signals == ("ang-rate", "mode")

    def test_missing_trace_is_io_error(self, workdir):
        with pytest.raises(StageError) as e:
            load_inputs(workdir / "nope.csv", workdir / "r1.prop")
        assert stage_of(e) == "io-error"

    def test_missing_property_is_io_error(self, workdir):
        with pytest.raises(StageError) as e:
            load_inputs(workdir / "fig1.csv", workdir / "nope.prop")
        assert stage_of(e) == "io-error"

    def test_bad_csv_is_trace_format(self, workdir):
        p = workdir / "bad.csv"
        p.write_text("timestamp,x\n3,1\n1,2\n")
        with pytest.raises(StageError) as e:
            load_inputs(p, workdir / "r1.prop")
        assert stage_of(e) == "trace-format"

    def test_bad_formula_is_property_parse(self, workdir):
        p = workdir / "broken.prop"
        p.write_text("exists tau0 in [0,1] such\n")
        with pytest.raises(StageError) as e:
            load_inputs(workdir / "fig1.csv", p)
        assert stage_of(e) == "property-parse"

    def test_ghost_signal_is_signature_mismatch(self, workdir):
        p = workdir / "ghost.prop"
        p.write_text("signal spd : real\nexists sigma0 in [0,3] such that (spd @i sigma0) < 1\n")
        with pytest.raises(StageError) as e:
            load_inputs(workdir / "fig1.csv", p)
        assert stage_of(e) == "signature"
        assert "spd" in str(e.value)


class TestPreprocessFor:
    def test_a2_resamples_onto_min_gap_grid(self, fig_trace):
        f = parse(R1_TEXT, ("ang-rate", "mode"))
        filtered, pre = preprocess_for(fig_trace, f, CheckOptions().preprocess)
        assert len(filtered) == 7
        assert len(pre) == 29

    def test_a1_keeps_record_count(self, fig_trace):
        f = parse(R1_TEXT, ("ang-rate", "mode"))
        opts = apply_config_keys(CheckOptions(), {"strategy": "A1"})
        _, pre = preprocess_for(fig_trace, f, opts.preprocess)
        assert len(pre) == 7

    def test_signal_free_formula_keeps_whole_trace(self, fig_trace):
        f = parse("exists tau0 in [0,1] such that tau0 < 2.0", ())
        filtered, pre = preprocess_for(fig_trace, f, CheckOptions().preprocess)
        assert len(filtered) == len(fig_trace)

    def test_filter_drops_records_without_used_signals(self):
        from tracecheck.trace import load_trace

        trace = load_trace("timestamp,a,b\n0,1,\n1,,2\n2,3,\n")
        f = parse("exists sigma0 in [0,1] such that (a @i sigma0) < 1", ("a", "b"))
        filtered, _ = preprocess_for(trace, f, CheckOptions().preprocess)
        assert len(filtered) == 2  # the b-only record is gone
        assert filtered.signals == ("a",)


class TestBuildScript:
    def test_auto_uses_fixed_rate_after_a2(self, fig_trace):
        f = parse(SIGMA_EXAMPLE_TEXT, ("ang-rate", "mode"))
        _, pre = preprocess_for(fig_trace, f, CheckOptions().preprocess)
        script = build_script(pre, f, CheckOptions())
        assert script.iota == "fixed-rate sr=0.2"

    def test_explicit_fixed_on_variable_trace_fails(self, fig_trace):
        f = parse(SIGMA_EXAMPLE_TEXT, ("ang-rate", "mode"))
        opts = CheckOptions(iota="fixed")
        with pytest.raises(StageError) as e:
            build_script(fig_trace, f, opts)
        assert stage_of(e) == "iota"

    def test_cap_refusal_is_translate_stage(self, fig_trace):
        f = parse(
            "exists tau0 in [0,5] such that (ang-rate @t tau0) < 99", ("ang-rate", "mode")
        )
        opts = CheckOptions(iota="variable", cap=3)
        with pytest.raises(StageError) as e:
            build_script(fig_trace, f, opts)
        assert stage_of(e) == "translate"
        assert "cap" in str(e.value)

    def test_running_out_of_stack_is_translate_stage(self, fig_trace):
        f = parse(" and ".join(["(mode @i 0) >= 0"] * 200), ("ang-rate", "mode"))
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(len(traceback.extract_stack()) + 100)
        try:
            with pytest.raises(StageError) as e:
                build_script(fig_trace, f, CheckOptions())
        finally:
            sys.setrecursionlimit(limit)
        assert stage_of(e) == "translate"
        assert "recursion" in str(e.value)

    def test_explicit_variable_mode_honored(self, fig_trace):
        f = parse(SIGMA_EXAMPLE_TEXT, ("ang-rate", "mode"))
        script = build_script(fig_trace, f, CheckOptions(iota="variable"))
        assert script.iota == "variable-rate"


class TestCheckPair:
    def test_satisfied_row(self, workdir):
        row = check_pair(
            workdir / "fig1.csv", workdir / "r1.prop", CheckOptions(), workdir / "a.smt2"
        )
        assert row.verdict == "satisfied"
        assert row.solver_status == "unsat"
        assert (row.records_raw, row.records_filtered, row.records_pre) == (7, 7, 29)
        assert row.iota.startswith("fixed-rate")
        assert row.time_s > 0

    def test_script_size_and_solver_memory_reach_both_reports(self, workdir):
        row = check_pair(
            workdir / "fig1.csv", workdir / "r1.prop", CheckOptions(), workdir / "d.smt2"
        )
        assert row.script_bytes == len((workdir / "d.smt2").read_bytes()) > 0
        assert row.solver_rss_mb > 0  # the peak of the process that ran the script
        write_report([row], "csv", workdir / "r.csv")
        with open(workdir / "r.csv", newline="") as fh:
            [cells] = list(csv.DictReader(fh))
        assert (int(cells["script_bytes"]), float(cells["solver_rss_mb"])) == (
            row.script_bytes, row.solver_rss_mb,
        )
        write_report([row], "jsonl", workdir / "r.jsonl")
        obj = json.loads((workdir / "r.jsonl").read_text())
        assert (obj["script_bytes"], obj["solver_rss_mb"]) == (row.script_bytes, row.solver_rss_mb)

    def test_violated_row(self, workdir):
        row = check_pair(
            workdir / "fig1.csv", workdir / "sigma.prop", CheckOptions(), workdir / "b.smt2"
        )
        assert row.verdict == "violated"
        assert row.solver_status == "sat"

    def test_script_artifact_reproduces_outcome(self, workdir):
        from tracecheck.solver import run_solver

        row = check_pair(
            workdir / "fig1.csv", workdir / "r1.prop", CheckOptions(), workdir / "c.smt2"
        )
        again = run_solver(row.script)
        assert again.status == row.solver_status

    def test_oracle_fields_filled_on_agreement(self, workdir):
        row = check_pair(
            workdir / "fig1.csv",
            workdir / "r1.prop",
            CheckOptions(oracle=True),
            workdir / "d.smt2",
        )
        assert row.oracle_verdict == "satisfied"
        assert row.oracle_reason == ""

    def test_near_fixed_trace_gets_the_variable_map(self, tmp_path):
        # the last gap is 10^-10 short of the first: floor(t / 0.1) would
        # read record 1 at t = 0.1999999999, where record 2 starts
        (tmp_path / "near.csv").write_text("timestamp,x\n0,0\n0.1,1\n0.1999999999,2\n")
        (tmp_path / "p.prop").write_text("(x @t 0.1999999999) = 2\n")
        options = CheckOptions(preprocess=PreprocessConfig(strategy="A1"), oracle=True)
        row = check_pair(tmp_path / "near.csv", tmp_path / "p.prop", options, tmp_path / "n.smt2")
        assert row.iota == "variable-rate"
        assert (row.verdict, row.oracle_verdict) == ("satisfied", "satisfied")

    @pytest.mark.parametrize(
        "text, verdict",
        [
            ("forall τ0 in [5.0, 6.0] such that (x @t τ0) >= 0", "satisfied"),
            ("exists τ0 in [5.0, 6.0] such that ((x @t τ0) > 1 and t2i(τ0) = 2)", "satisfied"),
            ("forall τ0 in [5.0, 6.0] such that t2i(τ0) <= 4", "violated"),
            ("exists τ0 in [5.0, 5.3] such that (x @t τ0) > 2", "violated"),
        ],
    )
    def test_a2_trace_starting_at_5_gets_the_fixed_map(self, tmp_path, text, verdict):
        # A2 resamples onto 5.0, 5.2, ..., 6.0, read through floor((t - 5) / 0.2)
        (tmp_path / "late.csv").write_text("timestamp,x\n5,0\n5.3,1\n5.5,3\n6.1,2\n")
        (tmp_path / "p.prop").write_text(text + "\n")
        options = CheckOptions(oracle=True)
        row = check_pair(tmp_path / "late.csv", tmp_path / "p.prop", options, tmp_path / "l.smt2")
        assert row.iota == "fixed-rate sr=0.2"
        assert (row.verdict, row.oracle_verdict) == (verdict, verdict)

    @pytest.mark.parametrize(
        "bound, options",
        [
            ("0.95", CheckOptions(preprocess=PreprocessConfig(strategy="A1"), oracle=True)),
            ("1.1", CheckOptions(iota="variable")),
            ("1.1", CheckOptions(iota="fixed")),
        ],
        ids=["A1", "A2-variable", "A2-fixed"],
    )
    def test_a_time_term_of_slope_zero_is_one_time(self, workdir, bound, options):
        # τ0 - τ0 + 1 is 1 wherever τ0 is, so the left side is the time of
        # the record at or before 1 (0.9 on the raw trace, 1.0 on A2's grid)
        # and τ0 just above it is a witness; the direct route refuses stacked
        # conversions, so the oracle has no verdict to check against
        (workdir / "p.prop").write_text(
            f"exists τ0 in [0, 5] such that i2t(t2i(τ0 - τ0 + 1)) < τ0 and τ0 < {bound}\n"
        )
        row = check_pair(workdir / "fig1.csv", workdir / "p.prop", options, workdir / "p.smt2")
        assert row.verdict == "satisfied"

    @pytest.mark.parametrize(
        "text, verdict",
        [
            ("exists σ0 in [1, 6] such that (mode @i (σ0 + -1)) = 0", "satisfied"),
            ("exists σ0 in [0, 6] such that σ0 = -1", "violated"),
            ("exists σ0 in [0, 1] such that (mode @i (-1 * σ0 + 5)) = 3", "satisfied"),
        ],
    )
    def test_negative_integer_literals_in_index_terms(self, workdir, text, verdict):
        # -1 is an integer, so an index term may hold it as it holds σ0 - 1
        (workdir / "p.prop").write_text(text + "\n")
        options = CheckOptions(preprocess=PreprocessConfig(strategy="A1"), oracle=True)
        row = check_pair(workdir / "fig1.csv", workdir / "p.prop", options, workdir / "p.smt2")
        assert (row.verdict, row.oracle_verdict) == (verdict, verdict)
        assert "(- 1)" in (workdir / "p.smt2").read_text()  # an Int, as smt_int writes it

    def test_disagreement_is_cross_check_error(self, workdir, monkeypatch):
        import tracecheck.pipeline as pl

        monkeypatch.setattr(
            pl, "check_direct", lambda trace, f: DirectResult(Verdict.VIOLATED)
        )
        with pytest.raises(StageError) as e:
            check_pair(
                workdir / "fig1.csv",
                workdir / "r1.prop",
                CheckOptions(oracle=True),
                workdir / "e.smt2",
            )
        assert stage_of(e) == "cross-check"

    def test_default_row_id_names_both_files(self, workdir):
        row = check_pair(
            workdir / "fig1.csv", workdir / "r1.prop", CheckOptions(), workdir / "f.smt2"
        )
        assert row.id == "r1__fig1"


class TestConfigKeys:
    def test_overlay_keeps_unset_fields(self):
        opts = apply_config_keys(CheckOptions(), {"default": "cubic"})
        assert opts.preprocess.default_kind is InterpolationKind.CUBIC
        assert opts.preprocess.strategy == "A2"
        assert opts.timeout_s == CheckOptions().timeout_s

    def test_solver_keys(self):
        keys = {"solver.cmd": "mysolver --fast", "solver.timeout_s": "12.5", "solver.mem_mb": "256"}
        opts = apply_config_keys(CheckOptions(), keys)
        assert opts.solver_cmd == "mysolver --fast"
        assert opts.timeout_s == 12.5
        assert opts.mem_mb == 256

    def test_per_signal_kinds_merge(self):
        opts = apply_config_keys(CheckOptions(), {"spd": "constant"})
        opts = apply_config_keys(opts, {"ang-rate": "cubic"})
        assert opts.preprocess.per_signal == {
            "spd": InterpolationKind.CONSTANT,
            "ang-rate": InterpolationKind.CUBIC,
        }

    @pytest.mark.parametrize(
        "keys",
        [
            {"solver.retries": "3"},
            {"solver.timeout_s": "soon"},
            {"solver.mem_mb": "lots"},
            {"strategy": "A3"},
            {"default": "quintic"},
            {"solver.timeout_s": "-5"},
            {"solver.timeout_s": "0"},
            {"solver.timeout_s": "nan"},
            {"solver.mem_mb": "0"},
            {"solver.mem_mb": "-64"},
        ],
    )
    def test_bad_keys_rejected(self, keys):
        with pytest.raises(PreprocessError):
            apply_config_keys(CheckOptions(), keys)


class TestManifest:
    def make(self, tmp_path, body):
        p = tmp_path / "m.csv"
        p.write_text("id,trace,property,strategy,config\n" + body)
        return p

    def test_relative_paths_resolve_against_manifest_dir(self, tmp_path):
        p = self.make(tmp_path, "e1,t.csv,p.prop,,\n")
        (entry,) = load_manifest(p)
        assert entry.trace == str(tmp_path / "t.csv")
        assert entry.property == str(tmp_path / "p.prop")
        assert entry.config == ""

    def test_absolute_paths_kept(self, tmp_path):
        p = self.make(tmp_path, "e1,/a/t.csv,/b/p.prop,a1,c.cfg\n")
        (entry,) = load_manifest(p)
        assert entry.trace == "/a/t.csv"
        assert entry.strategy == "A1"
        assert entry.config == str(tmp_path / "c.cfg")

    def test_wrong_header_rejected(self, tmp_path):
        p = tmp_path / "m.csv"
        p.write_text("id,trace\nz,1\n")
        with pytest.raises(StageError) as e:
            load_manifest(p)
        assert stage_of(e) == "manifest"

    @pytest.mark.parametrize(
        "body",
        [
            ",t.csv,p.prop,,\n",             # empty id
            "e1,t.csv,p.prop,,\ne1,t.csv,p.prop,,\n",  # duplicate id
            "e1,t.csv,,,\n",                 # missing property
            "e1,t.csv,p.prop,A9,\n",         # bad strategy
            "e1,t.csv,p.prop,,,extra\n",     # too many columns
            "a b,t.csv,p.prop,,\na_b,t.csv,p.prop,,\n",  # ids naming one script file
        ],
    )
    def test_bad_rows_rejected(self, tmp_path, body):
        with pytest.raises(StageError) as e:
            load_manifest(self.make(tmp_path, body))
        assert stage_of(e) == "manifest"

    def test_colliding_script_names_name_both_lines(self, tmp_path):
        p = self.make(tmp_path, "a b,t.csv,p.prop,,\nok,t.csv,p.prop,,\na_b,t.csv,p.prop,,\n")
        with pytest.raises(StageError) as e:
            load_manifest(p)
        assert str(e.value) == (
            f"{p} lines 2 and 4: ids 'a b' and 'a_b' both name the script 'a_b.smt2'"
        )

    def test_entry_strategy_beats_config_file(self, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("strategy = A2\ndefault = cubic\n")
        entry = ManifestEntry(
            id="e", trace="t", property="p", strategy="A1", config=str(cfg)
        )
        opts = entry_options(entry, CheckOptions())
        assert opts.preprocess.strategy == "A1"
        assert opts.preprocess.default_kind is InterpolationKind.CUBIC

    def test_entry_options_do_not_leak_between_entries(self):
        base = CheckOptions()
        e1 = ManifestEntry(id="a", trace="t", property="p", strategy="A1")
        entry_options(e1, base).preprocess.per_signal["x"] = InterpolationKind.CUBIC
        assert base.preprocess.per_signal == {}
        assert base.preprocess.strategy == "A2"


class TestRunBatch:
    def make_batch(self, workdir, body):
        p = workdir / "batch.csv"
        p.write_text("id,trace,property,strategy,config\n" + body)
        return p

    def test_rows_sorted_by_id(self, workdir):
        manifest = self.make_batch(
            workdir,
            "e2,fig1.csv,sigma.prop,A1,\ne1,fig1.csv,r1.prop,,\n",
        )
        rows = run_batch(manifest, CheckOptions(), workdir / "out")
        assert [r.id for r in rows] == ["e1", "e2"]
        assert [r.verdict for r in rows] == ["satisfied", "violated"]

    def test_parallelism_does_not_change_results(self, workdir):
        manifest = self.make_batch(
            workdir,
            "a,fig1.csv,r1.prop,,\nb,fig1.csv,sigma.prop,,\nc,fig1.csv,sigma.prop,A1,\n",
        )
        serial = run_batch(manifest, CheckOptions(), workdir / "o1", jobs=1)
        threaded = run_batch(manifest, CheckOptions(), workdir / "o2", jobs=3)
        strip = lambda rows: [(r.id, r.verdict, r.reason, r.records_pre) for r in rows]
        assert strip(serial) == strip(threaded)

    def test_missing_trace_isolated(self, workdir):
        manifest = self.make_batch(
            workdir,
            "bad,missing.csv,r1.prop,,\ngood,fig1.csv,r1.prop,,\n",
        )
        rows = run_batch(manifest, CheckOptions(), workdir / "out")
        by_id = {r.id: r for r in rows}
        assert by_id["bad"].verdict == "inconclusive"
        assert by_id["bad"].reason.startswith("io-error:")
        assert by_id["good"].verdict == "satisfied"

    def test_repeat_adds_timing_stats(self, workdir):
        manifest = self.make_batch(workdir, "e1,fig1.csv,sigma.prop,A1,\n")
        (row,) = run_batch(manifest, CheckOptions(), workdir / "out", repeat=3)
        assert row.timing is not None
        assert row.timing.runs == 3
        assert row.timing.min_s <= row.timing.avg_s <= row.timing.max_s
        assert row.timing.sd_s >= 0

    def test_scripts_named_after_entry_ids(self, workdir):
        manifest = self.make_batch(workdir, "e1,fig1.csv,r1.prop,,\n")
        (row,) = run_batch(manifest, CheckOptions(), workdir / "out")
        assert row.script.endswith("e1.smt2")

    def test_exit_code_reflects_worst_entry(self, workdir):
        manifest = self.make_batch(
            workdir,
            "a,fig1.csv,r1.prop,,\nb,fig1.csv,sigma.prop,,\nc,missing.csv,r1.prop,,\n",
        )
        rows = run_batch(manifest, CheckOptions(), workdir / "out")
        assert batch_exit_code(rows) == 3

    def test_exit_code_zero_when_all_satisfied(self):
        rows = [ReportRow(id="a", verdict="satisfied")]
        assert batch_exit_code(rows) == 0
        assert batch_exit_code([]) == 0


class TestReports:
    def rows(self):
        return [
            ReportRow(id="a", verdict="satisfied", solver_status="unsat", time_s=0.5),
            ReportRow(
                id="b",
                verdict="inconclusive",
                reason="io-error: gone",
                timing=TimingStats(runs=3, avg_s=0.1, min_s=0.09, max_s=0.12, sd_s=0.01),
            ),
        ]

    def test_csv_report(self, tmp_path):
        path = tmp_path / "r.csv"
        write_report(self.rows(), "csv", path)
        lines = path.read_text().splitlines()
        assert lines[0].startswith("id,verdict,reason,solver_status,time_s")
        assert lines[0].endswith("time_avg_s,time_min_s,time_max_s,time_sd_s")
        assert lines[1].startswith("a,satisfied,")
        assert len(lines) == 3

    def test_solve_time_column(self, tmp_path):
        row = ReportRow(id="a", verdict="satisfied", time_s=0.5, solve_s=0.25)
        write_report([row], "csv", tmp_path / "r.csv")
        header, line = (tmp_path / "r.csv").read_text().splitlines()
        assert dict(zip(header.split(","), line.split(",")))["solve_s"] == "0.25"
        write_report([row], "jsonl", tmp_path / "r.jsonl")
        assert json.loads((tmp_path / "r.jsonl").read_text())["solve_s"] == 0.25

    def test_csv_omits_stats_without_repeat(self, tmp_path):
        path = tmp_path / "r.csv"
        write_report([self.rows()[0]], "csv", path)
        assert "time_avg_s" not in path.read_text()

    def test_jsonl_report(self, tmp_path):
        path = tmp_path / "r.jsonl"
        write_report(self.rows(), "jsonl", path)
        objs = [json.loads(line) for line in path.read_text().splitlines()]
        assert [o["id"] for o in objs] == ["a", "b"]
        assert objs[1]["time_avg_s"] == 0.1
        assert "time_avg_s" not in objs[0]

    def test_unknown_format_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            write_report([], "xml", tmp_path / "r.xml")


class TestExitCodes:
    def test_verdict_map(self):
        assert EXIT_BY_VERDICT == {
            "satisfied": 0,
            "violated": 1,
            "unknown": 2,
            "inconclusive": 3,
        }

    def test_slug_keeps_safe_chars(self):
        assert slug("run-7.b") == "run-7.b"
        assert slug("a/b c") == "a_b_c"
        assert slug("") == "entry"
