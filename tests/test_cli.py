"""Command-line behaviour: exit codes, printed rows, error reporting."""

import json
import os
import re
import shlex
import subprocess
import sys
import time
from pathlib import Path

import pytest

import tracecheck
from tracecheck.cli import main
from tracecheck.pipeline import check_pair
from tracecheck.trace import load_trace_file

from conftest import FIG_CSV, R1_TEXT, SIGMA_EXAMPLE_TEXT


@pytest.fixture
def workdir(tmp_path):
    (tmp_path / "fig1.csv").write_text(FIG_CSV)
    (tmp_path / "r1.prop").write_text(R1_TEXT + "\n")
    (tmp_path / "sigma.prop").write_text(SIGMA_EXAMPLE_TEXT + "\n")
    return tmp_path


def run(*argv):
    return main([str(a) for a in argv])


class TestValidate:
    def test_ok_with_trace_signature(self, workdir, capsys):
        code = run("validate", workdir / "r1.prop", "--trace", workdir / "fig1.csv")
        out = capsys.readouterr().out
        assert code == 0
        assert out.startswith("ok\n")
        assert "ang-rate, mode" in out

    def test_ok_with_declared_signature(self, workdir, capsys):
        p = workdir / "decl.prop"
        p.write_text("signal spd : real\nexists tau0 in [0,1] such that (spd @t tau0) < 1\n")
        assert run("validate", p) == 0
        assert "signature (declared): spd" in capsys.readouterr().out

    def test_parse_error_exits_4(self, workdir, capsys):
        p = workdir / "broken.prop"
        p.write_text("exists tau0 in\n")
        assert run("validate", p) == 4
        assert "error at property-parse:" in capsys.readouterr().err

    def test_missing_file_exits_4(self, workdir, capsys):
        assert run("validate", workdir / "nope.prop") == 4
        assert "error at io-error:" in capsys.readouterr().err


class TestPreprocess:
    def test_a2_writes_grid_trace(self, workdir, capsys):
        code = run("preprocess", workdir / "fig1.csv", "--out", workdir / "o")
        out = capsys.readouterr().out
        assert code == 0
        assert "7 records in, 29 out" in out
        written = load_trace_file(str(workdir / "o" / "fig1.pre.csv"))
        assert len(written) == 29

    def test_a1_preserves_count(self, workdir, capsys):
        code = run(
            "preprocess", workdir / "fig1.csv", "--strategy", "A1", "--out", workdir / "o"
        )
        assert code == 0
        assert "7 records in, 7 out, rate variable" in capsys.readouterr().out

    def test_bad_trace_exits_4(self, workdir, capsys):
        p = workdir / "bad.csv"
        p.write_text("nope\n")
        assert run("preprocess", p, "--out", workdir / "o") == 4
        assert "error at trace-format:" in capsys.readouterr().err


class TestTranslate:
    def test_writes_script(self, workdir, capsys):
        code = run(
            "translate", workdir / "fig1.csv", workdir / "r1.prop", "--out", workdir / "o"
        )
        out = capsys.readouterr().out
        assert code == 0
        path = out.splitlines()[-1]
        text = open(path).read()
        assert "(set-logic AUFLIRA)" in text
        assert text.rstrip().endswith("(get-model)")

    def test_iota_fixed_without_a2_exits_4(self, workdir, capsys):
        code = run(
            "translate",
            workdir / "fig1.csv",
            workdir / "sigma.prop",
            "--strategy",
            "A1",
            "--iota",
            "fixed",
            "--out",
            workdir / "o",
        )
        assert code == 4
        assert "error at iota:" in capsys.readouterr().err

    def test_stats_line(self, workdir, capsys):
        run("translate", workdir / "fig1.csv", workdir / "sigma.prop", "--out", workdir / "o")
        assert "1 quantifiers" in capsys.readouterr().out


class TestCheck:
    def test_satisfied_exits_0(self, workdir, capsys):
        code = run(
            "check", workdir / "fig1.csv", workdir / "r1.prop", "--out", workdir / "o"
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "verdict: satisfied" in out
        assert "solver: unsat" in out

    def test_violated_exits_1(self, workdir, capsys):
        code = run(
            "check", workdir / "fig1.csv", workdir / "sigma.prop", "--out", workdir / "o"
        )
        assert code == 1
        assert "verdict: violated" in capsys.readouterr().out

    def test_oracle_line(self, workdir, capsys):
        code = run(
            "check",
            workdir / "fig1.csv",
            workdir / "r1.prop",
            "--oracle",
            "--out",
            workdir / "o",
        )
        assert code == 0
        assert "oracle: satisfied" in capsys.readouterr().out

    def test_signature_mismatch_exits_4(self, workdir, capsys):
        p = workdir / "ghost.prop"
        p.write_text("signal spd : real\nexists sigma0 in [0,1] such that (spd @i sigma0) < 1\n")
        code = run("check", workdir / "fig1.csv", p, "--out", workdir / "o")
        assert code == 4
        assert "error at signature:" in capsys.readouterr().err

    def test_config_file_applies(self, workdir, capsys):
        cfg = workdir / "c.cfg"
        cfg.write_text("default = cubic\nsolver.timeout_s = 60\n")
        code = run(
            "check",
            workdir / "fig1.csv",
            workdir / "r1.prop",
            "--config",
            cfg,
            "--out",
            workdir / "o",
        )
        assert code == 0

    @pytest.mark.parametrize("cell", ["inf", "1e-99999999"])
    def test_unusable_number_in_trace_exits_4(self, workdir, capsys, cell):
        (workdir / "bad.csv").write_text(f"timestamp,x\n0,1\n1,{cell}\n")
        (workdir / "x.prop").write_text("(x @i 0) > 0\n")
        code = run("check", workdir / "bad.csv", workdir / "x.prop", "--out", workdir / "o")
        assert code == 4
        assert "error at trace-format:" in capsys.readouterr().err

    def test_huge_exponent_literal_exits_4(self, workdir, capsys):
        (workdir / "x.csv").write_text("timestamp,x\n0,1\n1,2\n")
        (workdir / "x.prop").write_text("x @i 0 > 1e-99999999\n")
        code = run("check", workdir / "x.csv", workdir / "x.prop", "--out", workdir / "o")
        assert code == 4
        assert "error at property-parse:" in capsys.readouterr().err

    def test_internal_error_exits_4(self, workdir, capsys, monkeypatch):
        def broken(*args, **kwargs):
            raise RuntimeError("broken")

        monkeypatch.setattr("tracecheck.cli.check_pair", broken)
        code = run("check", workdir / "fig1.csv", workdir / "r1.prop", "--out", workdir / "o")
        assert code == 4
        assert "error at internal: RuntimeError('broken')" in capsys.readouterr().err

    def test_solver_line_prints_the_solve_time(self, workdir, capsys, monkeypatch):
        stub = workdir / "slow.sh"
        stub.write_text("#!/bin/sh\nsleep 0.3\necho unsat\n")
        stub.chmod(0o755)
        rows = []

        def keep_row(*args, **kwargs):
            rows.append(check_pair(*args, **kwargs))
            return rows[-1]

        monkeypatch.setattr("tracecheck.cli.check_pair", keep_row)
        code = run(
            "check", workdir / "fig1.csv", workdir / "r1.prop",
            "--solver", stub, "--oracle", "--out", workdir / "o",
        )
        assert code == 0
        printed = re.search(r"^solver: unsat in (\S+)s$", capsys.readouterr().out, re.M)
        assert 0.3 <= float(printed.group(1)) < rows[0].time_s

    def test_solver_flag_honored(self, workdir, capsys):
        code = run(
            "check",
            workdir / "fig1.csv",
            workdir / "r1.prop",
            "--solver",
            "no-such-solver-here",
            "--out",
            workdir / "o",
        )
        assert code == 3
        assert "verdict: inconclusive" in capsys.readouterr().out


class TestBatch:
    def write_manifest(self, workdir, body):
        p = workdir / "batch.csv"
        p.write_text("id,trace,property,strategy,config\n" + body)
        return p

    def test_three_entries_ordered(self, workdir, capsys):
        manifest = self.write_manifest(
            workdir,
            "e3,fig1.csv,sigma.prop,A1,\ne1,fig1.csv,r1.prop,,\ne2,fig1.csv,r1.prop,A1,\n",
        )
        code = run("batch", manifest, "--jobs", "2", "--out", workdir / "o")
        out = capsys.readouterr().out
        ids = [line.split(":")[0] for line in out.splitlines() if line and ":" in line][:3]
        assert ids == ["e1", "e2", "e3"]
        assert code == 1  # e3 violated is the worst entry

    def test_report_csv_written(self, workdir):
        manifest = self.write_manifest(workdir, "e1,fig1.csv,r1.prop,,\n")
        assert run("batch", manifest, "--out", workdir / "o") == 0
        header = (workdir / "o" / "report.csv").read_text().splitlines()[0]
        assert header.split(",")[:4] == ["id", "verdict", "reason", "solver_status"]

    def test_report_jsonl_with_repeat(self, workdir):
        manifest = self.write_manifest(workdir, "e1,fig1.csv,sigma.prop,A1,\n")
        code = run(
            "batch",
            manifest,
            "--repeat",
            "2",
            "--report",
            "jsonl",
            "--out",
            workdir / "o",
        )
        assert code == 1
        (obj,) = [
            json.loads(line)
            for line in (workdir / "o" / "report.jsonl").read_text().splitlines()
        ]
        assert obj["verdict"] == "violated"
        assert set(obj) >= {"time_avg_s", "time_min_s", "time_max_s", "time_sd_s"}

    def test_missing_entry_isolated(self, workdir, capsys):
        manifest = self.write_manifest(
            workdir, "bad,gone.csv,r1.prop,,\nok,fig1.csv,r1.prop,,\n"
        )
        code = run("batch", manifest, "--out", workdir / "o")
        out = capsys.readouterr().out
        assert code == 3
        assert "bad: inconclusive" in out
        assert "ok: satisfied" in out

    def test_broken_manifest_exits_4(self, workdir, capsys):
        p = workdir / "m.csv"
        p.write_text("id,trace\nz,1\n")
        assert run("batch", p, "--out", workdir / "o") == 4
        assert "error at manifest:" in capsys.readouterr().err


def write_error_inputs(d):
    """One broken input per stage, next to the fixture's good files."""
    (d / "bad.csv").write_text("nope\n")
    (d / "one.csv").write_text("timestamp,ang-rate,mode\n0,1,0\n")
    gaps = "\n".join(f"{k + k // 2},1" for k in range(2001))
    (d / "wide.csv").write_text("timestamp,x\n" + gaps + "\n")
    (d / "reads.prop").write_text(" and ".join(["(x @t 0) > 0"] * 26) + "\n")
    (d / "broken.prop").write_text("exists tau0 in\n")
    (d / "deep.prop").write_text("(" * 3000 + "(mode @i 0) > 0" + ")" * 3000 + "\n")
    (d / "ghost.prop").write_text(
        "signal spd : real\nexists sigma0 in [0,1] such that (spd @i sigma0) < 1\n"
    )
    (d / "bad.cfg").write_text("default = quintic\n")
    (d / "neg.cfg").write_text("solver.timeout_s = -5\n")
    (d / "nan.cfg").write_text("solver.timeout_s = nan\n")
    (d / "nomem.cfg").write_text("solver.mem_mb = 0\n")
    (d / "quote.cfg").write_text('solver.cmd = "z3\n')
    (d / "blank.cfg").write_text("solver.cmd =\n")
    (d / "m.csv").write_text("id,trace,property,strategy,config\ne1,fig1.csv,r1.prop,,\n")
    (d / "badm.csv").write_text("id,trace\nz,1\n")
    (d / "rep" / "report.csv").mkdir(parents=True)


# (arguments, start of the stderr line after "error at ")
STAGE_ERRORS = [
    ("validate nope.prop", "io-error: nope.prop:"),
    ("validate r1.prop --trace nope.csv", "io-error: nope.csv:"),
    ("validate nope.prop --trace nope.csv", "io-error: nope.prop:"),
    ("preprocess nope.csv", "io-error: nope.csv:"),
    ("translate nope.csv r1.prop", "io-error: nope.csv:"),
    ("check nope.csv r1.prop", "io-error: nope.csv:"),
    ("translate fig1.csv nope.prop", "io-error: nope.prop:"),
    ("check fig1.csv nope.prop", "io-error: nope.prop:"),
    ("check nope.csv nope.prop", "io-error: nope.csv:"),
    ("preprocess fig1.csv --config nope.cfg", "io-error: nope.cfg:"),
    ("translate fig1.csv r1.prop --config nope.cfg", "io-error: nope.cfg:"),
    ("check fig1.csv r1.prop --config nope.cfg", "io-error: nope.cfg:"),
    ("batch m.csv --config nope.cfg", "io-error: nope.cfg:"),
    ("batch nope.csv", "io-error: nope.csv:"),
    ("preprocess fig1.csv --out fig1.csv/o", "io-error: fig1.csv/o:"),
    ("translate fig1.csv r1.prop --out fig1.csv/o", "io-error: fig1.csv/o:"),
    ("check fig1.csv r1.prop --out fig1.csv/o", "io-error: fig1.csv/o:"),
    ("batch m.csv --out fig1.csv/o", "io-error: fig1.csv/o:"),
    ("batch m.csv --out rep", "io-error: rep/report.csv: Is a directory"),
    ("validate r1.prop --trace bad.csv", "trace-format: bad.csv:"),
    ("preprocess bad.csv", "trace-format: bad.csv:"),
    ("translate bad.csv r1.prop", "trace-format: bad.csv:"),
    ("check bad.csv r1.prop", "trace-format: bad.csv:"),
    ("validate broken.prop", "property-parse: broken.prop:"),
    ("translate fig1.csv broken.prop", "property-parse: broken.prop:"),
    ("check fig1.csv broken.prop", "property-parse: broken.prop:"),
    ("validate deep.prop", "property-parse: deep.prop: property nests too deeply"),
    ("translate fig1.csv deep.prop", "property-parse: deep.prop: property nests too deeply"),
    ("check fig1.csv deep.prop", "property-parse: deep.prop: property nests too deeply"),
    ("validate ghost.prop --trace fig1.csv", "signature: property uses signals absent"),
    ("translate fig1.csv ghost.prop", "signature: property uses signals absent"),
    ("check fig1.csv ghost.prop", "signature: property uses signals absent"),
    ("preprocess fig1.csv --config bad.cfg", "config: bad.cfg: unknown interpolation kind"),
    ("translate fig1.csv r1.prop --config bad.cfg", "config: bad.cfg:"),
    ("check fig1.csv r1.prop --config bad.cfg", "config: bad.cfg:"),
    ("batch m.csv --config bad.cfg", "config: bad.cfg:"),
    ("check fig1.csv r1.prop --timeout -5", "config: --timeout: solver.timeout_s must be a positive"),
    ("check fig1.csv r1.prop --timeout 0", "config: --timeout: solver.timeout_s must be a positive"),
    ("check fig1.csv r1.prop --timeout nan", "config: --timeout: solver.timeout_s must be a positive"),
    ("batch m.csv --timeout -0.5", "config: --timeout: solver.timeout_s must be a positive"),
    ("check fig1.csv r1.prop --mem 0", "config: --mem: solver.mem_mb must be a positive"),
    ("batch m.csv --mem -64", "config: --mem: solver.mem_mb must be a positive"),
    ("check fig1.csv r1.prop --config neg.cfg", "config: neg.cfg: solver.timeout_s must be a positive"),
    ("check fig1.csv r1.prop --config nan.cfg", "config: nan.cfg: solver.timeout_s must be a positive"),
    ("batch m.csv --config nomem.cfg", "config: nomem.cfg: solver.mem_mb must be a positive"),
    ("check fig1.csv r1.prop --solver '\"z3'", "config: --solver: solver.cmd must be a command line"),
    ("check fig1.csv r1.prop --solver ' '", "config: --solver: solver.cmd must be a command line"),
    ("batch m.csv --solver '\"z3'", "config: --solver: solver.cmd must be a command line"),
    ("batch m.csv --solver ''", "config: --solver: solver.cmd must be a command line"),
    ("check fig1.csv r1.prop --config quote.cfg", "config: quote.cfg: solver.cmd must be a command line"),
    ("check fig1.csv r1.prop --config blank.cfg", "config: blank.cfg: solver.cmd must be a command line"),
    ("batch m.csv --config quote.cfg", "config: quote.cfg: solver.cmd must be a command line"),
    ("preprocess one.csv", "preprocess: strategy A2 needs at least 2 records"),
    ("translate one.csv r1.prop", "preprocess:"),
    ("check one.csv r1.prop", "preprocess:"),
    ("translate fig1.csv sigma.prop --strategy A1 --iota fixed", "iota:"),
    ("check fig1.csv sigma.prop --strategy A1 --iota fixed", "iota:"),
    ("translate wide.csv reads.prop --strategy A1", "translate: the variable-rate index map"),
    ("check wide.csv reads.prop --strategy A1", "translate: the variable-rate index map"),
    ("batch badm.csv", "manifest: badm.csv: header must be"),
]


class TestStageErrors:
    @pytest.mark.parametrize(
        "line, expected", STAGE_ERRORS, ids=[line for line, _ in STAGE_ERRORS]
    )
    def test_exits_4_with_the_stage_tag(
        self, workdir, capsys, monkeypatch, line, expected
    ):
        write_error_inputs(workdir)
        monkeypatch.chdir(workdir)
        argv = shlex.split(line)
        if argv[0] != "validate" and "--out" not in argv:
            argv += ["--out", "o"]
        assert main(argv) == 4
        err = capsys.readouterr().err
        assert err.startswith(f"error at {expected}"), err
        assert err.count("\n") == 1

    @pytest.mark.parametrize("command", ["preprocess tight.csv", "check tight.csv x.prop"])
    def test_oversized_a2_grid_is_refused_quickly(self, workdir, capsys, monkeypatch, command):
        (workdir / "tight.csv").write_text("timestamp,x\n0,1\n0.000000001,1\n1000,1\n")
        (workdir / "x.prop").write_text("(x @i 0) > 0\n")
        monkeypatch.chdir(workdir)
        started = time.perf_counter()
        assert main(command.split() + ["--out", "o"]) == 4
        assert time.perf_counter() - started < 5
        assert capsys.readouterr().err.startswith("error at preprocess: strategy A2 would build")


def write_hostile_inputs(d):
    """Files that are not UTF-8, or that hold one huge token, next to the
    fixture's good files."""
    (d / "latin.csv").write_bytes(FIG_CSV.encode() + b"6.0,1,\xff\n")
    (d / "latin.prop").write_bytes(b"(mode @i 0) > " + b"0" * 100_000 + b"\xff\n")
    (d / "latin.cfg").write_bytes(b"default = linear\n# caf\xe9\n")
    (d / "latin_m.csv").write_bytes(b"id,trace,property,strategy,config\ne\xff,fig1.csv,r1.prop,,\n")
    (d / "wide.csv").write_text("timestamp,x\n0," + "9" * 200_000 + "\n")
    (d / "wide_m.csv").write_text(
        "id,trace,property,strategy,config\n" + "e" * 200_000 + ",fig1.csv,r1.prop,,\n"
    )
    (d / "ident.prop").write_text("(" + "x" * 1_000_000 + " @i 0) > 0\n")
    (d / "long.cfg").write_text("strategy = " + "A" * 1_000_000 + "\n")


# (arguments, the whole stderr line after "error at ")
HOSTILE_ERRORS = [
    ("check latin.csv r1.prop", f"io-error: latin.csv: not UTF-8 (byte {len(FIG_CSV) + 6})"),
    ("validate latin.prop", "io-error: latin.prop: not UTF-8 (byte 100014)"),
    ("check fig1.csv latin.prop", "io-error: latin.prop: not UTF-8 (byte 100014)"),
    ("check fig1.csv r1.prop --config latin.cfg", "io-error: latin.cfg: not UTF-8 (byte 22)"),
    ("batch latin_m.csv", "io-error: latin_m.csv: not UTF-8 (byte 35)"),
    ("check wide.csv r1.prop", "trace-format: wide.csv: line 2: field larger than field limit (131072)"),
    ("batch wide_m.csv", "manifest: wide_m.csv: field larger than field limit (131072)"),
    ("check fig1.csv ident.prop", f"property-parse: ident.prop: unknown signal {'x' * 40!r}... (line 1, column 2)"),
    ("check fig1.csv r1.prop --config long.cfg", f"config: long.cfg: strategy must be A1 or A2, got {'A' * 40!r}..."),
]


class TestHostileInputFiles:
    """Input that is not UTF-8, or that holds a huge token, ends in a tagged
    stage error whose message names the file and quotes little of it."""

    @pytest.mark.parametrize(
        "line, expected", HOSTILE_ERRORS, ids=[line for line, _ in HOSTILE_ERRORS]
    )
    def test_exits_4_with_a_short_message(self, workdir, capsys, monkeypatch, line, expected):
        write_hostile_inputs(workdir)
        monkeypatch.chdir(workdir)
        argv = shlex.split(line)
        if argv[0] != "validate":
            argv += ["--out", "o"]
        assert main(argv) == 4
        assert capsys.readouterr().err == f"error at {expected}\n"

    def test_a_bad_trace_in_a_manifest_is_an_inconclusive_row(self, workdir, capsys, monkeypatch):
        write_hostile_inputs(workdir)
        (workdir / "m.csv").write_text(
            "id,trace,property,strategy,config\nbad,latin.csv,r1.prop,,\ngood,fig1.csv,r1.prop,,\n"
        )
        monkeypatch.chdir(workdir)
        assert main(["batch", "m.csv", "--out", "o"]) == 3
        out, err = capsys.readouterr()
        assert err == ""
        bad = next(line for line in out.splitlines() if line.startswith("bad:"))
        assert bad.startswith("bad: inconclusive")
        assert bad.endswith(f"latin.csv: not UTF-8 (byte {len(FIG_CSV) + 6}))")
        assert "(io-error: " in bad and len(bad) < 1024


CONJUNCTS = {
    "400 ands": " and ".join(["(mode @i 0) >= 0"] * 400),
    "900 ands": " and ".join(["(mode @i 0) >= 0"] * 900),
    "exists over 900 ands": "exists t in [0, 5] such that "
    + " and ".join(["(mode @t t) >= 0"] * 900),
    "forall over 900 ands": "forall s in [0, 5] such that "
    + " and ".join(["(mode @i s) >= 0"] * 900),
}


class TestLongConjunctionsInAFreshProcess:
    """An `and` chain the parser accepts gets a verdict from both routes, in
    an interpreter at its default recursion limit."""

    @pytest.mark.parametrize("text", CONJUNCTS.values(), ids=CONJUNCTS.keys())
    def test_check_with_the_oracle_decides(self, workdir, text):
        (workdir / "ands.prop").write_text(text + "\n")
        src = str(Path(tracecheck.__file__).resolve().parents[1])
        done = subprocess.run(
            [sys.executable, "-m", "tracecheck.cli", "check", "fig1.csv", "ands.prop",
             "--oracle", "--out", "o"],
            capture_output=True, text=True, cwd=workdir, timeout=120,
            env={**os.environ, "PYTHONPATH": src},
        )
        assert done.returncode == 0, done.stderr
        assert "verdict: satisfied" in done.stdout
        assert "oracle: satisfied" in done.stdout


class TestParser:
    def test_missing_arguments_exit_2(self):
        with pytest.raises(SystemExit) as e:
            main(["check"])
        assert e.value.code == 2

    def test_unknown_command_exits_2(self):
        with pytest.raises(SystemExit) as e:
            main(["frobnicate"])
        assert e.value.code == 2
