"""Command-line behaviour: exit codes, printed rows, error reporting."""

import json

import pytest

from tracecheck.cli import main
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


class TestParser:
    def test_missing_arguments_exit_2(self):
        with pytest.raises(SystemExit) as e:
            main(["check"])
        assert e.value.code == 2

    def test_unknown_command_exits_2(self):
        with pytest.raises(SystemExit) as e:
            main(["frobnicate"])
        assert e.value.code == 2
