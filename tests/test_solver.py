"""Tests for the solver driver (its one server route, for any command) and verdict mapping."""

import ast
import importlib.metadata
import os
import re
import shutil
import signal
import stat
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

from conftest import children_of, running, wait_until_ended
from tracecheck import solver
from tracecheck.smt import translate
from tracecheck.solver import (
    _SERVERS,
    DEFAULT_MEM_MB,
    DEFAULT_SOLVER_CMD,
    DEFAULT_TIMEOUT_S,
    SolverOutcome,
    Verdict,
    run_solver,
    verdict_of,
)
from tracecheck.syntax import parse


def make_stub(tmp_path, body, name="stub.sh"):
    path = tmp_path / name
    path.write_text("#!/bin/sh\n" + body)
    path.chmod(path.stat().st_mode | stat.S_IXUSR)
    return str(path)


@pytest.fixture
def script_file(tmp_path):
    p = tmp_path / "query.smt2"
    p.write_text("(check-sat)\n")
    return str(p)


class TestRunSolver:
    def test_unsat(self, tmp_path, script_file):
        cmd = make_stub(tmp_path, "echo unsat\n")
        out = run_solver(script_file, cmd=cmd)
        assert out.status == "unsat"
        assert out.model == ""
        assert out.elapsed_s > 0

    def test_sat_with_model(self, tmp_path, script_file):
        cmd = make_stub(
            tmp_path,
            'echo sat\necho "(model"\necho "  (define-fun x () Real 1.0)"\necho ")"\n',
        )
        out = run_solver(script_file, cmd=cmd)
        assert out.status == "sat"
        assert out.model.startswith("(model")
        assert "define-fun" in out.model

    def test_unknown(self, tmp_path, script_file):
        cmd = make_stub(tmp_path, "echo unknown\n")
        out = run_solver(script_file, cmd=cmd)
        assert out.status == "unknown"

    def test_script_path_is_passed(self, tmp_path, script_file):
        cmd = make_stub(tmp_path, 'test -f "$1" && echo sat || echo unknown\n')
        assert run_solver(script_file, cmd=cmd).status == "sat"

    def test_leading_blank_lines_skipped(self, tmp_path, script_file):
        cmd = make_stub(tmp_path, 'echo ""\necho ""\necho unsat\n')
        assert run_solver(script_file, cmd=cmd).status == "unsat"

    def test_timeout(self, tmp_path, script_file):
        cmd = make_stub(tmp_path, "sleep 30\necho sat\n")
        out = run_solver(script_file, cmd=cmd, timeout_s=0.5)
        assert out.status == "timeout"
        assert out.detail == "solver exceeded 0.5s"
        assert out.elapsed_s < 10

    def test_command_not_found(self, script_file):
        out = run_solver(script_file, cmd="definitely-not-a-solver-zzz")
        assert out.status == "error"
        assert out.detail == "solver command not found: definitely-not-a-solver-zzz"

    def test_resource_pattern_beats_unknown(self, tmp_path, script_file):
        cmd = make_stub(
            tmp_path, 'echo unknown\necho "max. recursion depth exceeded" >&2\n'
        )
        out = run_solver(script_file, cmd=cmd)
        assert out.status == "resource"
        assert out.detail == "max-depth"

    def test_out_of_memory_pattern(self, tmp_path, script_file):
        cmd = make_stub(tmp_path, 'echo "out of memory" >&2\nexit 1\n')
        out = run_solver(script_file, cmd=cmd)
        assert out.status == "resource"
        assert out.detail == "out-of-memory"

    def test_answer_token_beats_stderr_noise(self, tmp_path, script_file):
        cmd = make_stub(tmp_path, 'echo sat\necho "out of memory" >&2\n')
        assert run_solver(script_file, cmd=cmd).status == "sat"

    def test_garbage_stdout_is_error(self, tmp_path, script_file):
        cmd = make_stub(tmp_path, "echo hello world\n")
        out = run_solver(script_file, cmd=cmd)
        assert out.status == "error"
        assert out.detail == "no sat/unsat/unknown on stdout (exit 0)"

    def test_stderr_message_is_error_detail(self, tmp_path, script_file):
        cmd = make_stub(tmp_path, 'echo "parse error: line 3" >&2\nexit 2\n')
        out = run_solver(script_file, cmd=cmd)
        assert out.status == "error"
        assert out.detail == "parse error: line 3"

    def test_address_space_limit_applied(self, tmp_path, script_file):
        stub = tmp_path / "limit.py"
        stub.write_text(
            "import resource, sys\n"
            "soft, hard = resource.getrlimit(resource.RLIMIT_AS)\n"
            "print('sat')\n"
            "print(soft)\n"
        )
        out = run_solver(
            script_file, cmd=f"{sys.executable} {stub}", mem_mb=512
        )
        assert out.status == "sat"
        assert out.model == str(512 * 1024 * 1024)

    @pytest.mark.parametrize("route", ["default", "command"])
    def test_timeout_beyond_a_poll_interval(self, tmp_path, script_file, route):
        cmd = DEFAULT_SOLVER_CMD if route == "default" else make_stub(tmp_path, "echo sat\n")
        assert run_solver(script_file, cmd=cmd, timeout_s=1e9).status == "sat"

    def test_defaults(self):
        assert DEFAULT_SOLVER_CMD == "tracecheck-solve"
        assert DEFAULT_TIMEOUT_S == 3600.0
        assert DEFAULT_MEM_MB == 4096


def test_only_the_single_threaded_server_forks():
    # preexec_fn and a fork in a threaded caller run Python in a half-copied process
    for path in Path(solver.__file__).resolve().parent.glob("*.py"):
        text = path.read_text()
        assert "preexec_fn" not in text, path.name
        called = {
            getattr(node.func, "attr", getattr(node.func, "id", ""))
            for node in ast.walk(ast.parse(text))
            if isinstance(node, ast.Call)
        }
        assert path.name == "shim.py" or not called & {"fork", "forkpty"}, path.name


class TestVerdictOf:
    @pytest.mark.parametrize(
        "outcome,verdict,reason",
        [
            (SolverOutcome("unsat"), Verdict.SATISFIED, ""),
            (SolverOutcome("sat"), Verdict.VIOLATED, ""),
            (SolverOutcome("unknown"), Verdict.UNKNOWN, "solver returned unknown"),
            (
                SolverOutcome("timeout", detail="solver exceeded 3s"),
                Verdict.INCONCLUSIVE,
                "solver exceeded 3s",
            ),
            (
                SolverOutcome("resource", detail="max-depth"),
                Verdict.INCONCLUSIVE,
                "solver ran out of resources (max-depth)",
            ),
            (
                SolverOutcome("error", detail="boom"),
                Verdict.INCONCLUSIVE,
                "boom",
            ),
            (SolverOutcome("error"), Verdict.INCONCLUSIVE, "solver failed"),
        ],
    )
    def test_mapping(self, outcome, verdict, reason):
        assert verdict_of(outcome) == (verdict, reason)


# The console script exists only where the distribution is installed.
CONSOLE_SCRIPT_INSTALLED = bool(
    importlib.metadata.entry_points(group="console_scripts", name=DEFAULT_SOLVER_CMD)
)


class TestBundledSolverIntegration:
    @pytest.mark.skipif(
        not CONSOLE_SCRIPT_INSTALLED,
        reason=f"tracecheck is not installed: no {DEFAULT_SOLVER_CMD} console-script entry point",
    )
    def test_console_script_is_installed(self):
        assert shutil.which(DEFAULT_SOLVER_CMD) is not None

    def test_translated_script_roundtrip(self, tmp_path, fig_trace):
        f = parse(
            "exists σ0 in [3,6] such that (ang-rate @i σ0) < 2.5",
            signature=tuple(fig_trace.signals),
        )
        script = translate(fig_trace, f)
        path = tmp_path / "q.smt2"
        path.write_text(script.text)
        out = run_solver(str(path), cmd=f"{sys.executable} -m tracecheck.shim")
        assert out.status == "unsat"
        assert verdict_of(out) == (Verdict.SATISFIED, "")

    def test_violated_roundtrip_through_default_command(self, tmp_path, fig_trace):
        f = parse(
            "exists σ0 in [3,5] such that (ang-rate @i σ0) < 2.5",
            signature=tuple(fig_trace.signals),
        )
        script = translate(fig_trace, f)
        path = tmp_path / "q.smt2"
        path.write_text(script.text)
        out = run_solver(str(path))
        assert out.status == "sat"
        assert verdict_of(out)[0] == Verdict.VIOLATED

    def test_default_command_needs_no_install(self, tmp_path, fig_trace, monkeypatch):
        f = parse(
            "exists σ0 in [3,5] such that (ang-rate @i σ0) < 2.5",
            signature=tuple(fig_trace.signals),
        )
        path = tmp_path / "q.smt2"
        path.write_text(translate(fig_trace, f).text)
        empty = tmp_path / "bin"
        empty.mkdir()
        monkeypatch.setenv("PATH", str(empty))
        monkeypatch.setenv("PYTHONPATH", "src")
        monkeypatch.chdir(tmp_path)
        assert shutil.which(DEFAULT_SOLVER_CMD) is None
        _SERVERS.close()  # the next call starts a server under this environment
        out = run_solver(str(path))
        assert out.status == "sat", out.detail
        out = run_solver(str(path), cmd="definitely-not-a-solver-zzz")
        assert out.detail == "solver command not found: definitely-not-a-solver-zzz"


def alive(pid):
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    return True


def idle_child(server, within_s=5):
    """The child `server` forked ahead for its next request, once there is one."""
    deadline = time.monotonic() + within_s
    while not (children := children_of(server)) and time.monotonic() < deadline:
        time.sleep(0.01)
    assert len(children) == 1, children
    return children[0]


SLOW_SCRIPT = (  # ten million instances: seconds of work for the evaluator
    "(assert (exists ((k Int)) (and (and (<= 0 k) (<= k 999999))\n"
    "  (exists ((m Int)) (and (and (<= 0 m) (<= m 9)) (= (* k m) (- 0 1)))))))\n"
    "(check-sat)\n"
)


@pytest.fixture
def server(script_file):
    """The pid of the server the next default-route call on this thread takes."""
    assert run_solver(script_file).status == "sat"
    return _SERVERS._idle[-1].pid


class TestServerRoute:
    # the stub needs time to start its grandchild and write its pid
    @pytest.mark.parametrize(
        "route,timeout_s", [("default", 0.2), ("command", 1.0)], ids=["default", "command"]
    )
    def test_timeout_kills_the_child_group(self, tmp_path, script_file, server, route, timeout_s):
        slow = tmp_path / "slow.smt2"
        slow.write_text(SLOW_SCRIPT)
        grandchild = tmp_path / "grandchild.pid"
        cmd = DEFAULT_SOLVER_CMD
        if route == "command":
            cmd = make_stub(tmp_path, f"sleep 30 &\necho $! > {grandchild}\nwait\n")
        # the child forked ahead takes the script; the server forks the next
        # one after its reply, so only this one must be gone
        seen = [idle_child(server)]
        started = time.monotonic()
        out = run_solver(str(slow), cmd=cmd, timeout_s=timeout_s)
        assert out.status == "timeout"
        assert out.detail == f"solver exceeded {timeout_s:g}s"
        assert time.monotonic() - started < timeout_s + 1.8
        if route == "command":
            # the killed grandchild is init's to reap, which not every init does
            seen.append(int(grandchild.read_text()))
            wait_until_ended(seen)
        else:
            for child in seen:
                with pytest.raises(ProcessLookupError):
                    os.killpg(child, 0)
        assert run_solver(script_file).status == "sat"
        assert _SERVERS._idle[-1].pid == server

    def test_nan_timeout_ends_at_once(self, script_file, server):
        assert run_solver(script_file, timeout_s=float("nan")).status == "timeout"
        assert run_solver(script_file).status == "sat"
        assert _SERVERS._idle[-1].pid == server

    def test_memory_cap_is_out_of_memory(self, tmp_path, script_file, server):
        big = tmp_path / "big.smt2"
        big.write_text("(assert (= 1 1 " + "12 " * 1_700_000 + "))\n(check-sat)\n")
        out = run_solver(str(big), mem_mb=64)
        assert (out.status, out.detail) == ("resource", "out-of-memory")
        assert run_solver(script_file).status == "sat"
        assert _SERVERS._idle[-1].pid == server

    def test_child_dying_without_a_reply_is_an_error(self, tmp_path, script_file, server):
        # a cap below what the child already maps leaves it no room to read the script
        big = tmp_path / "comment.smt2"
        big.write_text(";" + "x" * 2_000_000 + "\n(check-sat)\n")
        out = run_solver(str(big), mem_mb=1)
        assert out.status == "error"
        assert out.detail.startswith("no sat/unsat/unknown on stdout (exit ")
        assert run_solver(script_file).status == "sat"
        assert _SERVERS._idle[-1].pid == server

    @pytest.mark.parametrize("route", ["default", "command"])
    def test_relative_path_after_chdir(self, tmp_path, server, monkeypatch, route):
        (tmp_path / "here").mkdir()
        (tmp_path / "here" / "q.smt2").write_text("(assert (= 1 2)) (check-sat)\n")
        cmd = DEFAULT_SOLVER_CMD
        if route == "command":
            make_stub(tmp_path / "here", 'test -f "$1" && echo unsat\n')
            cmd = "./stub.sh"
        monkeypatch.chdir(tmp_path / "here")
        assert run_solver("q.smt2", cmd=cmd).status == "unsat"
        assert _SERVERS._idle[-1].pid == server

    @pytest.mark.parametrize("route", ["default", "command"])
    def test_a_deleted_working_directory(self, tmp_path, script_file, server, monkeypatch, route):
        cmd = DEFAULT_SOLVER_CMD if route == "default" else make_stub(tmp_path, "echo sat\n")
        (tmp_path / "gone").mkdir()
        monkeypatch.chdir(tmp_path / "gone")
        (tmp_path / "gone").rmdir()
        assert run_solver(script_file, cmd=cmd).status == "sat"
        assert _SERVERS._idle[-1].pid == server

    def test_a_command_reading_stdin_still_answers(self, tmp_path, script_file, server):
        cmd = make_stub(tmp_path, "cat >/dev/null\necho unsat\n")
        assert run_solver(script_file, cmd=cmd, timeout_s=10).status == "unsat"
        assert run_solver(script_file).status == "sat"
        assert _SERVERS._idle[-1].pid == server

    def test_a_command_gets_the_callers_signals_and_environment(
        self, tmp_path, script_file, server, monkeypatch
    ):
        monkeypatch.setenv("TRACECHECK_PROBE", "set after the server started")
        cmd = make_stub(
            tmp_path,
            "echo sat\ngrep SigIgn /proc/$$/status\n"
            'echo "${PYTHONPATH-unset}"\necho "$TRACECHECK_PROBE"\n',
        )
        out = run_solver(script_file, cmd=cmd)
        ignored = re.search(r"^SigIgn:\s*(\w+)$", Path("/proc/self/status").read_text(), re.M)
        # the two dispositions Python sets at startup are a program's defaults again
        restored = 1 << (signal.SIGPIPE - 1) | 1 << (signal.SIGXFSZ - 1)
        sig_ign, pythonpath, probe = out.model.splitlines()
        assert int(sig_ign.split()[1], 16) == int(ignored.group(1), 16) & ~restored
        assert pythonpath == os.environ.get("PYTHONPATH", "unset")
        assert probe == "set after the server started"
        assert _SERVERS._idle[-1].pid == server

    def test_deep_script_leaves_the_caller_limit(self, tmp_path):
        index = "0"
        for _ in range(20_000):
            index = f"(+ 0 {index})"
        deep = tmp_path / "deep.smt2"
        deep.write_text(
            "(declare-const a (Array Int Real))\n"
            "(assert (= (select a 0) 1.0))\n"
            "(assert (exists ((x Real)) (and (and (<= 0.0 x) (<= x 1.0)) "
            f"(= (select a {index}) 1.0))))\n"
            "(check-sat)\n"
        )
        limit = sys.getrecursionlimit()
        assert run_solver(str(deep)).status == "sat"
        assert sys.getrecursionlimit() == limit

    def test_peak_memory_is_reported(self, script_file):
        assert run_solver(script_file).max_rss_mb > 1
        eat = f"{sys.executable} -c \"b = bytearray(64 << 20); print('sat')\""
        assert run_solver(script_file, cmd=eat).max_rss_mb >= 64

    def test_concurrent_calls_share_the_pool(self, script_file):
        _SERVERS.close()
        threads = 8
        results = []
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ThreadPoolExecutor(max_workers=threads) as pool:
                futures = [pool.submit(run_solver, script_file) for _ in range(threads * 5)]
                results = [f.result(timeout=60) for f in futures]
        finally:
            sys.setswitchinterval(switch)
        assert [r.status for r in results] == ["sat"] * len(results)
        pids = [s.pid for s in _SERVERS._idle]
        assert 1 <= len(pids) <= threads
        assert len(set(pids)) == len(pids)

    def test_idle_servers_are_reaped_at_exit(self, script_file):
        src = str(Path(solver.__file__).resolve().parents[1])
        probe = (
            "import sys\n"
            "from tracecheck.solver import _SERVERS, run_solver\n"
            "print(run_solver(sys.argv[1]).status, *[s.pid for s in _SERVERS._idle])\n"
        )
        done = subprocess.run(
            [sys.executable, "-c", probe, script_file],
            capture_output=True, text=True, timeout=60,
            env={**os.environ, "PYTHONPATH": src},
        )
        status, *pids = done.stdout.split()
        assert status == "sat", done.stderr
        assert pids
        assert not [pid for pid in map(int, pids) if alive(pid)]

    def test_closing_the_pool_ends_the_idle_child(self, server):
        child = idle_child(server)
        _SERVERS.close()
        wait_until_ended([server, child])

    def test_a_killed_server_leaves_no_idle_child(self, server):
        child = idle_child(server)
        os.kill(server, signal.SIGKILL)
        try:
            wait_until_ended([child])
        finally:
            _SERVERS.close()  # reaps the killed server

    def test_a_killed_idle_caller_leaves_no_server_or_child(self, script_file):
        src = str(Path(solver.__file__).resolve().parents[1])
        caller = (
            "import sys, time\n"
            "from tracecheck.solver import _SERVERS, run_solver\n"
            "run_solver(sys.argv[1])\n"
            "print(_SERVERS._idle[-1].pid, flush=True)\n"
            "time.sleep(60)\n"
        )
        proc = subprocess.Popen(
            [sys.executable, "-c", caller, script_file],
            stdout=subprocess.PIPE, text=True,
            env={**os.environ, "PYTHONPATH": src},
        )
        server, children = int(proc.stdout.readline()), []
        try:
            children = [idle_child(server)]
            proc.kill()
            proc.wait()
            wait_until_ended([server, *children])
        finally:
            proc.kill()
            proc.wait()
            proc.stdout.close()
            for pid in [server, *children]:
                if running(pid):
                    os.kill(pid, signal.SIGKILL)

    @pytest.mark.parametrize("route", ["default", "command"])
    def test_a_dead_caller_ends_its_solve(self, tmp_path, route):
        slow = tmp_path / "slow.smt2"
        slow.write_text(SLOW_SCRIPT)
        solver_pid = tmp_path / "solver.pid"
        cmd = DEFAULT_SOLVER_CMD
        if route == "command":
            cmd = make_stub(tmp_path, f"echo $$ > {solver_pid}\nexec sleep 20\n")
        src = str(Path(solver.__file__).resolve().parents[1])
        caller = (
            "import sys\n"
            "from tracecheck.solver import _SERVERS, run_solver\n"
            "server = _SERVERS._start()\n"
            "_SERVERS._idle.append(server)\n"
            "print(server.pid, flush=True)\n"
            "run_solver(sys.argv[1], cmd=sys.argv[2], timeout_s=30)\n"
        )
        proc = subprocess.Popen(
            [sys.executable, "-c", caller, str(slow), cmd],
            stdout=subprocess.PIPE, text=True,
            env={**os.environ, "PYTHONPATH": src},
        )
        server, children = int(proc.stdout.readline()), []
        try:
            time.sleep(0.5)
            children = children_of(server)
            if route == "command":
                children.append(int(solver_pid.read_text()))
            proc.kill()
            proc.wait()
            assert children, "no child was forked for the script"
            wait_until_ended([server, *children])
        finally:
            proc.stdout.close()
            for pid in [server, *children]:
                if running(pid):
                    os.kill(pid, signal.SIGKILL)
