"""SMT solver invocation and verdict mapping.

A property holds on a trace exactly when the script encoding the negated
property together with the trace assertions is unsatisfiable, so `unsat`
maps to satisfied and `sat` to violated.  Every script runs in a fresh
process under a wall-clock timeout and an address-space cap; timeouts and
resource exhaustion are reported as inconclusive rather than as answers.

Every command takes one route.  Long-lived `tracecheck.shim.serve`
processes, started with the current interpreter, one per calling thread at
most, hand each script to one forked child.  A server warms its evaluator
up once and forks each child ahead of its request, while the caller is
still preparing the script, so a call costs neither an interpreter start
nor, mostly, the fork.  For the default command, `tracecheck-solve`, the
child runs the bundled evaluator; any other command `CMD` replaces the
child as `CMD <script>`, in the caller's working directory and environment
at the time of the call.  Either way the child has its own session and
address-space cap, is killed with its process group at the deadline or when
the caller hangs up, and what it prints goes to one classifier.
"""

from __future__ import annotations

import atexit
import enum
import json
import os
import resource
import select
import shlex
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, replace
from typing import List, Optional, Sequence, Tuple, Union


class Verdict(enum.Enum):
    SATISFIED = "satisfied"
    VIOLATED = "violated"
    UNKNOWN = "unknown"
    INCONCLUSIVE = "inconclusive"


DEFAULT_SOLVER_CMD = "tracecheck-solve"
DEFAULT_TIMEOUT_S = 3600.0
DEFAULT_MEM_MB = 4096

# the directory that holds this `tracecheck` package
_PACKAGE_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# `tracecheck.shim.serve` with that directory first on sys.path, so that the
# server runs in the caller's environment whatever its PYTHONPATH holds
_SERVE = (
    f"import sys; sys.path.insert(0, {_PACKAGE_ROOT!r}); "
    "from tracecheck.shim import serve; sys.exit(serve())"
)

# stderr fragments that identify resource exhaustion inside the solver
_RESOURCE_PATTERNS = (
    ("max. recursion depth exceeded", "max-depth"),
    ("out of memory", "out-of-memory"),
)

# an exit code, or TIMEOUT / HANGUP when the deadline / a hang-up killed the process
ExitCode = Union[int, str]
TIMEOUT = "timeout"
HANGUP = "hangup"


@dataclass(frozen=True)
class SolverOutcome:
    """Raw result of one solver run."""

    status: str  # 'sat' | 'unsat' | 'unknown' | 'timeout' | 'resource' | 'error'
    detail: str = ""
    model: str = ""
    elapsed_s: float = 0.0
    max_rss_mb: float = 0.0  # peak resident set of the process that ran the script


class SolverUnavailable(Exception):
    """The solver could not be started or gave no reply at all."""


def limit_address_space(mem_mb: int) -> None:
    """Cap this process's address space at `mem_mb` MiB, best effort."""
    cap = mem_mb * 1024 * 1024
    try:
        resource.setrlimit(resource.RLIMIT_AS, (cap, cap))
    except (ValueError, OSError):
        pass  # caps above the hard limit are best effort


def drain(
    pid: int, fds: Sequence[int], timeout_s: float, hangup_fd: int
) -> Tuple[ExitCode, List[bytes], float]:
    """Read `fds` to EOF while child `pid` runs, for at most `timeout_s`, then reap it.

    When the deadline passes first, or `hangup_fd` hangs up (its writer is
    gone), the child's process group is killed before the child is reaped.
    Returns (exit code, or TIMEOUT or HANGUP, the bytes read from each fd,
    the child's peak resident set in MB).
    """
    deadline = time.monotonic() + timeout_s
    chunks = {fd: [] for fd in fds}
    poller = select.poll()
    for fd in fds:
        poller.register(fd, select.POLLIN)
    poller.register(hangup_fd, 0)  # poll reports a hang-up whatever the mask
    reading = len(fds)
    cut = None  # TIMEOUT or HANGUP once the wait is cut short
    while reading and cut is None:
        left = deadline - time.monotonic()
        if not left > 0:  # a NaN timeout too ends at once
            cut = TIMEOUT
            break
        # poll takes milliseconds in a C int: wait in slices of at most a minute
        for fd, _ in poller.poll(min(left, 60.0) * 1000):
            if fd == hangup_fd:
                cut = HANGUP
                break
            data = os.read(fd, 1 << 16)
            if data:
                chunks[fd].append(data)
            else:
                poller.unregister(fd)
                reading -= 1
    if cut is not None:
        try:
            os.killpg(pid, signal.SIGKILL)
        except OSError:  # not yet its own group leader, or not ours to kill
            try:
                os.kill(pid, signal.SIGKILL)
            except OSError:
                pass
    _, status, usage = os.wait4(pid, 0)
    code = cut if cut is not None else os.waitstatus_to_exitcode(status)
    return code, [b"".join(chunks[fd]) for fd in fds], usage.ru_maxrss / 1024


class _ServerPool:
    """Idle `tracecheck.shim.serve` processes, shared by the threads of this process.

    A call takes an idle server or starts one, and puts it back after a
    complete reply, so N concurrent calls run at most N servers.  Servers
    left idle are closed and reaped when the interpreter exits.
    """

    def __init__(self):
        self._idle: List[subprocess.Popen] = []
        self._lock = threading.Lock()

    def _start(self) -> subprocess.Popen:
        try:
            return subprocess.Popen(
                [sys.executable, "-c", _SERVE],
                stdin=subprocess.PIPE,
                stdout=subprocess.PIPE,
                text=True,
                start_new_session=True,
            )
        except OSError as exc:
            raise SolverUnavailable(f"could not start solver: {exc}") from None

    def ask(self, argv: Optional[List[str]], script_path: str, timeout_s: float, mem_mb: int):
        """One script through a server: (code, stdout, stderr, max_rss_mb).

        `argv` is the command to run on the script, None for the bundled
        evaluator.  A command gets this process's environment as it is now.
        """
        with self._lock:
            server = self._idle.pop() if self._idle else None
        if server is None:
            server = self._start()
        env = None if argv is None else dict(os.environ)
        try:
            cwd = os.getcwd()
        except FileNotFoundError:  # this directory was deleted: run in the server's
            cwd = "."
        request = json.dumps([argv, env, cwd, timeout_s, mem_mb, script_path])
        try:
            server.stdin.write(request + "\n")
            server.stdin.flush()
            reply = json.loads(server.stdout.readline())
        except (OSError, ValueError):
            _stop(server)
            raise SolverUnavailable("solver server ended without a reply") from None
        with self._lock:
            self._idle.append(server)
        return reply["code"], reply["stdout"], reply["stderr"], reply["max_rss_mb"]

    def close(self) -> None:
        """Close every idle server and reap it."""
        with self._lock:
            idle, self._idle = self._idle, []
        for server in idle:
            _stop(server)


def _stop(server: subprocess.Popen) -> None:
    """End a server: EOF on its stdin, then a kill if it does not exit promptly."""
    try:
        server.stdin.close()
    except OSError:
        pass
    try:
        server.wait(timeout=5)
    except subprocess.TimeoutExpired:
        server.kill()
        server.wait()
    server.stdout.close()


_SERVERS = _ServerPool()
atexit.register(_SERVERS.close)


def _classify(stdout: str, stderr: str, code: int, elapsed: float) -> SolverOutcome:
    """Map what a finished solver printed to an outcome."""
    status_token = ""
    model = ""
    pos = 0
    for line in stdout.splitlines(keepends=True):
        pos += len(line)
        token = line.strip()
        if token:
            status_token = token.split()[0]
            model = stdout[pos:].strip()
            break

    if status_token in ("sat", "unsat"):
        return SolverOutcome(status_token, model=model, elapsed_s=elapsed)
    for pattern, kind in _RESOURCE_PATTERNS:
        if pattern in stderr:
            return SolverOutcome("resource", detail=kind, elapsed_s=elapsed)
    if status_token == "unknown":
        return SolverOutcome("unknown", model=model, elapsed_s=elapsed)
    detail = stderr.strip() or f"no sat/unsat/unknown on stdout (exit {code})"
    return SolverOutcome("error", detail=detail.splitlines()[0], elapsed_s=elapsed)


def run_solver(
    script_path: str,
    cmd: str = DEFAULT_SOLVER_CMD,
    timeout_s: float = DEFAULT_TIMEOUT_S,
    mem_mb: int = DEFAULT_MEM_MB,
) -> SolverOutcome:
    """Run the solver on `script_path` and classify what came back."""
    started = time.monotonic()
    argv = None if cmd == DEFAULT_SOLVER_CMD else shlex.split(cmd)
    try:
        code, stdout, stderr, rss_mb = _SERVERS.ask(argv, str(script_path), timeout_s, mem_mb)
    except SolverUnavailable as exc:
        return SolverOutcome("error", detail=str(exc))
    elapsed = time.monotonic() - started
    if code == TIMEOUT:
        outcome = SolverOutcome("timeout", detail=f"solver exceeded {timeout_s:g}s", elapsed_s=elapsed)
    else:
        outcome = _classify(stdout, stderr, code, elapsed)
    return replace(outcome, max_rss_mb=rss_mb)


def verdict_of(outcome: SolverOutcome) -> tuple:
    """Map a run on the negated property to a verdict and a reason.

    unsat: no record assignment violates the property, so it is satisfied.
    sat: the model is a violation witness.  unknown stays unknown, and
    timeout/resource/error outcomes decide nothing.
    """
    if outcome.status == "unsat":
        return Verdict.SATISFIED, ""
    if outcome.status == "sat":
        return Verdict.VIOLATED, ""
    if outcome.status == "unknown":
        return Verdict.UNKNOWN, "solver returned unknown"
    if outcome.status == "timeout":
        return Verdict.INCONCLUSIVE, outcome.detail
    if outcome.status == "resource":
        return Verdict.INCONCLUSIVE, f"solver ran out of resources ({outcome.detail})"
    return Verdict.INCONCLUSIVE, outcome.detail or "solver failed"
