"""Shared fixtures: the worked-example trace and its property texts, and a
session check that no solver server or child outlives the tests."""

import os
import time
from fractions import Fraction
from pathlib import Path

import pytest

from tracecheck.solver import _SERVERS
from tracecheck.trace import Record, Trace

# The running example: a satellite attitude trace with a mode switch and an
# angular-rate drop after it.  Used throughout the tests as "fig trace".
FIG_TIMES = ["0", "0.2", "0.9", "1.8", "3.0", "4.9", "5.7"]
FIG_ANG_RATE = ["20.1", "22.2", "23.3", "20.4", "21.1", "3.2", "1.1"]
FIG_MODE = ["0", "1", "0", "0", "3", "3", "3"]

FIG_CSV = "timestamp,ang-rate,mode\n" + "\n".join(
    f"{t},{a},{m}" for t, a, m in zip(FIG_TIMES, FIG_ANG_RATE, FIG_MODE)
) + "\n"

# R1: after every mode switch 0 -> 3, the angular rate must drop below 1.5
# within 10 seconds of the switch index's timestamp.
R1_TEXT = (
    "forall σ0 in [0,5] such that "
    "((mode @i σ0) = 0 and (mode @i (σ0 + 1)) = 3) implies "
    "exists τ0 in [0,10] such that (ang-rate @t (τ0 + i2t(σ0))) < 1.5"
)

SIGMA_EXAMPLE_TEXT = "exists σ0 in [3,5] such that (ang-rate @i σ0) < 2.5"


def make_fig_trace() -> Trace:
    records = tuple(
        Record(timestamp=Fraction(t), values={"ang-rate": Fraction(a), "mode": Fraction(m)})
        for t, a, m in zip(FIG_TIMES, FIG_ANG_RATE, FIG_MODE)
    )
    return Trace(records=records, signals=("ang-rate", "mode"))


@pytest.fixture
def fig_trace() -> Trace:
    return make_fig_trace()


@pytest.fixture
def fig_csv_path(tmp_path):
    p = tmp_path / "fig.csv"
    p.write_text(FIG_CSV, encoding="utf-8")
    return p


def children_of(pid):
    """Pids whose parent is `pid`, read from /proc."""
    found = []
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            line = (entry / "stat").read_text()
        except OSError:  # the process ended meanwhile
            continue
        # the command name in parentheses may hold spaces; the ppid follows the state
        if int(line.rsplit(")", 1)[1].split()[1]) == pid:
            found.append(int(entry.name))
    return found


def running(pid):
    """Whether `pid` exists and is not a zombie waiting for a reaper."""
    try:
        line = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return False
    return line.rsplit(")", 1)[1].split()[0] != "Z"


def wait_until_ended(pids, within_s=5):
    """Wait until none of `pids` is running, then assert that none is."""
    deadline = time.monotonic() + within_s
    while time.monotonic() < deadline and any(map(running, pids)):
        time.sleep(0.05)
    assert not [pid for pid in pids if running(pid)]


@pytest.fixture(scope="session", autouse=True)
def no_process_outlives_the_tests():
    """Close the solver servers after the last test, then fail if any child
    of this process, or any child of one, is still running."""
    yield
    mine = children_of(os.getpid())
    left = {*mine, *(child for pid in mine for child in children_of(pid))}
    _SERVERS.close()
    wait_until_ended(left | set(children_of(os.getpid())))


# Filled by test_acceptance.py; printed once per criterion after the run.
CRITERIA = {}


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if CRITERIA:
        terminalreporter.section("acceptance criteria")
        for n in sorted(CRITERIA):
            terminalreporter.write_line(f"CRITERION {n}: {CRITERIA[n]}")
