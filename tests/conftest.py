"""Shared fixtures: the worked-example trace and its property texts."""

from fractions import Fraction

import pytest

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


# Filled by test_acceptance.py; printed once per criterion after the run.
CRITERIA = {}


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if CRITERIA:
        terminalreporter.section("acceptance criteria")
        for n in sorted(CRITERIA):
            terminalreporter.write_line(f"CRITERION {n}: {CRITERIA[n]}")
