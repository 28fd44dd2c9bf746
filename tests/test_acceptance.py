"""Acceptance gate: nine criteria, one CRITERION line each in the summary.

Numeric assertions are exact (the toolkit computes in rationals), so the
only pinned tolerances are the wall-clock budgets below.  The random
corpus is fully seeded; a verdict disagreement on it is a release
blocker, not a flake.
"""

import contextlib
import random
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import List

import pytest

import conftest
from genrand import pair
from tracecheck.cli import main
from tracecheck.pipeline import CheckOptions, check_pair, load_inputs, preprocess_for
from tracecheck.preprocess import PreprocessConfig, apply_a1, apply_a2
from tracecheck.semantics import check_direct
from tracecheck.smt import translate
from tracecheck.solver import SolverOutcome, Verdict, run_solver, verdict_of
from tracecheck.syntax import (
    And,
    AtIndex,
    AtTime,
    Exists,
    Forall,
    Implies,
    Lit,
    Not,
    Rel,
    Sort,
    Var,
    format_formula,
    parse,
)
from tracecheck.trace import Fixed, format_rational, iota_fixed, iota_variable

from conftest import FIG_CSV, R1_TEXT, SIGMA_EXAMPLE_TEXT, make_fig_trace

IOTA_SWEEP_BUDGET_S = 1.0
R1_END_TO_END_BUDGET_S = 10.0
CORPUS_BUDGET_S = 900.0
SCALE_BUDGET_S = 60.0
DIRECT_SCALE_BUDGET_S = 5.0

CORPUS_SIZE = 500
CORPUS_SEED_BASE = 0
DEFINITIVE_FLOOR = 450  # pairs where both routes must reach a verdict
IOTA_SAMPLES = 100
IOTA_SAMPLE_SEED = 20260819


@contextlib.contextmanager
def criterion(n):
    try:
        yield
    except BaseException:
        conftest.CRITERIA[n] = "FAIL"
        raise
    conftest.CRITERIA[n] = "PASS"


# ---------------------------------------------------------------------------
# Shared random corpus (criteria 3 and 4)
# ---------------------------------------------------------------------------

@dataclass
class CorpusResult:
    seed: int
    text: str
    oracle: Verdict
    status_negated: str  # solver status on the checking script (negated property)
    status_plain: str    # solver status on the un-negated property


@dataclass
class CorpusRun:
    results: List[CorpusResult]
    elapsed_s: float


WIRE = {"unsat": "satisfied", "sat": "violated", "unknown": "unknown"}
DEFINITIVE = (Verdict.SATISFIED, Verdict.VIOLATED)


@pytest.fixture(scope="module")
def corpus(tmp_path_factory) -> CorpusRun:
    """The corpus, run once per module; its scripts go to a pytest temp
    directory, which pytest prunes."""
    base = tmp_path_factory.mktemp("corpus")
    started = time.perf_counter()
    results = []
    for k in range(CORPUS_SIZE):
        trace, formula, text = pair(CORPUS_SEED_BASE + k)
        oracle = check_direct(trace, formula)
        neg_path = base / f"{k}_neg.smt2"
        neg_path.write_text(translate(trace, formula, negate=True).text)
        pos_path = base / f"{k}_pos.smt2"
        pos_path.write_text(translate(trace, formula, negate=False).text)
        results.append(
            CorpusResult(
                seed=CORPUS_SEED_BASE + k,
                text=text,
                oracle=oracle.verdict,
                status_negated=run_solver(str(neg_path)).status,
                status_plain=run_solver(str(pos_path)).status,
            )
        )
    return CorpusRun(results, time.perf_counter() - started)


# ---------------------------------------------------------------------------
# Criteria
# ---------------------------------------------------------------------------

def test_criterion_1_iota_point_check():
    with criterion(1):
        started = time.perf_counter()
        fig = make_fig_trace()
        assert iota_variable(fig, Fraction("2.5")) == 3
        for j in range(fig.last_index):
            a, b = fig.timestamps[j], fig.timestamps[j + 1]
            assert iota_variable(fig, a) == j
            assert iota_variable(fig, (a + b) / 2) == j
        assert iota_variable(fig, fig.tm) == fig.last_index
        assert time.perf_counter() - started < IOTA_SWEEP_BUDGET_S


def test_criterion_2_r1_end_to_end(tmp_path):
    with criterion(2):
        started = time.perf_counter()
        trace_path = tmp_path / "fig1.csv"
        trace_path.write_text(FIG_CSV)
        r1_path = tmp_path / "r1.prop"
        r1_path.write_text(R1_TEXT + "\n")
        not_path = tmp_path / "notr1.prop"
        not_path.write_text("not (" + R1_TEXT + ")\n")

        row = check_pair(trace_path, r1_path, CheckOptions(oracle=True), tmp_path / "a.smt2")
        assert row.verdict == "satisfied"
        assert row.oracle_verdict == "satisfied"

        fig = make_fig_trace()
        r1 = parse(R1_TEXT, fig.signals)
        assert check_direct(fig, r1).verdict is Verdict.SATISFIED

        row_neg = check_pair(trace_path, not_path, CheckOptions(), tmp_path / "b.smt2")
        assert row_neg.verdict == "violated"
        assert check_direct(fig, Not(r1)).verdict is Verdict.VIOLATED
        assert time.perf_counter() - started < R1_END_TO_END_BUDGET_S


def test_criterion_3_differential_suite(corpus):
    with criterion(3):
        assert len(corpus.results) == CORPUS_SIZE
        disagreements = []
        both_definitive = 0
        for r in corpus.results:
            assert r.status_negated in WIRE, (
                f"seed {r.seed}: solver answered {r.status_negated!r}"
            )
            wire = WIRE[r.status_negated]
            if r.oracle in DEFINITIVE and wire in ("satisfied", "violated"):
                both_definitive += 1
                if r.oracle.value != wire:
                    disagreements.append((r.seed, r.text, r.oracle.value, wire))
        assert disagreements == [], f"release blocker: {disagreements[:5]}"
        assert both_definitive >= DEFINITIVE_FLOOR
        assert corpus.elapsed_s < CORPUS_BUDGET_S


def test_criterion_4_exclusivity(corpus):
    with criterion(4):
        for r in corpus.results:
            assert not (r.status_negated == "unsat" and r.status_plain == "unsat"), (
                f"both translations unsat for seed {r.seed}: {r.text}"
            )
            if r.oracle in DEFINITIVE:
                assert not (r.status_negated == "sat" and r.status_plain == "sat"), (
                    f"both translations sat on oracle fragment, seed {r.seed}: {r.text}"
                )


def test_criterion_5_iota_encoding_soundness(tmp_path):
    with criterion(5):
        fig = make_fig_trace()
        grid = apply_a2(fig, PreprocessConfig())
        rng = random.Random(IOTA_SAMPLE_SEED)
        fixtures = (
            ("variable", fig, "variable", lambda t: iota_variable(fig, t)),
            ("fixed", grid, "fixed", lambda t: iota_fixed(grid.rate.sr, t)),
        )
        for name, trace, mode, concrete in fixtures:
            lo, hi = int(trace.t0 * 10), int(trace.tm * 10)
            for i in range(IOTA_SAMPLES):
                t = Fraction(rng.randint(lo, hi), 10)
                f = parse(f"t2i({format_rational(t)}) != {concrete(t)}", trace.signals)
                script = translate(trace, f, mode=mode, negate=False)
                path = tmp_path / f"{name}_{i}.smt2"
                path.write_text(script.text)
                outcome = run_solver(str(path))
                assert outcome.status == "unsat", (name, str(t), outcome.status)


def test_criterion_6_preprocessing():
    with criterion(6):
        fig = make_fig_trace()
        a2 = apply_a2(fig, PreprocessConfig())
        assert isinstance(a2.rate, Fixed)
        assert a2.rate.sr == Fraction(1, 5)  # the minimum timestamp gap, 0.2
        a1 = apply_a1(fig, PreprocessConfig(strategy="A1"))
        assert len(a1) == len(fig)
        for rec, orig in zip(a1.records, fig.records):
            assert rec.timestamp == orig.timestamp
            for signal, value in orig.values.items():
                assert rec.values[signal] == value


def test_criterion_7_parser_identity():
    with criterion(7):
        for seed in range(1000):
            trace, formula, _ = pair(seed)
            assert parse(format_formula(formula), trace.signals) == formula

        sigma = parse(SIGMA_EXAMPLE_TEXT, ("ang-rate", "mode"))
        assert isinstance(sigma, Exists)
        assert sigma.var_sort is Sort.INDEX
        assert (sigma.interval.lo, sigma.interval.hi) == (3, 5)
        assert isinstance(sigma.body, Rel) and sigma.body.op == "<"
        assert sigma.body.left == AtIndex("ang-rate", Var("sigma0", Sort.INDEX)) or isinstance(
            sigma.body.left, AtIndex
        )
        assert sigma.body.right == Lit(Fraction("2.5"), Sort.VALUE)

        r1 = parse(R1_TEXT, ("ang-rate", "mode"))
        assert isinstance(r1, Forall)
        assert r1.var_sort is Sort.INDEX
        assert isinstance(r1.body, Implies)
        guard = r1.body.left
        assert isinstance(guard, And)
        assert isinstance(guard.left, Rel) and guard.left.op == "="
        assert isinstance(guard.left.left, AtIndex) and guard.left.left.signal == "mode"
        inner = r1.body.right
        assert isinstance(inner, Exists) and inner.var_sort is Sort.TIME
        assert isinstance(inner.body, Rel) and inner.body.op == "<"
        assert isinstance(inner.body.left, AtTime) and inner.body.left.signal == "ang-rate"


def test_criterion_8_verdict_mapping():
    with criterion(8):
        wanted = {
            "unsat": Verdict.SATISFIED,
            "sat": Verdict.VIOLATED,
            "unknown": Verdict.UNKNOWN,
            "timeout": Verdict.INCONCLUSIVE,
            "resource": Verdict.INCONCLUSIVE,
            "error": Verdict.INCONCLUSIVE,
        }
        for status, want in wanted.items():
            verdict, _ = verdict_of(SolverOutcome(status=status, detail="d"))
            assert verdict is want


def test_criterion_9_scale_smoke(tmp_path, capsys):
    with criterion(9):
        # 10,000-record fixed-rate trace; settle property with two quantifiers
        lines = ["timestamp,mode,spd"]
        for j in range(10_000):
            t = Fraction(j, 100)
            mode = 1 if (j % 500 == 0 and j <= 9000) else 0
            spd = Fraction(4, 10) if (j % 500 == 50 and j <= 9050) else Fraction(1)
            lines.append(f"{format_rational(t)},{mode},{format_rational(spd)}")
        big = tmp_path / "big.csv"
        big.write_text("\n".join(lines) + "\n")
        settle = tmp_path / "settle.prop"
        settle.write_text(
            "forall sigma0 in [0, 9998] such that ((mode @i sigma0) = 1) implies "
            "(exists tau0 in [0.0, 1.0] such that ((spd @t (tau0 + i2t(sigma0))) < 0.5))\n"
        )
        started = time.perf_counter()
        row = check_pair(big, settle, CheckOptions(oracle=True), tmp_path / "big.smt2")
        elapsed = time.perf_counter() - started
        assert (row.verdict, row.oracle_verdict) == ("satisfied", "satisfied")
        assert elapsed < SCALE_BUDGET_S
        trace, formula = load_inputs(big, settle)
        _, pre = preprocess_for(trace, formula, PreprocessConfig())
        started = time.perf_counter()
        assert check_direct(pre, formula).verdict is Verdict.SATISFIED
        assert time.perf_counter() - started < DIRECT_SCALE_BUDGET_S

        # 60,000-record variable-rate trace: the expansion cap must refuse
        lines = ["timestamp,spd"]
        t = Fraction(0)
        for j in range(60_000):
            lines.append(f"{format_rational(t)},1")
            t += Fraction(1, 10) if j % 2 == 0 else Fraction(2, 10)
        huge = tmp_path / "huge.csv"
        huge.write_text("\n".join(lines) + "\n")
        attime = tmp_path / "attime.prop"
        attime.write_text("exists tau0 in [0, 1] such that (spd @t tau0) < 0.5\n")
        code = main(
            ["check", str(huge), str(attime), "--strategy", "A1", "--out", str(tmp_path / "o")]
        )
        err = capsys.readouterr().err
        assert code == 4
        assert "error at translate:" in err
        assert "cap" in err
