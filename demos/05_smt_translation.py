"""
Translating a check into an SMT-LIB script
==========================================

The solver route turns "does trace pi satisfy property phi" into a
satisfiability question: encode the trace as pinned arrays, encode the
NEGATED property over those arrays, and ask a solver.  UNSAT means no
violation exists (satisfied); SAT produces a witness (violated).
"""

from tracecheck import load_trace
from tracecheck.preprocess import PreprocessConfig, apply_a2
from tracecheck.smt import choose_iota_mode, translate
from tracecheck.syntax import parse

CSV = """\
timestamp,spd
0,1.0
0.3,2.0
0.7,0.4
1.5,0.2
"""

trace = load_trace(CSV)
f = parse("exists tau0 in [0, 1.5] such that (spd @t tau0) < 0.5", trace.signals)

# On a variable-rate trace the timestamp-to-index map becomes a balanced
# bisection tree of comparisons against the recorded timestamps, about
# log2 of the record count deep.
script = translate(trace, f, mode="variable")
print(script.text)
print("---")
print(
    f"{script.quantifier_count} quantifiers, {script.iota_ite_count} selector nodes,"
    f" {script.floor_count} floor terms"
)

# After resampling to a fixed rate the map is just a floor division,
# encoded as one (to_int ...) term per conversion - much smaller for long
# traces.
grid = apply_a2(trace, PreprocessConfig())
mode = choose_iota_mode(grid)
assert mode == "fixed"
script2 = translate(grid, f)
print(
    f"fixed-rate script: {script2.floor_count} floor terms,"
    f" {script2.iota_ite_count} selector nodes"
)
