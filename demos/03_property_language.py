"""
The property language
=====================

Properties quantify over three kinds of things: timestamps (tau
variables, ranging over an interval of the recorded time span), record
indices (sigma variables, integers), and plain reals (rho variables).
Signals are read at an index with `@i` or at a timestamp with `@t`, and
`i2t` / `t2i` convert between the two axes through the trace.
"""

from tracecheck.syntax import format_formula, load_property, parse

# The running example: after a mode switch from 0 to 3, the angular rate
# must drop below 1.5 within ten seconds.
R1 = (
    "forall sigma0 in [0,5] such that "
    "((mode @i sigma0) = 0 and (mode @i (sigma0 + 1)) = 3) implies "
    "exists tau0 in [0,10] such that (ang-rate @t (tau0 + i2t(sigma0))) < 1.5"
)

f = parse(R1, ("ang-rate", "mode"))
print(format_formula(f))

# Sorts are inferred from use; the parser rejects ill-sorted mixes.
print(type(f).__name__, f.var, f.var_sort)

try:
    parse("exists tau0 in [0,1] such that tau0 < (mode @i tau0)", ("mode",))
except Exception as exc:
    print("rejected:", exc)

# Property files can pin their own signature with `signal` lines, so they
# can be validated before any trace exists.
text = """\
# does the speed ever exceed 100?
signal spd : real
exists tau0 in [0, 60] such that (spd @t tau0) > 100
"""
formula, signature, declared = load_property(text)
print("signature:", sorted(signature), "declared:", declared)

# The printer fully parenthesizes, and its output parses back to the same
# tree.
print(format_formula(formula))
assert parse(format_formula(formula), signature) == formula
