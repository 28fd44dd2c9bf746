"""
Loading traces and mapping timestamps to record indices
=======================================================

A trace is a CSV file: a `timestamp` column plus one column per signal.
Cells may be empty (the signal simply was not sampled at that moment).
"""

from fractions import Fraction

from tracecheck import load_trace, iota_variable

CSV = """\
timestamp,ang-rate,mode
0,20.1,0
0.2,22.2,1
0.9,23.3,0
1.8,20.4,0
3.0,21.1,3
4.9,3.2,3
5.7,1.1,3
"""

trace = load_trace(CSV)
print(f"{len(trace)} records, signals {trace.signals}, rate {trace.rate}")

# Nothing is rounded on the way in.  The timestamps are integer ticks over
# one denominator (here 10, for one digit after the point), and each record
# reads back as an exact rational timestamp and exact values.
print(f"ticks {trace.ticks[:3]} over {trace.den}")
for j, rec in enumerate(trace.records[:3]):
    print(j, rec.timestamp, dict(rec.values))

# iota maps a timestamp to the index of the latest record at or before it.
# At t=2.5 the latest record is the one taken at 1.8, which is index 3.
print(f"iota(2.5) = {iota_variable(trace, Fraction('2.5'))}")

# Exactly on a record timestamp, iota returns that record.
print(f"iota(0.9) = {iota_variable(trace, Fraction('0.9'))}")
