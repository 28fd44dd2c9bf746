"""Regenerate the `corpus` section of bench/expected.json.

This script checks every corpus pair (R1, not R1 and the genrand pairs)
through `run_batch` with the direct-evaluation cross-check on, and records
both routes' verdicts.  It refuses to write when a pair fails a stage or the
routes disagree, so the file only holds verdicts both routes stand behind.

    python3 bench/make_expected.py
"""

import json
import shutil
import sys
import tempfile
from pathlib import Path

from run import bootstrap

if __name__ == "__main__":
    bootstrap()
    import harness
    import workloads
    from tracecheck.pipeline import run_batch

    harness.WORK.mkdir(exist_ok=True)
    out = Path(tempfile.mkdtemp(prefix="expected-", dir=harness.WORK))
    try:
        wl = workloads.build("corpus", out, 0, "full")
        rows = run_batch(wl.manifest, wl.options, out / "out", jobs=harness.JOBS)
    finally:
        shutil.rmtree(out, ignore_errors=True)
    errors = [f"{r.id}: {r.reason}" for r in rows if r.verdict == "inconclusive" and not r.solver_status]
    if errors:
        sys.exit("stage errors:\n" + "\n".join(errors))
    expected = json.loads(harness.EXPECTED.read_text())
    expected["corpus"] = {r.id: [r.verdict, r.oracle_verdict] for r in rows}
    harness.EXPECTED.write_text(
        "{\n"
        + ",\n".join(
            f" {json.dumps(name)}: {{\n"
            + ",\n".join(f"  {json.dumps(k)}: {json.dumps(v)}" for k, v in sorted(section.items()))
            + "\n }"
            for name, section in sorted(expected.items())
        )
        + "\n}\n"
    )
    tally = {}
    for r in rows:
        key = f"{r.verdict}/{r.oracle_verdict}"
        tally[key] = tally.get(key, 0) + 1
    print(json.dumps(tally, sort_keys=True))
