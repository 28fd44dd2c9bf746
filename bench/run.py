"""tracecheck benchmark: one workload, one run, one JSON line.

Run from the root of a checkout:

    python3 bench/run.py --workload corpus|settle|irregular --seed N \
        --seconds S --trace 0|1

The last line of stdout is a JSON object with the keys correct, attempted,
failed and metrics: the end-to-end metrics with --trace 0, the per-layer
metrics with --trace 1.  bench/NOTES.md says what each workload is for.
"""

import os
import shutil
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
TESTS = ROOT / "tests"
LAUNCHER = BENCH / "bin" / "tracecheck-solve"


def bootstrap() -> None:
    """Use this checkout's src/ and make `tracecheck-solve` resolve to bench/bin only.

    Exits with an error when the checkout lacks the sources the benchmark
    measures, so a copy of bench/ alone can never print a result.
    """
    needed = [SRC / "tracecheck" / "__init__.py", TESTS / "genrand.py", TESTS / "conftest.py"]
    missing = [str(p.relative_to(ROOT)) for p in needed if not p.is_file()]
    if missing:
        sys.exit(f"bench/run.py: not a tracecheck checkout, missing {', '.join(missing)}")
    sys.path[:0] = [str(SRC), str(TESTS)]
    os.environ["PATH"] = str(LAUNCHER.parent) + os.pathsep + os.environ.get("PATH", "")
    os.environ["TRACECHECK_BENCH_PYTHON"] = sys.executable
    found = shutil.which("tracecheck-solve")
    if found is None or Path(found).resolve() != LAUNCHER:
        sys.exit(f"bench/run.py: tracecheck-solve resolves to {found}, not {LAUNCHER}")
    import tracecheck

    if Path(tracecheck.__file__).resolve().parent != SRC / "tracecheck":
        sys.exit(f"bench/run.py: imported tracecheck from {tracecheck.__file__}")


if __name__ == "__main__":
    bootstrap()
    import harness

    sys.exit(harness.main())
