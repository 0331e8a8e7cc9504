"""One fresh-process set-up measurement: import qflag and build the flag
contexts of a workload, then print the seconds taken.

    python3 perfbench/setup_probe.py <workload>

Interpreter start-up and the benchmark's own imports are not counted.
"""

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

t0 = time.perf_counter()
import qflag.report  # noqa: E402,F401  (the import is what is timed)
t1 = time.perf_counter()

from workloads import WORKLOADS, load_qflag  # noqa: E402

load_qflag()
t2 = time.perf_counter()
WORKLOADS[sys.argv[1]].build_contexts()
t3 = time.perf_counter()
print(repr((t1 - t0) + (t3 - t2)))
