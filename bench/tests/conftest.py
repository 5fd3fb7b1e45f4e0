"""Put the benchmark's modules and the program's source on the path.

Run from the repository root with ``python -m pytest bench/tests -q``.
"""

import os
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

# compiles in these tests must not touch the user's artifact cache
os.environ["REPRO_CACHE"] = "0"
