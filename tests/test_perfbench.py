"""The benchmark's self-test, run as part of the unit suite.

``perfbench/tracing.py`` patches module attributes of the package
(``optimizer.cost``, ``optimizer.energy_table``, ``optimizer.run``,
``estimator.cost``, ``estimator.prepare_state``, ``MinimumTracker.observe``,
...).  Renaming or dropping one of them breaks ``perfbench/run.py --trace 1``
without failing any other test, so the self-test runs here.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_perfbench_selftest_passes():
    proc = subprocess.run([sys.executable, str(ROOT / "perfbench" / "selftest.py")], cwd=ROOT,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
