"""Self-test of the benchmark at tiny sizes (under a minute on two cores).

    python3 perfbench/selftest.py

Checks that every workload emits exactly the metrics BENCHMARK.json
declares, with their units, in both modes; that the correctness gate
trips on a corrupted reference digest; and that the benchmark fails
without printing a result when the checkout holds no vqopt sources.
Exits non-zero on the first failed check.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN = HERE / "run.py"
TIMEOUT_S = 180


def bench(*args: str, cwd: Path = ROOT, run: Path = RUN) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(run), *args], cwd=cwd, capture_output=True,
                          text=True, timeout=TIMEOUT_S)


def result_line(proc: subprocess.CompletedProcess) -> dict:
    return json.loads(proc.stdout.strip().splitlines()[-1])


def expect(ok: bool, what: str, proc: subprocess.CompletedProcess | None = None) -> None:
    if not ok:
        detail = f"\n--- stderr ---\n{proc.stderr[-3000:]}" if proc is not None else ""
        raise SystemExit(f"FAIL: {what}{detail}")
    print(f"ok: {what}")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seed = json.loads((HERE / "reference.json").read_text())["default_seed"]
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import workloads

    expect([w["name"] for w in spec["workloads"]] == list(workloads.NAMES),
           "BENCHMARK.json lists the benchmark's workloads in order")
    tiny = ["--seed", str(seed), "--seconds", "0.5", "--scale", "tiny"]
    for name in workloads.NAMES:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            proc = bench("--workload", name, "--trace", str(trace), *tiny)
            expect(proc.returncode == 0, f"{name} --trace {trace} exits 0", proc)
            out = result_line(proc)
            expect(set(out) == {"correct", "attempted", "failed", "metrics"}
                   and out["correct"] and out["failed"] == 0 and out["attempted"] >= 1,
                   f"{name} --trace {trace} passes its checks", proc)
            declared = {m["name"]: m["unit"] for m in spec[key]}
            emitted = {k: v["unit"] for k, v in out["metrics"].items()}
            expect(emitted == declared, f"{name} --trace {trace} emits every {key} metric "
                   "with its unit")
            expect(all(isinstance(v["value"], (int, float)) and math.isfinite(v["value"])
                       for v in out["metrics"].values()), f"{name} --trace {trace} values "
                   "are finite numbers")

    work = ROOT / ".perfbench_work" / f"selftest-{os.getpid()}"
    try:
        ref = json.loads((HERE / "reference.json").read_text())
        ref["digests"]["tiny"]["vqe-ideal"] = "0" * 64
        work.mkdir(parents=True)
        corrupt = work / "reference.json"
        corrupt.write_text(json.dumps(ref))
        proc = bench("--workload", "vqe-ideal", "--reference", str(corrupt), *tiny)
        out = result_line(proc)
        expect(proc.returncode != 0 and not out["correct"]
               and out["failed"] == out["attempted"] > 0,
               "a corrupted reference digest fails every operation and exits non-zero", proc)

        bare = work / "bare"
        bare.mkdir()
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / HERE.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = bench("--workload", "vqe-ideal", "--seed", str(seed), "--seconds", "1",
                     "--trace", "0", cwd=bare, run=bare / HERE.name / RUN.name)
        expect(proc.returncode != 0 and not proc.stdout.strip(),
               "without vqopt sources it exits non-zero and prints no result", proc)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # a benchmark run is still using it
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
