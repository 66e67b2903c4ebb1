"""The benchmark's workloads: inputs made from a seed, one execution, output checks.

Each workload is a batch job run by one client that issues a sweep and
waits for it (a closed loop).  Inputs come only from the workload seed:
the sweep's master seed and the disordered instance seeds are drawn from
``numpy.random.default_rng(seed)``; sizes and grids are fixed per scale.
The ``tiny`` scale runs the same code paths at toy sizes for the self-test.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from vqopt import cli, experiment, ising, report
from vqopt.ansatz import FAMILY_QAOA, FAMILY_VQE
from vqopt.estimator import CostKind
from vqopt.experiment import InitSpec, ProblemSpec
from vqopt.optimizer import TrustRegionConfig
from vqopt.simulator import NoiseModel

CVAR_ALPHA = 0.25
TARGET = 0.25  # F_succ target of the optimal_calls search
NOISE = NoiseModel(t1_us=50.0, t2_us=70.0)


def _product(shots, iters):
    return [(m, n) for m in shots for n in iters]


SCALES = {
    "full": {
        "vqe-ideal": dict(kind="sweep", family=FAMILY_VQE, size=10, depth=2, instances=0,
                          grid=_product((16, 64, 256), (10, 30, 90)), reps=4, noisy=False),
        "vqe-noisy": dict(kind="sweep", family=FAMILY_VQE, size=8, depth=2, instances=0,
                          grid=_product((16, 64, 256), (10, 30, 90)), reps=3, noisy=True),
        "qaoa-ensemble": dict(kind="cli", family=FAMILY_QAOA, size=12, depth=2, instances=4,
                              grid=[(4, 270), (16, 90), (64, 30), (256, 10)], reps=2,
                              threads=2),
        "depth-large": dict(kind="depth", sizes=(16, 18, 20), depths=(2, 4, 8), instances=2,
                            shots=16, reps=300, dt=0.8),
    },
    "tiny": {
        "vqe-ideal": dict(kind="sweep", family=FAMILY_VQE, size=4, depth=1, instances=0,
                          grid=_product((4, 8), (2, 4)), reps=2, noisy=False),
        "vqe-noisy": dict(kind="sweep", family=FAMILY_VQE, size=4, depth=1, instances=0,
                          grid=_product((4, 8), (2, 4)), reps=2, noisy=True),
        "qaoa-ensemble": dict(kind="cli", family=FAMILY_QAOA, size=4, depth=1, instances=2,
                              grid=[(4, 6), (8, 3)], reps=2, threads=2),
        "depth-large": dict(kind="depth", sizes=(4, 5), depths=(1, 2), instances=2,
                            shots=4, reps=20, dt=0.8),
    },
}

NAMES = tuple(SCALES["full"])


@dataclass(frozen=True)
class Inputs:
    """Everything one workload run needs, generated from (name, seed, scale)."""

    name: str
    params: dict
    master_seed: int
    instance_seeds: tuple[int, ...]

    @property
    def threads(self) -> int:
        return self.params.get("threads", 1)

    def problem(self) -> ProblemSpec:
        p = self.params
        if p["instances"]:
            return ProblemSpec(p["family"], p["size"], p["depth"], kind=ising.DISORDERED,
                               instance_seeds=self.instance_seeds, init=InitSpec("random"))
        return ProblemSpec(p["family"], p["size"], p["depth"], init=InitSpec("random"))

    def sizes(self) -> tuple[int, ...]:
        return tuple(self.params.get("sizes", (self.params.get("size"),)))


def make_inputs(name: str, seed: int, scale: str = "full") -> Inputs:
    params = SCALES[scale][name]
    rng = np.random.default_rng(seed)
    master = int(rng.integers(2**31))
    seeds = rng.choice(2**31, size=params["instances"], replace=False)
    return Inputs(name, params, master, tuple(int(s) for s in seeds))


def build_instances(inp: Inputs) -> list[tuple[ising.IsingInstance, ising.GroundTruth]]:
    """The workload's instances with their exact ground truth (the set-up work)."""
    if inp.params["kind"] == "depth":
        instances = [ising.make_disordered(size, s)
                     for size in inp.sizes() for s in inp.instance_seeds]
    else:
        instances = inp.problem().instances()
    return [(inst, ising.brute_force_minimum(inst)) for inst in instances]


@dataclass
class Output:
    """What one execution produced, before it is checked."""

    results: list  # SweepResult or DepthSweepResult objects, or saved result files
    blob: bytes  # the bytes the digest covers
    reports: list[Path] = field(default_factory=list)


def execute(inp: Inputs, workdir: Path, threads: int) -> Output:
    """Run the workload once through the public API; this is the timed work."""
    kind = inp.params["kind"]
    if kind == "sweep":
        return _execute_sweep(inp, workdir)
    if kind == "cli":
        return _execute_cli(inp, workdir, threads)
    return _execute_depth(inp, workdir)


def _execute_sweep(inp: Inputs, workdir: Path) -> Output:
    p = inp.params
    result = experiment.success_sweep(
        inp.problem(), TrustRegionConfig(), CostKind(CVAR_ALPHA), p["grid"], p["reps"],
        inp.master_seed, threads=1, noise=NOISE if p["noisy"] else None,
    )
    best = experiment.optimal_calls(result, TARGET)
    reports = report.report_sweep(result, workdir / "report")
    blob = (json.dumps(result.to_json(), sort_keys=True) + "\n"
            + json.dumps(asdict(best), sort_keys=True) + "\n").encode()
    return Output([result], blob, reports)


def _execute_cli(inp: Inputs, workdir: Path, threads: int) -> Output:
    # The CLI's grid file is a shots x iters product, so the diagonal grid
    # runs as one sweep per cell; runs are keyed by (seed, instance, M, rep),
    # which makes this identical to a single sweep over the diagonal grid.
    p = inp.params
    workdir.mkdir(parents=True, exist_ok=True)
    spec = workdir / "spec.json"
    spec.write_text(json.dumps({**inp.problem().to_json(),
                                "optimizer": TrustRegionConfig().to_json(),
                                "cost_alpha": CVAR_ALPHA}))
    blob, reports, paths = b"", [], []
    for k, (shots, iters) in enumerate(p["grid"]):
        grid = workdir / f"grid{k}.json"
        grid.write_text(json.dumps({"shots": [shots], "iters": [iters]}))
        out = workdir / f"cell{k}"
        code = cli.dispatch(["sweep", "--spec", str(spec), "--grid", str(grid),
                             "--reps", str(p["reps"]), "--seed", str(inp.master_seed),
                             "--threads", str(threads), "--out", str(out)])
        if code != 0:
            raise RuntimeError(f"vqopt sweep exited with {code}")
        path = out / f"sweep_L{p['size']}.json"
        code = cli.dispatch(["report", "--in", str(path), "--out", str(out / "report")])
        if code != 0:
            raise RuntimeError(f"vqopt report exited with {code}")
        paths.append(path)
        reports += sorted((out / "report").iterdir())
    for path in paths:
        blob += path.read_bytes()
    return Output(paths, blob, reports)


def _execute_depth(inp: Inputs, workdir: Path) -> Output:
    p = inp.params
    result = experiment.depth_sweep(
        list(p["sizes"]), list(p["depths"]), p["dt"], p["shots"], p["reps"], inp.master_seed,
        kind=ising.DISORDERED, instance_seeds=inp.instance_seeds,
    )
    reports = report.report_depth_sweep(result, workdir / "report")
    blob = (json.dumps(result.to_json(), sort_keys=True) + "\n").encode()
    return Output([result], blob, reports)


@dataclass(frozen=True)
class Volume:
    """Work one execution represents: operations, optimization runs, shots."""

    ops: int  # runs, or (size, depth, instance) cells for depth-large
    runs: int
    shots: int


def volume(inp: Inputs) -> Volume:
    """Computed from the inputs, so a failed execution still counts what it attempted.

    A depth-sweep repetition is one M-shot measurement without optimization,
    which is what an ``n_iter = 0`` run of a success sweep does.
    """
    p = inp.params
    if p["kind"] == "depth":
        cells = len(p["sizes"]) * len(p["depths"]) * p["instances"]
        return Volume(cells, cells * p["reps"], cells * p["reps"] * p["shots"])
    n_inst = max(1, p["instances"])
    runs = len(p["grid"]) * p["reps"] * n_inst
    shots = sum(m * max(1, n) for m, n in p["grid"]) * p["reps"] * n_inst
    return Volume(runs, runs, shots)


def digest(out: Output) -> str:
    return hashlib.sha256(out.blob).hexdigest()


def check(inp: Inputs, out: Output) -> list[str]:
    """Invariants every seed must satisfy; returns the violations found."""
    p = inp.params
    errors = [f"report file {path} is missing or empty"
              for path in out.reports if not path.is_file() or path.stat().st_size == 0]
    if not out.reports:
        errors.append("no report files were written")
    if p["kind"] == "depth":
        (result,) = out.results
        expected = [(s, d) for s in p["sizes"] for d in p["depths"]]
        if [(c.size, c.depth) for c in result.cells] != expected:
            errors.append("depth sweep cells do not match the requested grid")
        for c in result.cells:
            for name, values in (("p_gs", c.p_gs), ("fsucc", c.fsucc)):
                if len(values) != p["instances"]:
                    errors.append(f"L={c.size} d={c.depth}: {len(values)} {name} values")
                if any(not 0.0 <= v <= 1.0 for v in values):
                    errors.append(f"L={c.size} d={c.depth}: {name} outside [0, 1]: {values}")
        return errors
    results = [experiment.load_result(r) if isinstance(r, Path) else r for r in out.results]
    cells = [c for result in results for c in result.cells]
    if [(c.shots, c.iters) for c in cells] != [tuple(g) for g in p["grid"]]:
        errors.append("sweep cells do not match the requested grid")
    n_inst = max(1, p["instances"])
    for c in cells:
        where = f"cell M={c.shots} n_iter={c.iters}"
        if c.budget_calls != c.shots * max(1, c.iters):
            errors.append(f"{where}: budget {c.budget_calls} != M * n_iter")
        if len(c.hit_calls) != n_inst:
            errors.append(f"{where}: {len(c.hit_calls)} instances, expected {n_inst}")
        for hits in c.hit_calls:
            if len(hits) > c.repetitions:
                errors.append(f"{where}: more first hits than repetitions")
            if any(not 1 <= h <= c.budget_calls for h in hits):
                errors.append(f"{where}: first hit outside [1, budget {c.budget_calls}]")
        if c.psucc_hits is not None and any(not 0 <= h <= c.repetitions for h in c.psucc_hits):
            errors.append(f"{where}: terminal-sample hits outside [0, R]")
    return errors
