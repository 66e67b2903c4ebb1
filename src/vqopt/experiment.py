"""Measurement protocols: success sweeps, optimal-call search, scaling fits.

A *sweep* runs R independent optimizations for every (M, n_iter) grid
cell and records, per run, the cumulative shot count at which a global
minimizer was first sampled.  From those first-hit counts the success
probability F_succ(n_calls) is known at every shot-count checkpoint, so
one run contributes a whole curve rather than a single point.  P_succ
(terminal-sample success) is recorded when the sweep is asked to probe
the final parameters.

Runs are seeded by (instance, M, repetition), so a shorter budget at the
same M only truncates the same run.  A sweep therefore makes one run per
(instance, M, repetition) at the longest n_iter of that M and cuts every
cell at that M from its trace.  Two kinds of cell keep a run of their own:
the cells of a ``final_probe`` sweep (the probe draws after the last
round) and gradient descent's n_iter = 0 cell (it measures theta0, where
gradient descent's first round samples shifted points).

Disordered problems are ensembles: each cell is aggregated per instance
first, then summarized by the median and the 25th/75th percentiles
across realizations.  Single-instance cells carry Wilson intervals
instead.
"""

from __future__ import annotations

import bisect
import json
import math
import statistics
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path

import numpy as np

from . import ansatz as anz
from . import optimizer as opt
from .ansatz import FAMILY_QAOA, AnsatzSpec
from .codec import Record, check_fields, read_json, type_hints, write_atomic
from .errors import DomainError, SchemaError
from .estimator import CostKind, check_shots, check_uniforms, draw_uniforms
from .ising import (
    FERROMAGNETIC,
    GroundTruth,
    IsingInstance,
    brute_force_minimum,
    check_kind,
    check_size,
    make_instances,
)
from .simulator import NoiseModel, sample_shots

SCHEMA_VERSION = 1


# --- problem description -----------------------------------------------------


# The InitSpec fields each mode reads, in the order a sweep file lists them.
_MODE_FIELDS = {"random": ("low", "high"), "linear": ("dt",), "zeros": ()}


@dataclass(frozen=True)
class InitSpec(Record):
    """How theta0 is drawn: uniform random angles, the linear schedule, or
    all-zero angles (the no-evolution baseline)."""

    mode: str = "random"  # "random" | "linear" | "zeros"
    low: float = -math.pi
    high: float = math.pi
    dt: float = 0.8

    def __post_init__(self) -> None:
        if self.mode not in _MODE_FIELDS:
            raise DomainError(f"unknown init mode {self.mode!r}")

    def to_json(self) -> dict:
        """Only the fields the mode uses (this layout is inside every sweep file)."""
        return {"mode": self.mode, **{name: getattr(self, name) for name in _MODE_FIELDS[self.mode]}}

    @classmethod
    def from_json(cls, obj, where: str | None = None) -> "InitSpec":
        """Read an init; a field its mode does not use raises SchemaError."""
        init = super().from_json(obj, where)
        unused = sorted(set(obj) - {"mode", *_MODE_FIELDS[init.mode]})
        if unused:
            raise SchemaError(f"{where or cls.__name__} field(s) {', '.join(unused)} "
                              f"unused by mode {init.mode!r}")
        return init

    def check_family(self, family: str) -> None:
        if self.mode == "linear" and family != FAMILY_QAOA:
            raise DomainError("the linear schedule only applies to qaoa")

    def theta0(self, spec: AnsatzSpec, rng: np.random.Generator) -> np.ndarray:
        """The starting angles for ``spec``; only random mode draws from ``rng``."""
        self.check_family(spec.family)
        if self.mode == "linear":
            return anz.init_linear_schedule(spec.depth, self.dt)
        if self.mode == "zeros":
            return np.zeros(spec.n_params)
        return anz.init_random(spec, rng, self.low, self.high)


@dataclass(frozen=True)
class ProblemSpec(Record):
    """One benchmark problem: circuit family, size, depth, instance set."""

    family: str
    size: int
    depth: int
    kind: str = FERROMAGNETIC
    instance_seeds: tuple[int, ...] = (0,)
    init: InitSpec = InitSpec()

    def __post_init__(self) -> None:
        anz.check_family(self.family)
        check_kind(self.kind, self.instance_seeds)
        self.init.check_family(self.family)

    def instances(self) -> list[IsingInstance]:
        return make_instances(self.size, self.kind, self.instance_seeds)


def _ansatz_for(problem: ProblemSpec, instance: IsingInstance) -> AnsatzSpec:
    ref = instance if problem.family == FAMILY_QAOA else None
    return AnsatzSpec(problem.family, problem.size, problem.depth, instance=ref)


# --- statistics helpers ------------------------------------------------------


def wilson_interval(successes: int, trials: int, z: float = 1.96) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion."""
    if trials < 1:
        raise DomainError("need at least one trial")
    p = successes / trials
    denom = 1.0 + z * z / trials
    center = (p + z * z / (2 * trials)) / denom
    half = (z / denom) * math.sqrt(p * (1 - p) / trials + z * z / (4 * trials * trials))
    return max(0.0, center - half), min(1.0, center + half)


# --- sweep results -----------------------------------------------------------


@dataclass
class CellResult(Record):
    """Outcome of R repetitions per instance at one (M, n_iter) grid cell."""

    shots: int
    iters: int
    repetitions: int  # per instance
    budget_calls: int  # n_calls of one full run
    calls_per_iter: int
    hit_calls: list[list[int]]  # per instance, sorted first-hit shot counts
    psucc_hits: list[int] | None  # per instance, terminal-sample hit counts

    @classmethod
    def from_json(cls, obj, where: str | None = None) -> "CellResult":
        """Read a cell, checking what F_succ and n_calls* read from it, or raise
        SchemaError: positive M, R and calls_per_iter, n_iter >= 0, a budget of
        calls_per_iter per iteration (one at n_iter = 0), per instance at most R
        sorted first hits within the budget, and psucc counts in [0, R]."""
        cell = super().from_json(obj, where)
        reps, budget, psucc = cell.repetitions, cell.budget_calls, cell.psucc_hits
        lows = {"shots": 1, "iters": 0, "repetitions": 1, "calls_per_iter": 1}
        problems = [f"{name} must be >= {low}, got {getattr(cell, name)}"
                    for name, low in lows.items() if getattr(cell, name) < low]
        if cell.calls_per_iter * max(1, cell.iters) != budget:
            problems.append(f"budget_calls {budget} is not calls_per_iter * max(1, iters)")
        if not cell.hit_calls or any(hits != sorted(hits) or len(hits) > reps
                                     or not all(1 <= h <= budget for h in hits)
                                     for hits in cell.hit_calls):
            problems.append(f"hit_calls must hold, per instance, at most {reps} sorted "
                            f"counts in [1, {budget}]")
        if psucc is not None and (len(psucc) != len(cell.hit_calls)
                                  or not all(0 <= h <= reps for h in psucc)):
            problems.append(f"psucc_hits must hold one count in [0, {reps}] per instance")
        if problems:
            raise SchemaError(f"{where or cls.__name__}: {problems[0]}")
        return cell

    def fsucc_per_instance(self, n_calls: int | None = None) -> list[float]:
        if n_calls is None:
            n_calls = self.budget_calls
        return [bisect.bisect_right(hits, n_calls) / self.repetitions for hits in self.hit_calls]

    def fsucc(self, n_calls: int | None = None) -> float:
        per = self.fsucc_per_instance(n_calls)
        return float(statistics.median(per))

    def fsucc_band(self) -> tuple[float, float, str]:
        per = self.fsucc_per_instance()
        if len(per) == 1:
            lo, hi = wilson_interval(len(self.hit_calls[0]), self.repetitions)
            return lo, hi, "wilson"
        q25, q75 = np.percentile(per, [25, 75])
        return float(q25), float(q75), "percentile"

    def psucc_per_instance(self) -> list[float] | None:
        if self.psucc_hits is None:
            return None
        return [h / self.repetitions for h in self.psucc_hits]

    def psucc(self) -> float | None:
        per = self.psucc_per_instance()
        if per is None:
            return None
        return float(statistics.median(per))

    def checkpoints(self) -> list[int]:
        """Iteration-boundary shot counts at which F_succ is reported."""
        steps = max(1, self.iters)
        return [self.calls_per_iter * k for k in range(1, steps + 1)]


@dataclass
class SweepResult(Record):
    problem: ProblemSpec
    optimizer: opt.OptimizerConfig
    cost_alpha: float
    repetitions: int
    master_seed: int
    final_probe: bool
    cells: list[CellResult]
    noise: NoiseModel | None = None
    schema_version: int = field(default=SCHEMA_VERSION, init=False)
    result_type: str = field(default="sweep", init=False)

    def __post_init__(self) -> None:
        CostKind(self.cost_alpha)  # a cost_alpha a sweep spec would refuse

    @classmethod
    def from_json(cls, obj, where: str | None = None) -> "SweepResult":
        """Read a sweep; a cell whose instance count or repetitions is not the
        problem's or the sweep's raises SchemaError."""
        sweep = super().from_json(obj, where)
        where = where or cls.__name__
        count = len(sweep.problem.instances())
        for index, cell in enumerate(sweep.cells):
            if len(cell.hit_calls) != count or cell.repetitions != sweep.repetitions:
                raise SchemaError(f"{where}.cells[{index}] has {len(cell.hit_calls)} instances "
                                  f"and {cell.repetitions} repetitions where the sweep "
                                  f"has {count} and {sweep.repetitions}")
        return sweep

    def cell(self, shots: int, iters: int) -> CellResult:
        for c in self.cells:
            if c.shots == shots and c.iters == iters:
                return c
        raise DomainError(f"no cell with shots={shots}, iters={iters}")


# --- sweep execution ---------------------------------------------------------


def sweep_spec_from_json(
    obj: dict,
) -> tuple[ProblemSpec, opt.OptimizerConfig, CostKind, NoiseModel | None]:
    """Parse a sweep spec: the problem fields plus ``optimizer``, ``cost_alpha``
    and ``noise``.  Unknown, missing or mistyped fields raise SchemaError."""
    hints = {**type_hints(ProblemSpec), "optimizer": opt.OptimizerConfig, "cost_alpha": float,
             "noise": NoiseModel | None}
    spec = check_fields(obj, hints, "spec", required=("family", "size", "depth"))
    config = spec.pop("optimizer", opt.TrustRegionConfig())
    kind = CostKind(spec.pop("cost_alpha", 0.25))
    noise = spec.pop("noise", None)
    return ProblemSpec(**spec), config, kind, noise


def grid_from_json(obj: dict) -> list[tuple[int, int]]:
    """Parse a grid file, ``{"shots": [...], "iters": [...]}``, into its
    (M, n_iter) product.  Missing, unknown or mistyped fields raise SchemaError."""
    grid = check_fields(obj, {"shots": list[int], "iters": list[int]}, "grid",
                        required=("shots", "iters"))
    return [(m, n) for m in grid["shots"] for n in grid["iters"]]


def _shares_prefix(config: opt.OptimizerConfig, final_probe: bool, iters: int) -> bool:
    """Whether a cell is cut from the longest run at its M rather than run alone.

    A final probe draws from the run's generator after its last round, and
    gradient descent's n_iter = 0 run measures theta0 with M shots where its
    first round samples shifted points; neither run is a prefix of a longer one.
    """
    return not final_probe and not (iters == 0 and isinstance(config, opt.GradientDescentConfig))


def _run_shots_block(
    problem: ProblemSpec,
    config: opt.OptimizerConfig,
    kind: CostKind,
    master_seed: int,
    noise: NoiseModel | None,
    final_probe: bool,
    task: tuple[int, IsingInstance, GroundTruth, int, tuple[tuple[int, int], ...], range],
) -> list[tuple[int, int, int | None, bool, int]]:
    """Run one block of repetitions of every cell at one M on one instance.

    ``task`` is (instance index, instance, ground truth, M, the (cell index,
    n_iter) pairs at that M, repetitions).  A repetition makes one run at the
    longest n_iter of the sharing cells and cuts each of them from its trace
    at the cell's budget; cells that cannot share get a run of their own.
    Returns one (instance index, cell index, first hit within the cell's
    budget or None, terminal-sample hit, budget_calls) per cell and repetition.
    """
    instance_index, instance, ground, shots, cells, reps = task
    spec = _ansatz_for(problem, instance)
    longest = max((n for _, n in cells if _shares_prefix(config, final_probe, n)), default=0)
    outcomes = []
    for rep in reps:
        traces: dict[int, opt.RunTrace] = {}  # run length -> its trace
        for cell_index, iters in cells:
            length = longest if _shares_prefix(config, final_probe, iters) else iters
            if length not in traces:
                rng = np.random.default_rng([master_seed, instance_index, shots, rep])
                theta0 = problem.init.theta0(spec, rng)
                traces[length] = opt.run(
                    spec, instance, ground, config, kind, shots, length, theta0,
                    noise=noise, rng=rng, final_probe=final_probe,
                )
            trace = traces[length]
            budget = trace.records[max(1, iters) - 1].n_calls
            first = trace.first_hit_calls
            hit = first if first is not None and first <= budget else None
            # an n_iter = 0 cell's terminal sample is its only sample
            terminal = hit is not None if iters == 0 else trace.psucc_hit
            outcomes.append((instance_index, cell_index, hit, terminal, budget))
    return outcomes


def success_sweep(
    problem: ProblemSpec,
    config: opt.OptimizerConfig,
    cost_kind: CostKind,
    grid: list[tuple[int, int]],
    repetitions: int,
    master_seed: int,
    threads: int = 1,
    noise: NoiseModel | None = None,
    final_probe: bool = False,
) -> SweepResult:
    """Run the full (M, n_iter) grid, R repetitions per instance per cell.

    Every run gets its own generator seeded by (master_seed, instance, M,
    repetition), so results are reproducible and independent of the worker
    count and of the grid order.  Each (instance, M, repetition) makes one
    run at the longest n_iter among the cells at M; a cell takes its budget
    from that trace's row n_iter (row 1 for n_iter = 0), counts the run's
    first hit when it falls within that budget, and, at n_iter = 0, takes
    that hit as its terminal-sample success.  The cells of a ``final_probe``
    sweep and gradient descent's n_iter = 0 cells are run on their own, so
    every cell equals the cell of a sweep whose grid is that cell alone.
    """
    if not grid:
        raise DomainError("empty grid")
    if repetitions < 1:
        raise DomainError(f"repetitions must be >= 1, got {repetitions}")
    if threads < 1:
        raise DomainError(f"threads must be >= 1, got {threads}")
    if any(iters < 0 for _, iters in grid):
        raise DomainError(f"n_iter must be >= 0, got grid {grid}")
    for shots, _ in grid:  # refused before the first run, not after the cells ahead of it
        check_shots(shots)
    if len(set(grid)) < len(grid):  # the repeat would be run twice
        raise DomainError(f"grid cells (M, n_iter) must differ, got {grid}")
    instances = problem.instances()
    grounds = [brute_force_minimum(inst) for inst in instances]

    # Runs are seeded by M, not by grid position: the cells at one M share
    # their run prefixes exactly, and results cannot depend on grid order.
    by_shots: dict[int, list[tuple[int, int]]] = {}
    for cell_idx, (shots, iters) in enumerate(grid):
        by_shots.setdefault(shots, []).append((cell_idx, iters))
    block = max(1, repetitions if threads <= 1 else math.ceil(repetitions / (4 * threads)))
    tasks = [
        (inst_idx, instance, ground, shots, tuple(cells), range(lo, min(lo + block, repetitions)))
        for inst_idx, (instance, ground) in enumerate(zip(instances, grounds))
        for shots, cells in by_shots.items()
        for lo in range(0, repetitions, block)
    ]
    run_block = partial(_run_shots_block, problem, config, cost_kind, master_seed, noise, final_probe)
    if threads <= 1:
        blocks = [run_block(task) for task in tasks]
    else:
        # a fork pool starts every worker at the first submit, so start no
        # more than there are tasks
        with ProcessPoolExecutor(max_workers=min(threads, len(tasks))) as pool:
            blocks = list(pool.map(run_block, tasks, chunksize=1))

    hits = [[[] for _ in instances] for _ in grid]  # [cell][instance] -> first hits
    psucc = [[0] * len(instances) for _ in grid]
    budgets: dict[int, int] = {}
    for block in blocks:
        for inst_idx, cell_idx, hit, terminal, budget in block:
            if budgets.setdefault(cell_idx, budget) != budget:
                raise DomainError("inconsistent run budgets within one cell")
            if hit is not None:
                hits[cell_idx][inst_idx].append(hit)
            psucc[cell_idx][inst_idx] += terminal

    cells = []
    for cell_idx, (shots, iters) in enumerate(grid):
        budget = budgets[cell_idx]
        cells.append(
            CellResult(
                shots=shots,
                iters=iters,
                repetitions=repetitions,
                budget_calls=budget,
                calls_per_iter=budget // max(1, iters),
                hit_calls=[sorted(h) for h in hits[cell_idx]],
                psucc_hits=psucc[cell_idx] if (final_probe or iters == 0) else None,
            )
        )
    return SweepResult(
        problem=problem,
        optimizer=config,
        cost_alpha=cost_kind.alpha,
        repetitions=repetitions,
        master_seed=master_seed,
        final_probe=final_probe,
        noise=noise,
        cells=cells,
    )


# --- optimal call counts and scaling fits ------------------------------------


@dataclass(frozen=True)
class OptimalCalls:
    target: float
    reached: bool
    n_calls: int | None = None
    shots: int | None = None
    iters: int | None = None


def _cell_calls_to_target(cell: CellResult, target: float) -> int | None:
    """The first of the cell's checkpoints at which its F_succ reaches
    ``target``, or None when none does.

    F_succ, the median over instances of each instance's hit fraction, never
    decreases with n_calls, so a bisection over the checkpoints finds it.
    Checkpoints are iteration boundaries, so a first hit counts from the end
    of the iteration that drew it.
    """
    checkpoints = cell.checkpoints()
    first = bisect.bisect_left(checkpoints, target, key=cell.fsucc)
    return checkpoints[first] if first < len(checkpoints) else None


def optimal_calls(sweep: SweepResult, target: float) -> OptimalCalls:
    """n_calls*: the fewest calls at which some grid cell reaches the target.

    A cell reaches it at its first iteration-boundary checkpoint where its
    F_succ (the median over instances) is at least ``target``; a tie in
    n_calls goes to the smaller (M, n_iter).  Returns an explicit unreached
    marker when no cell ever meets the target within its budget.
    """
    if not 0.0 <= target < 1.0:
        raise DomainError(f"target must be in [0, 1), got {target}")
    reached = [(calls, cell.shots, cell.iters) for cell in sweep.cells
               if (calls := _cell_calls_to_target(cell, target)) is not None]
    if not reached:
        return OptimalCalls(target=target, reached=False)
    n_calls, shots, iters = min(reached)
    return OptimalCalls(target=target, reached=True, n_calls=n_calls, shots=shots, iters=iters)


@dataclass
class ScalingFit(Record):
    """Least-squares fit of log2(n_calls*) vs L: n_calls* = a * 2^(k L)."""

    points: list[tuple[int, float]]
    amplitude: float
    exponent: float
    l_min: int
    residuals: list[float]
    target: float | None = None
    schema_version: int = field(default=SCHEMA_VERSION, init=False)
    result_type: str = field(default="fit", init=False)

    @classmethod
    def from_json(cls, obj, where: str | None = None) -> "ScalingFit":
        """Read a fit, drawn on a log2 axis: a non-positive amplitude or n_calls*,
        or other than one residual per point with L >= l_min, raises SchemaError."""
        fit = super().from_json(obj, where)
        used = sum(1 for size, _ in fit.points if size >= fit.l_min)
        if not fit.amplitude > 0 or not all(n > 0 for _, n in fit.points):
            raise SchemaError(f"{where or cls.__name__}: the amplitude and every n_calls* "
                              f"in points must be positive")
        if len(fit.residuals) != used:
            raise SchemaError(f"{where or cls.__name__}: {len(fit.residuals)} residuals "
                              f"for {used} points with L >= l_min")
        return fit


def fit_scaling(
    points: list[tuple[int, float]], l_min: int = 8, target: float | None = None
) -> ScalingFit:
    """Fit n_calls* = a * 2^(k L) on the points with L >= l_min."""
    used = sorted((int(l), float(n)) for l, n in points if l >= l_min)
    if len(used) < 2:
        raise DomainError(f"need >= 2 points with L >= {l_min} to fit")
    sizes = np.array([l for l, _ in used], dtype=float)
    logs = np.log2([n for _, n in used])
    slope, intercept = np.polyfit(sizes, logs, 1)
    residuals = list(logs - (slope * sizes + intercept))
    return ScalingFit(
        points=[(int(l), float(n)) for l, n in points],
        amplitude=float(2.0**intercept),
        exponent=float(slope),
        l_min=l_min,
        residuals=[float(r) for r in residuals],
        target=target,
    )


def random_search_baseline(size: int, degeneracy: int, n_calls: int) -> float:
    """Success probability of uniform sampling with replacement."""
    if size < 1:
        raise DomainError(f"size must be >= 1, got {size}")
    if degeneracy < 1:
        raise DomainError("degeneracy must be >= 1")
    if n_calls < 0:
        raise DomainError("n_calls must be >= 0")
    total = 1 << size
    if degeneracy > total:
        raise DomainError(f"degeneracy {degeneracy} exceeds 2^{size}")
    return 1.0 - (1.0 - degeneracy / total) ** n_calls


def runtime_bound(n_calls: float, depth: int, gate_time_s: float) -> float:
    """Lower bound on wall time: n_calls * depth * per-block gate time."""
    if n_calls < 0:
        raise DomainError("n_calls must be >= 0")
    if depth <= 0 or gate_time_s <= 0:
        raise DomainError("depth and gate time must be positive")
    return float(n_calls) * depth * gate_time_s


# --- depth sweep with the linear schedule ------------------------------------


@dataclass
class DepthCell(Record):
    size: int
    depth: int
    p_gs: list[float]  # exact ground-state Born probability, per instance
    fsucc: list[float]  # sampled M-shot success fraction, per instance

    @classmethod
    def from_json(cls, obj, where: str | None = None) -> "DepthCell":
        """Read a cell; p_gs and fsucc hold one value per instance, so they are
        non-empty and of equal length, or SchemaError is raised."""
        cell = super().from_json(obj, where)
        if not cell.p_gs or len(cell.fsucc) != len(cell.p_gs):
            raise SchemaError(f"{where or cls.__name__}: p_gs and fsucc must be non-empty "
                              f"lists of equal length")
        return cell

    def p_gs_median(self) -> float:
        return float(statistics.median(self.p_gs))

    def fsucc_median(self) -> float:
        return float(statistics.median(self.fsucc))


@dataclass
class DepthSweepResult(Record):
    kind: str
    dt: float
    shots: int
    repetitions: int
    master_seed: int
    instance_seeds: tuple[int, ...]
    cells: list[DepthCell]
    schema_version: int = field(default=SCHEMA_VERSION, init=False)
    result_type: str = field(default="depth-sweep", init=False)

    def cell(self, size: int, depth: int) -> DepthCell:
        for c in self.cells:
            if c.size == size and c.depth == depth:
                return c
        raise DomainError(f"no cell with size={size}, depth={depth}")


def depth_sweep(
    sizes: list[int],
    depths: list[int],
    dt: float,
    shots: int,
    repetitions: int,
    master_seed: int,
    kind: str = FERROMAGNETIC,
    instance_seeds: tuple[int, ...] = (0,),
) -> DepthSweepResult:
    """Sample linearly-initialized QAOA states (no optimization) over (L, d).

    Records both the exact ground-state Born probability of each state and
    the fraction of R M-shot repetitions that saw a minimizer, drawn by
    :func:`~vqopt.simulator.sample_shots` from R x M uniforms.  Sizes and
    depths must each differ.  Every input is checked before the first
    instance is built, so bad input costs no energy table or preparation.
    """
    if repetitions < 1:
        raise DomainError(f"repetitions must be >= 1, got {repetitions}")
    if not sizes or not depths:
        raise DomainError("empty size or depth list")
    for name, values in (("sizes", sizes), ("depths", depths)):
        if len(set(values)) < len(values):  # its cells would be run twice
            raise DomainError(f"depth sweep {name} must differ, got {list(values)}")
    for size in sizes:
        check_size(size)
    # the schedules refuse a depth below 1, and a dt that is not positive or
    # whose angles a plan cannot form
    thetas = [anz.init_linear_schedule(depth, dt) for depth in depths]
    check_uniforms(repetitions, shots)
    cells = []
    for size in sizes:
        instances = make_instances(size, kind, instance_seeds)
        grounds = [brute_force_minimum(inst) for inst in instances]
        for depth, theta in zip(depths, thetas):
            p_gs: list[float] = []
            fsucc: list[float] = []
            for inst_idx, instance in enumerate(instances):
                spec = AnsatzSpec(FAMILY_QAOA, size, depth, instance=instance)
                state = anz.prepare_state(spec, theta)
                minimizers = np.array(grounds[inst_idx].minimizers)
                p_gs.append(float((np.abs(state[minimizers]) ** 2).sum()))
                rng = np.random.default_rng(
                    [master_seed, size, depth, instance.seed]
                )
                # called by its imported name: the perfbench shot audit wraps
                # simulator.sample_shots to match its shots against run traces,
                # and these shots belong to no run
                draws = sample_shots(state, draw_uniforms(rng, repetitions, shots))
                del state  # not held through the next preparation
                hits = np.isin(draws, minimizers).any(axis=1)
                fsucc.append(float(hits.mean()))
            cells.append(DepthCell(size=size, depth=depth, p_gs=p_gs, fsucc=fsucc))
    return DepthSweepResult(
        kind=kind,
        dt=dt,
        shots=shots,
        repetitions=repetitions,
        master_seed=master_seed,
        instance_seeds=tuple(instance_seeds),
        cells=cells,
    )


# --- persistence -------------------------------------------------------------


_RESULT_TYPES = {cls.result_type: cls for cls in (SweepResult, ScalingFit, DepthSweepResult)}


def save_result(result, path: str | Path) -> None:
    write_atomic(path, json.dumps(result.to_json(), sort_keys=True) + "\n")


def load_result(path: str | Path, untyped_ok: bool = False):
    """Read any result file; an unreadable layout raises SchemaError.  With
    ``untyped_ok``, a JSON object with no ``result_type`` field (a spec,
    grid, instance or config file) gives None."""
    obj = read_json(path)
    if untyped_ok and isinstance(obj, dict) and "result_type" not in obj:
        return None
    kind = obj.get("result_type") if isinstance(obj, dict) else None
    if kind not in _RESULT_TYPES:
        raise SchemaError(f"{path}: unknown result_type {kind!r}")
    return _RESULT_TYPES[kind].from_json(obj, str(path))
