"""Classical outer loops driving the shot-based cost estimates.

Every optimizer is a generator of *rounds*, in the ask-and-tell shape of
CMA-ES and Nevergrad: it yields the parameter vectors it wants measured
and is sent back their values.  A round is one point for the energy-based
``trust_region_rounds`` (``TrustRegionConfig``, a COBYLA-flavored linear
model) and ``hill_climb_rounds`` (``HillClimbConfig``); for
``gradient_descent_rounds`` (``GradientDescentConfig``) it is theta with
the 2 * n_par parameter-shift or finite-difference points of one step.

``run`` is the one loop that measures rounds, and the only code that
counts shots: it samples every point, scans every sample set for
ground-state hits, adds its shots to ``n_calls`` and appends one trace
row per round.  One-point rounds are scored with the run's cost kind;
gradient rounds with the mean, and their row carries the mean energy of
all the round's shots.  A run with ``n_iter = 0`` performs a single
M-shot measurement of theta0 and no optimization, which is the smallest
run that can still observe success.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Generator, Union

import numpy as np

from .ansatz import FAMILY_VQE, AnsatzSpec
from .codec import Record, write_atomic
from .errors import DomainError
from .estimator import (
    MEAN,
    PARAM_SHIFT_RULE,
    CostKind,
    MinimumTracker,
    SampleSet,
    central_difference,
    cost,
    exact_cost,
    minimizer_hits,
    sample,
    shifted_points,
)
from .ising import GroundTruth, IsingInstance, energy_table
from .simulator import NoiseModel

TRACE_SCHEMA_VERSION = 1


@dataclass(frozen=True)
class TrustRegionConfig(Record):
    """COBYLA-style linear-model trust region (energy-based)."""

    name: str = field(default="trust-region-dfo", init=False)
    initial_radius: float = 1.0
    final_radius: float = 1e-4

    def __post_init__(self) -> None:
        if not 0 < self.final_radius <= self.initial_radius:
            raise DomainError("radii must satisfy 0 < final <= initial")


@dataclass(frozen=True)
class HillClimbConfig(Record):
    """Random-direction hill climb with fixed proposal length (energy-based)."""

    name: str = field(default="hill-climb", init=False)
    step_norm: float = 0.03

    def __post_init__(self) -> None:
        if self.step_norm <= 0:
            raise DomainError(f"step norm must be positive, got {self.step_norm}")


@dataclass(frozen=True)
class GradientDescentConfig(Record):
    """Fixed-rate gradient descent on shot-estimated gradients.

    ``shots_per_circuit = None`` selects the exact-expectation testing mode
    (gradients from the statevector, nothing sampled, n_calls stays 0).
    """

    name: str = field(default="gradient-descent", init=False)
    learning_rate: float = 0.1
    gradient: str = "param-shift"  # "param-shift" | "finite-diff"
    step: float = 0.5  # finite-difference increment
    shots_per_circuit: int | None = 8

    def __post_init__(self) -> None:
        if self.learning_rate <= 0:
            raise DomainError("learning rate must be positive")
        if self.gradient not in ("param-shift", "finite-diff"):
            raise DomainError(f"unknown gradient estimator {self.gradient!r}")
        if self.step <= 0:
            raise DomainError("finite-difference step must be positive")
        if self.shots_per_circuit is not None and self.shots_per_circuit < 1:
            raise DomainError("shots_per_circuit must be >= 1 (or None for exact)")


OptimizerConfig = Union[TrustRegionConfig, HillClimbConfig, GradientDescentConfig]


@dataclass(frozen=True)
class IterationRecord:
    index: int
    cost: float
    f_min: float
    n_calls: int


@dataclass
class RunTrace:
    """Per-iteration history and outcome flags of one optimization run."""

    records: list[IterationRecord]
    final_theta: np.ndarray
    success: bool  # a minimizer was sampled at least once anywhere
    psucc_hit: bool  # the terminal M-shot sample contained a minimizer
    first_hit_calls: int | None
    f_min: float
    n_calls: int
    probe_shots: int = 0  # terminal-probe shots, kept outside n_calls


def step_hill_climb(theta: np.ndarray, step_norm: float, rng: np.random.Generator) -> np.ndarray:
    """Propose theta + delta with delta uniform on the sphere of radius step_norm."""
    if step_norm <= 0:
        raise DomainError(f"step norm must be positive, got {step_norm}")
    while True:
        direction = rng.standard_normal(len(theta))
        norm = float(np.linalg.norm(direction))
        if norm > 0:
            return theta + (step_norm / norm) * direction


def step_gradient_descent(theta: np.ndarray, gradient: np.ndarray, learning_rate: float) -> np.ndarray:
    if np.shape(theta) != np.shape(gradient):
        raise DomainError("gradient shape does not match parameters")
    return np.asarray(theta, dtype=float) - learning_rate * np.asarray(gradient, dtype=float)


def _random_unit(rng: np.random.Generator, n: int) -> np.ndarray:
    while True:
        v = rng.standard_normal(n)
        norm = float(np.linalg.norm(v))
        if norm > 0:
            return v / norm


def hill_climb_rounds(
    theta0: np.ndarray, budget: int, step_norm: float, rng: np.random.Generator
) -> Generator:
    """Accept-if-better random-direction search, one point per round.

    Spends ``budget`` evaluations: first the incumbent theta0, then one
    fresh estimate per proposal.  A proposal replaces the incumbent when
    its estimate beats the incumbent's last recorded estimate (the
    incumbent is not re-evaluated).  Returns (incumbent, its estimate).
    """
    if budget < 1:
        raise DomainError(f"budget must be >= 1, got {budget}")
    incumbent = np.asarray(theta0, dtype=float)
    best = yield incumbent
    for _ in range(budget - 1):
        proposal = step_hill_climb(incumbent, step_norm, rng)
        value = yield proposal
        if value < best:
            incumbent, best = proposal, value
    return incumbent, best


def trust_region_rounds(
    theta0: np.ndarray,
    budget: int,
    initial_radius: float,
    final_radius: float,
    rng: np.random.Generator,
) -> Generator:
    """Linear-model trust-region minimization of a (noisy) black box.

    Asks for exactly ``budget`` evaluations, one point per round: first
    theta0 and the n coordinate points theta0 + rho e_i that seed the
    simplex, then one point per step.  Steps are either trust-region moves
    of length rho against the interpolated gradient, geometry refreshes
    that pull the farthest vertex back to distance rho from the best point,
    or random probes when the model is flat.  rho halves whenever a move
    fails to improve the best value, never below ``final_radius``.

    Returns the best point and its recorded value.
    """
    if budget < 1:
        raise DomainError(f"budget must be >= 1, got {budget}")
    theta0 = np.asarray(theta0, dtype=float)
    n = theta0.size
    rho = initial_radius

    filled = 1 + min(n, budget - 1)  # the simplex, cut short by a small budget
    points = np.empty((filled, n))
    values = np.empty(filled)
    points[0], values[0] = theta0, (yield theta0)
    for i in range(1, filled):
        x = theta0.copy()
        x[i - 1] += rho
        points[i], values[i] = x, (yield x)

    for _ in range(budget - filled):
        best = int(np.argmin(values))
        worst = int(np.argmax(values))
        offsets = points - points[best]
        dists = np.sqrt((offsets * offsets).sum(axis=1))
        far = int(np.argmax(dists))

        if dists[far] > 3.0 * rho:
            # geometry refresh: keep the simplex at the trust-region scale
            x = points[best] + rho * _random_unit(rng, n)
            points[far], values[far] = x, (yield x)
            continue

        mask = np.arange(filled) != best
        rows = offsets[mask]
        deltas = values[mask] - values[best]
        if rows.shape[0] == rows.shape[1]:
            try:
                grad = np.linalg.solve(rows, deltas)
            except np.linalg.LinAlgError:
                grad, *_ = np.linalg.lstsq(rows, deltas, rcond=None)
        else:
            grad, *_ = np.linalg.lstsq(rows, deltas, rcond=None)
        gnorm = math.sqrt(float(grad @ grad))

        if gnorm <= 1e-12 * max(1.0, abs(values[best])):
            # flat model, usually drowned by shot noise: probe and shrink
            x = points[best] + rho * _random_unit(rng, n)
            f = yield x
            if f < values[worst]:
                points[worst], values[worst] = x, f
            rho = max(0.5 * rho, final_radius)
            continue

        x = points[best] - (rho / gnorm) * grad
        f = yield x
        if f < values[best]:
            points[worst], values[worst] = x, f
        else:
            if f < values[worst]:
                points[worst], values[worst] = x, f
            rho = max(0.5 * rho, final_radius)

    best = int(np.argmin(values))
    return points[best].copy(), float(values[best])


def gradient_descent_rounds(
    theta0: np.ndarray, n_iter: int, config: GradientDescentConfig
) -> Generator:
    """theta -= eta * grad over ``n_iter`` rounds of (theta, shifted points).

    Each round is sent the mean costs of its points.  Returns (final theta, None).
    """
    if config.gradient == "param-shift":
        shift, denominator = PARAM_SHIFT_RULE
    else:
        shift, denominator = config.step, 2.0 * config.step
    theta = np.array(theta0, dtype=float)
    for _ in range(n_iter):
        means = yield theta, shifted_points(theta, shift)
        grad = central_difference(means, denominator)
        theta = step_gradient_descent(theta, grad, config.learning_rate)
    return theta, None


def _measure_once(theta0: np.ndarray) -> Generator:
    """The n_iter = 0 run: one round measuring theta0."""
    value = yield theta0
    return theta0, value


def run(
    spec: AnsatzSpec,
    instance: IsingInstance,
    ground: GroundTruth,
    config: OptimizerConfig,
    cost_kind: CostKind,
    shots: int,
    n_iter: int,
    theta0: np.ndarray,
    noise: NoiseModel | None = None,
    rng: np.random.Generator | None = None,
    final_probe: bool = False,
) -> RunTrace:
    """Execute one optimization run and record its full trace.

    ``final_probe=True`` draws one extra M-shot sample from the state at
    the returned parameters to decide ``psucc_hit``; those shots are
    reported in ``probe_shots`` and never counted into ``n_calls``.  With
    ``n_iter = 0`` the single theta0 sample decides both flags, so the
    terminal-sample and anywhere-success criteria coincide by construction.
    """
    if rng is None:
        raise DomainError("run needs an rng")
    if n_iter < 0:
        raise DomainError(f"n_iter must be >= 0, got {n_iter}")
    theta0 = np.asarray(theta0, dtype=float)
    if theta0.shape != (spec.n_params,):
        raise DomainError("theta0 length does not match the ansatz")
    if isinstance(config, GradientDescentConfig) and config.gradient == "param-shift":
        if spec.family != FAMILY_VQE:
            raise DomainError("parameter-shift gradients require the RY-CNOT family")

    gradient = isinstance(config, GradientDescentConfig) and n_iter > 0
    if n_iter == 0:
        rounds = _measure_once(theta0)
    elif isinstance(config, TrustRegionConfig):
        rounds = trust_region_rounds(
            theta0, n_iter, config.initial_radius, config.final_radius, rng
        )
    elif isinstance(config, HillClimbConfig):
        rounds = hill_climb_rounds(theta0, n_iter, config.step_norm, rng)
    elif gradient:
        rounds = gradient_descent_rounds(theta0, n_iter, config)
    else:
        raise DomainError(f"unknown optimizer config {type(config).__name__}")
    # gradient rounds are scored with the mean whatever the run's cost kind
    kind, per_point = (MEAN, config.shots_per_circuit) if gradient else (cost_kind, shots)

    table = energy_table(instance)
    tracker = MinimumTracker(ground.minimizers)
    records: list[IterationRecord] = []
    n_calls = 0
    last: SampleSet | None = None
    ask = next(rounds)
    while True:
        theta, points = ask if gradient else (ask, [ask])
        if per_point is None:
            # exact-expectation gradient mode: nothing is sampled or counted
            values = [exact_cost(spec, x, instance) for x in points]
            row_cost = exact_cost(spec, theta, instance)
        else:
            sets = [sample(spec, x, table, per_point, noise, rng) for x in points]
            for samples in sets:
                tracker.observe(samples)
                n_calls += samples.shots_spent
            values = [cost(samples, kind) for samples in sets]
            row_cost = values[0]
            if gradient:
                row_cost = float(np.mean(np.concatenate([s.energies for s in sets])))
            last = sets[-1]
        records.append(IterationRecord(len(records) + 1, row_cost, tracker.f_min, n_calls))
        try:
            ask = rounds.send(values if gradient else values[0])
        except StopIteration as done:
            final_theta = done.value[0]
            break

    success = tracker.hit
    probe_shots = 0
    minimizers = np.asarray(ground.minimizers, dtype=np.int64)
    if n_iter == 0:
        psucc_hit = success
    elif final_probe:
        # terminal measurement only; deliberately kept out of the tracker so
        # success/first_hit_calls reflect the optimization loop alone
        probe = sample(spec, final_theta, table, shots, noise, rng)
        psucc_hit = bool(minimizer_hits(probe.bitstrings, minimizers).any())
        probe_shots = shots
    else:
        psucc_hit = last is not None and bool(minimizer_hits(last.bitstrings, minimizers).any())

    return RunTrace(
        records=records,
        final_theta=np.asarray(final_theta, dtype=float),
        success=success,
        psucc_hit=psucc_hit,
        first_hit_calls=tracker.first_hit_calls,
        f_min=tracker.f_min,
        n_calls=n_calls,
        probe_shots=probe_shots,
    )


def write_trace(path: str | Path, trace: RunTrace, config_echo: dict) -> None:
    """JSON-lines export: a config header, one row per iteration, a summary."""
    lines = [
        json.dumps(
            {"record": "config", "schema_version": TRACE_SCHEMA_VERSION, **config_echo},
            sort_keys=True,
        )
    ]
    for rec in trace.records:
        lines.append(
            json.dumps(
                {
                    "record": "iteration",
                    "index": rec.index,
                    "cost": rec.cost,
                    "f_min": None if math.isinf(rec.f_min) else rec.f_min,
                    "n_calls": rec.n_calls,
                },
                sort_keys=True,
            )
        )
    lines.append(
        json.dumps(
            {
                "record": "summary",
                "success": trace.success,
                "psucc_hit": trace.psucc_hit,
                "first_hit_calls": trace.first_hit_calls,
                "f_min": None if math.isinf(trace.f_min) else trace.f_min,
                "n_calls": trace.n_calls,
                "probe_shots": trace.probe_shots,
                "final_theta": [float(v) for v in trace.final_theta],
            },
            sort_keys=True,
        )
    )
    write_atomic(path, "\n".join(lines) + "\n")
