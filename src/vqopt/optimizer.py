"""Classical outer loops driving the shot-based cost estimates.

Every optimizer is a generator of *rounds*, in the ask-and-tell shape of
CMA-ES and Nevergrad: it yields the parameter vectors it wants measured,
one or more points as the rows of a (P, n_par) array, and is sent back
their values in order.  A round is one point for the energy-based
``hill_climb_rounds`` (``HillClimbConfig``) and for every step of
``trust_region_rounds`` (``TrustRegionConfig``, a COBYLA-flavored linear
model), whose first round is its whole starting simplex; for
``gradient_descent_rounds`` (``GradientDescentConfig``) it is the 2 * n_par
parameter-shift or finite-difference points of one step.

A ``RunTrace`` is one run in the same shape, made from ``run``'s
arguments: it checks them, picks the generator and asks for every round
the run is measured on, the final probe included, as ``points`` with
``shots`` shots per point.  ``tell`` is given the round's sample sets,
folds them into the trace, which is its own ``MinimumTracker`` and so the
run's one shot counter (each row records its count as ``n_calls``), and
sends the values on.  Energy-based rounds are scored with the run's cost
kind and record one row per point, so a row is one evaluation however the
points were grouped; a gradient round is scored with the mean and records
one row, carrying the mean energy of all the round's shots.  ``run``
drives one trace, sampling each round's points together
(``estimator.sample_round``); a driver of many runs needs nothing but
their traces, telling each its own sets.  ``run`` holds the state of its
last one-point ideal round, so when the trust region, stalled at
``final_radius``, asks for that point again, or the final probe measures
it, fresh shots are drawn from that state without preparing it again;
noisy states, which take their own draws, are prepared every time.  A run
with ``n_iter = 0`` performs a single M-shot measurement of theta0 and no
optimization, which is the smallest run that can still observe success.
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
    check_shots,
    cost,
    sample_round,
    shifted_points,
)
from .ising import GroundTruth, IsingInstance, energy_table
from .simulator import NoiseModel

TRACE_SCHEMA_VERSION = 1


def _check_angle(what: str, value: float) -> None:
    """A parameter that scales an angle must be positive and finite (NaN fails)."""
    if not 0 < value < math.inf:
        raise DomainError(f"{what} must be positive and finite, got {value}")


@dataclass(frozen=True)
class TrustRegionConfig(Record):
    """COBYLA-style linear-model trust region (energy-based)."""

    name: str = field(default="trust-region-dfo", init=False)
    initial_radius: float = 1.0
    final_radius: float = 1e-4

    def __post_init__(self) -> None:
        if not 0 < self.final_radius <= self.initial_radius < math.inf:
            raise DomainError("radii must satisfy 0 < final <= initial < inf")


@dataclass(frozen=True)
class HillClimbConfig(Record):
    """Random-direction hill climb with fixed proposal length (energy-based)."""

    name: str = field(default="hill-climb", init=False)
    step_norm: float = 0.03

    def __post_init__(self) -> None:
        _check_angle("step norm", self.step_norm)


@dataclass(frozen=True)
class GradientDescentConfig(Record):
    """Fixed-rate gradient descent on shot-estimated gradients."""

    name: str = field(default="gradient-descent", init=False)
    learning_rate: float = 0.1
    gradient: str = "param-shift"  # "param-shift" | "finite-diff"
    step: float = 0.5  # finite-difference increment
    shots_per_circuit: int = 8

    def __post_init__(self) -> None:
        _check_angle("learning rate", self.learning_rate)
        if self.gradient not in ("param-shift", "finite-diff"):
            raise DomainError(f"unknown gradient estimator {self.gradient!r}")
        _check_angle("finite-difference step", self.step)
        if self.shots_per_circuit < 1:
            raise DomainError("shots_per_circuit must be >= 1")


OptimizerConfig = Union[TrustRegionConfig, HillClimbConfig, GradientDescentConfig]


@dataclass(frozen=True)
class IterationRecord(Record):
    """One trace row: the cost of an evaluation, and f_min and n_calls after it."""

    record: str = field(default="iteration", init=False)
    index: int
    cost: float
    f_min: float
    n_calls: int


class RunTrace(MinimumTracker):
    """One optimization run, made from ``run``'s arguments.  ``points`` is the
    round it asks for, to be measured with ``shots`` shots per point, or None
    once the run is done; ``tell`` takes that round's sample sets.
    ``psucc_hit`` is whether the last set held a minimizer.  With
    ``final_probe`` and n_iter > 0 the last round is the probe, M shots at
    ``final_theta``: scored by a tracker of its own, it sets ``psucc_hit`` and
    ``probe_shots`` = M and stays out of the records, ``n_calls``, ``f_min``
    and ``first_hit_calls``.  At n_iter = 0 the one theta0 sample decides
    both flags."""

    def __init__(self, spec: AnsatzSpec, ground: GroundTruth, config: OptimizerConfig,
                 cost_kind: CostKind, shots: int, n_iter: int, theta0: np.ndarray, *,
                 rng: np.random.Generator, final_probe: bool = False) -> None:
        if n_iter < 0:
            raise DomainError(f"n_iter must be >= 0, got {n_iter}")
        check_shots(shots)
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
            rounds = trust_region_rounds(theta0, n_iter, config.initial_radius,
                                         config.final_radius, rng)
        elif isinstance(config, HillClimbConfig):
            rounds = hill_climb_rounds(theta0, n_iter, config.step_norm, rng)
        elif gradient:
            rounds = gradient_descent_rounds(theta0, n_iter, config)
        else:
            raise DomainError(f"unknown optimizer config {type(config).__name__}")
        super().__init__(ground.minimizers)
        # gradient rounds are scored with the mean whatever the run's cost kind
        self._kind, self.shots = (MEAN, config.shots_per_circuit) if gradient else (cost_kind, shots)
        self._rounds, self._gradient, self._probe_m = rounds, gradient, shots
        self._probe = MinimumTracker(ground.minimizers) if final_probe and n_iter > 0 else None
        self.records: list[IterationRecord] = []
        self.final_theta: np.ndarray | None = None
        self.psucc_hit, self.probe_shots = False, 0
        self.points: np.ndarray | None = next(rounds)

    def tell(self, sets: list[SampleSet]) -> None:
        """Take the sample sets of the round ``points`` asked for, in order."""
        if self._rounds is None:  # the final probe
            self.psucc_hit, self.probe_shots = self._probe.observe(sets[0]), self.shots
            self.points = None
            return
        values = []
        for samples in sets:
            self.psucc_hit = self.observe(samples)
            values.append(cost(samples, self._kind))
            if not self._gradient:
                self._record(values[-1])
        if self._gradient:
            self._record(float(np.mean(np.concatenate([s.energies for s in sets]))))
        try:
            self.points = self._rounds.send(values)
        except StopIteration as done:
            self._rounds, self.final_theta, self.points = None, done.value[0], None
            if self._probe is not None:
                self.points, self.shots = self.final_theta[None], self._probe_m

    def _record(self, value: float) -> None:
        self.records.append(IterationRecord(len(self.records) + 1, value, self.f_min, self.n_calls))


def step_hill_climb(theta: np.ndarray, step_norm: float, rng: np.random.Generator) -> np.ndarray:
    """Propose theta + delta with delta uniform on the sphere of radius step_norm."""
    _check_angle("step norm", step_norm)
    while True:
        direction = rng.standard_normal(len(theta))
        norm = float(np.linalg.norm(direction))
        if norm > 0:
            return theta + (step_norm / norm) * direction


def step_gradient_descent(theta: np.ndarray, gradient: np.ndarray, learning_rate: float) -> np.ndarray:
    if np.shape(theta) != np.shape(gradient):
        raise DomainError("gradient shape does not match parameters")
    with np.errstate(over="ignore"):  # an infinite angle is refused where it is prepared
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
    (best,) = yield incumbent[None]
    for _ in range(budget - 1):
        proposal = step_hill_climb(incumbent, step_norm, rng)
        (value,) = yield proposal[None]
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

    Asks for exactly ``budget`` evaluations: a first round of theta0 and
    the n coordinate points theta0 + rho e_i that seed the simplex, then
    one point per round.  Steps are either trust-region moves
    of length rho against the interpolated gradient, geometry refreshes
    that pull the farthest vertex back to distance rho from the best point,
    or random probes when the model is flat.  rho halves whenever a move
    fails to improve the best value, never below ``final_radius``.  There a
    stalled simplex, whose estimates do not move it, proposes the same point
    again, round after round.

    Returns the best point and its recorded value.
    """
    if budget < 1:
        raise DomainError(f"budget must be >= 1, got {budget}")
    theta0 = np.asarray(theta0, dtype=float)
    n = theta0.size
    rho = initial_radius

    filled = 1 + min(n, budget - 1)  # the simplex, cut short by a small budget
    points = np.repeat(theta0[None], filled, axis=0)
    points[np.arange(1, filled), np.arange(filled - 1)] += rho
    values = np.array((yield points.copy()), dtype=float)

    for _ in range(budget - filled):
        best = int(np.argmin(values))
        worst = int(np.argmax(values))
        offsets = points - points[best]
        dists = np.sqrt((offsets * offsets).sum(axis=1))
        far = int(np.argmax(dists))

        if dists[far] > 3.0 * rho:
            # geometry refresh: keep the simplex at the trust-region scale
            x = points[best] + rho * _random_unit(rng, n)
            points[far], (values[far],) = x, (yield x[None])
            continue

        mask = np.arange(filled) != best
        rows = offsets[mask]
        deltas = values[mask] - values[best]
        try:  # the simplex is full here, so ``rows`` is n x n
            grad = np.linalg.solve(rows, deltas)
        except np.linalg.LinAlgError:
            grad, *_ = np.linalg.lstsq(rows, deltas, rcond=None)
        with np.errstate(over="ignore"):  # near the energy limit grad @ grad overflows
            squared = float(grad @ grad)
        gnorm = math.sqrt(squared) if squared < math.inf else math.hypot(*grad)

        if gnorm <= 1e-12 * max(1.0, abs(values[best])):
            # flat model, usually drowned by shot noise: probe and shrink
            x = points[best] + rho * _random_unit(rng, n)
            (f,) = yield x[None]
            if f < values[worst]:
                points[worst], values[worst] = x, f
            rho = max(0.5 * rho, final_radius)
            continue

        x = points[best] - (rho / gnorm) * grad
        (f,) = yield x[None]
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
    """theta -= eta * grad over ``n_iter`` rounds of theta's shifted points.

    Each round is sent the mean costs of its points.  Returns (final theta, None).
    """
    if config.gradient == "param-shift":
        shift, denominator = PARAM_SHIFT_RULE
    else:
        shift, denominator = config.step, 2.0 * config.step
    theta = np.array(theta0, dtype=float)
    for _ in range(n_iter):
        means = yield shifted_points(theta, shift)
        grad = central_difference(means, denominator)
        theta = step_gradient_descent(theta, grad, config.learning_rate)
    return theta, None


def _measure_once(theta0: np.ndarray) -> Generator:
    """The n_iter = 0 run: one round measuring theta0."""
    (value,) = yield theta0[None]
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
    *,
    rng: np.random.Generator,
    final_probe: bool = False,
) -> RunTrace:
    """Execute one optimization run, a ``RunTrace`` of these arguments (whose
    docstring states the final-probe rule), sampling each round's points together."""
    trace = RunTrace(spec, ground, config, cost_kind, shots, n_iter, theta0,
                     rng=rng, final_probe=final_probe)
    table = energy_table(instance)
    held: dict = {}  # the state of the last one-point ideal round, for a repeat of it
    while trace.points is not None:
        trace.tell(sample_round(spec, trace.points, table, trace.shots, noise, rng, held))
    return trace


def write_trace(path: str | Path, trace: RunTrace, config_echo: dict) -> None:
    """JSON-lines export: a config header, one row per iteration, a summary."""
    rows = [
        {"record": "config", "schema_version": TRACE_SCHEMA_VERSION, **config_echo},
        *(rec.to_json() for rec in trace.records),
        {"record": "summary", "success": trace.success, "psucc_hit": trace.psucc_hit,
         "first_hit_calls": trace.first_hit_calls, "f_min": trace.f_min,
         "n_calls": trace.n_calls, "probe_shots": trace.probe_shots,
         "final_theta": trace.final_theta.tolist()},
    ]
    write_atomic(path, "".join(json.dumps(row, sort_keys=True) + "\n" for row in rows))
