"""Shot-based cost estimation, CVaR aggregation, and gradient estimators.

A circuit evaluation (``sample``) draws M bitstrings from the prepared
state and scores them against the instance's energy table; ``cost``
aggregates them with either the plain mean or the CVaR rule (average of
the lowest alpha-fraction).  Gradient estimators always aggregate with
the mean, and each of the 2 * n_par ``shifted_points`` uses its own batch
of shots.  Nothing here keeps a shot count across calls: inside an
optimization run, ``optimizer.run`` is the only place that counts shots.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import simulator as sim
from .ansatz import FAMILY_VQE, AnsatzSpec, prepare_state
from .errors import DomainError
from .ising import IsingInstance, energy_table
from .simulator import NoiseModel


@dataclass(frozen=True)
class SampleSet:
    """Measured bitstrings and their energies from one circuit execution."""

    bitstrings: np.ndarray  # (M,) integer bitstrings in draw order
    energies: np.ndarray  # (M,) energies f(x_i)
    shots_spent: int

    def __len__(self) -> int:
        return int(self.bitstrings.size)


@dataclass(frozen=True)
class CostKind:
    """Aggregation rule: retain the best ``alpha`` fraction of shots.

    ``alpha = 1.0`` is the plain sample mean; smaller values give the CVaR
    estimator over the lowest-energy samples.
    """

    alpha: float = 1.0

    def __post_init__(self) -> None:
        if not 0.0 < self.alpha <= 1.0:
            raise DomainError(f"alpha must be in (0, 1], got {self.alpha}")


MEAN = CostKind(1.0)
CVAR25 = CostKind(0.25)

# (shift, denominator) of the parameter-shift rule; finite differences use (h, 2h)
PARAM_SHIFT_RULE = (math.pi / 2, 2.0)


def mean_cost(samples: SampleSet) -> float:
    if len(samples) == 0:
        raise DomainError("empty sample set")
    return float(samples.energies.mean())


def cvar_cost(samples: SampleSet, alpha: float) -> float:
    """Average of the M* = max(1, floor(alpha * M)) lowest energies.

    Ties are broken by bitstring value so the retained set is deterministic.
    """
    if not 0.0 < alpha <= 1.0:
        raise DomainError(f"alpha must be in (0, 1], got {alpha}")
    m = len(samples)
    if m == 0:
        raise DomainError("empty sample set")
    retained = max(1, math.floor(alpha * m))
    if retained >= m:
        return float(samples.energies.mean())
    order = np.lexsort((samples.bitstrings, samples.energies))
    return float(samples.energies[order[:retained]].mean())


def cost(samples: SampleSet, kind: CostKind) -> float:
    if kind.alpha == 1.0:
        return mean_cost(samples)
    return cvar_cost(samples, kind.alpha)


def sample(
    spec: AnsatzSpec,
    theta: np.ndarray,
    table: np.ndarray,
    shots: int,
    noise: NoiseModel | None,
    rng: np.random.Generator,
) -> SampleSet:
    """Prepare the state at ``theta`` and draw ``shots`` scored measurements."""
    state = prepare_state(spec, theta, noise=noise, rng=rng)
    bitstrings = sim.sample_shots(state, shots, rng)
    return SampleSet(bitstrings=bitstrings, energies=table[bitstrings], shots_spent=shots)


def evaluate(
    spec: AnsatzSpec,
    theta: np.ndarray,
    instance: IsingInstance,
    shots: int,
    kind: CostKind = MEAN,
    noise: NoiseModel | None = None,
    rng: np.random.Generator | None = None,
) -> tuple[float, SampleSet]:
    """Prepare the state, draw ``shots`` measurements, aggregate with ``kind``."""
    if rng is None:
        raise DomainError("evaluate needs an rng")
    samples = sample(spec, theta, energy_table(instance), shots, noise, rng)
    return cost(samples, kind), samples


def exact_cost(spec: AnsatzSpec, theta: np.ndarray, instance: IsingInstance) -> float:
    """Noise- and shot-free expectation value; the state-vector reference."""
    state = prepare_state(spec, theta)
    return sim.expectation_diagonal(state, energy_table(instance))


def shifted_points(theta: np.ndarray, shift: float) -> np.ndarray:
    """The 2 * n_par points theta +- shift*e_n, ordered +e_0, -e_0, +e_1, ...

    Both gradient rules evaluate these points in this order and combine
    them with ``central_difference``.
    """
    theta = np.asarray(theta, dtype=float)
    n = np.arange(theta.size)
    points = np.repeat(theta[None, :], 2 * theta.size, axis=0)
    points[2 * n, n] += shift
    points[2 * n + 1, n] -= shift
    return points


def central_difference(values, denominator: float) -> np.ndarray:
    """Gradient from values at ``shifted_points`` order: (f[2n] - f[2n + 1]) / denominator."""
    values = np.asarray(values, dtype=float)
    return (values[0::2] - values[1::2]) / denominator


def _shift_gradient(spec, theta, instance, rule, shots_per_eval, rng, noise):
    """(gradient, shots spent) from mean costs at the points of ``rule``."""
    shift, denominator = rule
    points = shifted_points(theta, shift)
    if shots_per_eval is None:  # exact expectation mode, no shots
        means, shots = [exact_cost(spec, x, instance) for x in points], 0
    else:
        table = energy_table(instance)
        means = [mean_cost(sample(spec, x, table, shots_per_eval, noise, rng)) for x in points]
        shots = len(points) * shots_per_eval
    return central_difference(means, denominator), shots


def grad_param_shift(
    spec: AnsatzSpec,
    theta: np.ndarray,
    instance: IsingInstance,
    shots_per_eval: int | None,
    rng: np.random.Generator | None = None,
    noise: NoiseModel | None = None,
) -> tuple[np.ndarray, int]:
    """Exact-formula gradient from +-pi/2 shifted evaluations.

    Only valid for the RY-CNOT family (every parametrized gate is a
    half-Pauli rotation).  Component n is (<H>_+ - <H>_-) / 2, each side
    estimated with ``shots_per_eval`` mean-cost shots (None = exact mode).
    """
    if spec.family != FAMILY_VQE:
        raise DomainError("parameter-shift gradients require the RY-CNOT family")
    return _shift_gradient(spec, theta, instance, PARAM_SHIFT_RULE, shots_per_eval, rng, noise)


def grad_finite_diff(
    spec: AnsatzSpec,
    theta: np.ndarray,
    instance: IsingInstance,
    step: float,
    shots_per_eval: int | None,
    rng: np.random.Generator | None = None,
    noise: NoiseModel | None = None,
) -> tuple[np.ndarray, int]:
    """Central-difference gradient with increment ``step`` on mean-cost estimates."""
    if step <= 0:
        raise DomainError(f"finite-difference step must be positive, got {step}")
    return _shift_gradient(spec, theta, instance, (step, 2.0 * step), shots_per_eval, rng, noise)


def minimizer_hits(bitstrings: np.ndarray, minimizers: np.ndarray) -> np.ndarray:
    """Boolean mask of draws that landed on a global minimizer."""
    if minimizers.size == 1:
        return bitstrings == minimizers[0]
    return np.isin(bitstrings, minimizers)


class MinimumTracker:
    """Running record of the best energy seen and the first ground-state hit.

    ``observe`` scans one sample set in draw order; the first-hit counter is
    the cumulative number of shots up to and including the hitting shot.
    """

    def __init__(self, minimizers) -> None:
        self._minimizers = np.asarray(sorted(minimizers), dtype=np.int64)
        self.f_min = math.inf
        self.shots_seen = 0
        self.first_hit_calls: int | None = None

    @property
    def hit(self) -> bool:
        return self.first_hit_calls is not None

    def observe(self, samples: SampleSet) -> bool:
        """Fold one sample set in; returns True if it contains a minimizer."""
        low = float(samples.energies.min())
        if low < self.f_min:
            self.f_min = low
        hits = minimizer_hits(samples.bitstrings, self._minimizers)
        found = bool(hits.any())
        if found and self.first_hit_calls is None:
            self.first_hit_calls = self.shots_seen + int(np.argmax(hits)) + 1
        self.shots_seen += len(samples)
        return found


def samples_to_csv(samples: SampleSet, path: str | Path) -> None:
    """Write rows (shot_index, bitstring_hex, energy)."""
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["shot_index", "bitstring_hex", "energy"])
        for i, (x, e) in enumerate(zip(samples.bitstrings, samples.energies)):
            writer.writerow([i, format(int(x), "x"), repr(float(e))])
