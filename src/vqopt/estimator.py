"""Shot-based cost estimation, CVaR aggregation, and the gradient rules' points.

A circuit evaluation (``sample``) draws M bitstrings from the prepared
state and scores them against the instance's energy table; ``cost``
aggregates them with either the plain mean or the CVaR rule (average of
the lowest alpha-fraction).  Both gradient rules measure the 2 * n_par
``shifted_points`` and combine their values with ``central_difference``:
parameter shift with ``PARAM_SHIFT_RULE``, a finite difference of step h
with (h, 2h).  ``optimizer.run`` samples each point with its own batch of
shots and scores it with the mean.  Nothing here keeps a shot count across
calls: inside an optimization run, ``optimizer.run`` is the only place
that counts shots.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import simulator as sim
from .ansatz import AnsatzSpec, prepare_state
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


def exact_cost(spec: AnsatzSpec, theta: np.ndarray, instance: IsingInstance) -> float:
    """Noise- and shot-free expectation value; the state-vector reference."""
    state = prepare_state(spec, theta)
    return sim.expectation_diagonal(state, energy_table(instance))


def shifted_points(theta: np.ndarray, shift: float) -> np.ndarray:
    """The 2 * n_par points theta +- shift*e_n, ordered +e_0, -e_0, +e_1, ...

    Both gradient rules measure these points in this order and combine
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
