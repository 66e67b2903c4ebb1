"""Shot-based cost estimation, CVaR aggregation, and the gradient rules' points.

A circuit evaluation draws M bitstrings from the prepared state and
scores them against the instance's energy table.  ``sample_round`` is
the one sampling entry: it evaluates the points of one optimizer round
(a single point is a round of one row), drawing the round's uniforms
with one generator call, in the order the points would draw them one by
one (each point's relaxation draws, then its M shot draws), and prepares
the points as batches of states, sized by the plan's dtype, before
sampling each row; ``prepare_state`` draws nothing itself.  A run passes
a dict, ``held``, that keeps the state of its last one-point ideal
round: an ideal state is a pure function of theta, so a repeat of that
point draws fresh shots from the held, read-only state and prepares
nothing, which leaves the generator stream as it was.  ``cost`` is the
CVaR rule (average of the lowest alpha-fraction), whose alpha = 1 case
is the plain mean; ``mean_cost`` is that case's bit-for-bit reference.
Both gradient rules measure the 2 * n_par ``shifted_points`` and
combine their values with ``central_difference``: parameter shift with
``PARAM_SHIFT_RULE``, a finite difference of step h with (h, 2h).
An ``optimizer.RunTrace`` asks for each point with its own batch of
shots and scores it with the mean.  A ``MinimumTracker`` tests sample sets
for ground-state hits, keeps the lowest energy and counts the shots; an
``optimizer.RunTrace`` is one, and a final probe is scored by a fresh
one.  A depth sweep, which runs no optimizer, tests its R x M draws
itself.  ``exact_cost`` is the noise- and shot-free reference the tests
compare against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import simulator as sim
from .ansatz import AnsatzSpec, compile_plan, prepare_state
from .errors import CapacityError, DomainError
from .ising import IsingInstance, energy_table
from .simulator import NoiseModel

# A round's states are prepared in batches of at most 128 KB of amplitudes;
# where fewer than _MIN_BATCH states fit, or are left, they go one by one.
# Measured per state at L 6-12, P 1-64 (see CHANGES.md): batches of 2-3
# states cost more than single ones, and so do complex batches at L = 12.
_BATCH_BYTES = 1 << 17
_MIN_BATCH = 4
MAX_SHOTS = 1 << 63  # a shot count is an array length, which numpy keeps below 2^63
MAX_UNIFORMS = 1 << 60  # doubles in one array, which numpy keeps below 2^63 bytes


@dataclass(frozen=True)
class SampleSet:
    """Measured bitstrings and their energies from one circuit execution."""

    bitstrings: np.ndarray  # (M,) integer bitstrings in draw order
    energies: np.ndarray  # (M,) energies f(x_i)

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


def cost(samples: SampleSet, kind: CostKind) -> float:
    """Average of the M* = max(1, floor(kind.alpha * M)) lowest energies;
    alpha = 1 gives the sample mean.

    Ties are broken by bitstring value so the retained set is deterministic.
    """
    m = len(samples)
    if m == 0:
        raise DomainError("empty sample set")
    retained = max(1, math.floor(kind.alpha * m))
    if retained >= m:
        return float(samples.energies.mean())
    order = np.lexsort((samples.bitstrings, samples.energies))
    return float(samples.energies[order[:retained]].mean())


def sample_round(
    spec: AnsatzSpec,
    points: np.ndarray,
    table: np.ndarray,
    shots: int,
    noise: NoiseModel | None,
    rng: np.random.Generator,
    held: dict | None = None,
) -> list[SampleSet]:
    """Prepare the state at each row of ``points`` and draw ``shots`` scored
    measurements from each; one sample set per point, in order.

    ``held``, kept by one run of one spec and noise model, maps the bytes
    of its last one-point round that drew no preparation uniforms to that
    round's read-only state.  A round asking for the same point again
    samples that state and prepares nothing; any other round drops it first.
    """
    points = np.asarray(points, dtype=float)
    plan = compile_plan(spec, noise)
    # rng.random(n) returns the doubles of n scalar draws, so this is the
    # stream of sampling the points one after another
    uniforms = draw_uniforms(rng, len(points), shots, plan.draws)
    held = {} if held is None else held
    key = points.tobytes() if plan.draws == 0 and len(points) == 1 else None
    if key not in held:
        held.clear()  # at most one state is held, and never next to a new one
    sets = []
    for batch in _batches(len(points), _BATCH_BYTES // (plan.dtype.itemsize << spec.size)):
        states = [held[key]] if key in held else prepare_state(
            spec, points[batch], noise, uniforms[batch, :plan.draws])
        for state, shot_uniforms in zip(states, uniforms[batch, plan.draws:]):
            bitstrings = sim.sample_shots(state, shot_uniforms)
            sets.append(SampleSet(bitstrings=bitstrings, energies=table[bitstrings]))
    if key is not None:
        state.flags.writeable = False
        held[key] = state
    return sets


def check_shots(shots: int) -> None:
    """Refuse a shot count outside [1, 2^63)."""
    if not 1 <= shots < MAX_SHOTS:
        raise DomainError(f"shots must be in [1, 2^63), got {shots}")


def check_uniforms(rows: int, shots: int, draws: int = 0) -> None:
    """Refuse a bad shot count, and rows of uniforms past the 2^60 one array holds."""
    check_shots(shots)
    if rows * (draws + shots) >= MAX_UNIFORMS:
        raise CapacityError(f"{rows} x {draws + shots} uniforms exceed the 2^60 one array holds")


def draw_uniforms(rng: np.random.Generator, rows: int, shots: int, draws: int = 0) -> np.ndarray:
    """``rows`` rows of ``draws`` preparation uniforms, then ``shots`` shot uniforms,
    in one call; refused by :func:`check_uniforms` before drawing."""
    check_uniforms(rows, shots, draws)
    return rng.random((rows, draws + shots))


def _batches(count: int, rows: int):
    """Slices of up to ``rows`` of ``count`` points; fewer than _MIN_BATCH go one by one."""
    lo = 0
    while lo < count:
        hi = min(lo + rows, count)
        if hi - lo < _MIN_BATCH:
            hi = lo + 1
        yield slice(lo, hi)
        lo = hi


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


class MinimumTracker:
    """Running record of the best energy seen and the first ground-state hit.

    ``observe`` scans one sample set in draw order; the first-hit counter is
    the cumulative number of shots up to and including the hitting shot.
    """

    def __init__(self, minimizers) -> None:
        self._minimizers = np.asarray(sorted(minimizers), dtype=np.int64)
        self.f_min = math.inf
        self.n_calls = 0
        self.first_hit_calls: int | None = None

    @property
    def success(self) -> bool:
        return self.first_hit_calls is not None

    def observe(self, samples: SampleSet) -> bool:
        """Fold one sample set in; returns True if it contains a minimizer."""
        low = float(samples.energies.min())
        if low < self.f_min:
            self.f_min = low
        if self._minimizers.size == 1:
            hits = samples.bitstrings == self._minimizers[0]
        else:
            hits = np.isin(samples.bitstrings, self._minimizers)
        found = bool(hits.any())
        if found and self.first_hit_calls is None:
            self.first_hit_calls = self.n_calls + int(np.argmax(hits)) + 1
        self.n_calls += len(samples)
        return found
