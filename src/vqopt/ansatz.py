"""Parametrized circuit families and their parameter initializations.

Two families are covered:

* ``vqe-ry-cnot`` — ``d`` blocks of a full RY rotation layer followed by a
  CNOT ladder (qubit j-1 controls qubit j, ascending, open boundaries),
  closed by one final RY layer, acting on |0...0>.  L*(d+1) angles,
  layer-major layout.
* ``qaoa`` — ``d`` blocks of problem phase exp(-i theta_P H_P) and mixer
  exp(+i theta_M H_M) with H_M = sum_j X_j, acting on |+>^L.  2*d angles,
  interleaved layout [theta_P^1, theta_M^1, ..., theta_P^d, theta_M^d].
  The relative sign of the two exponents is what makes the circuit a
  digitized anneal: |+> is the ground state of -H_M, and a schedule that
  ramps theta_P up while theta_M decays drags the state toward the
  minimizers of f (same-sign exponents would target the maximizers).

The problem phase is applied as an exact diagonal using the instance's
energy table; an equivalent RZZ/RZ gate decomposition is used on the
noisy path so that every physical gate passes through the noise channel.

:func:`compile_plan` turns a spec and an optional noise model into a
:class:`Plan`, a flat list of steps, once per pair (the plans are cached
on the spec), and :func:`prepare_state` runs the steps in one loop, on
one state or on a batch of P states with a parameter vector per row.  A
noisy plan follows every gate with one relaxation step per touched qubit,
and knows how many uniforms a state's relaxations take, so they can be
drawn before it runs.  A plan also carries its states' dtype: float64
for RY-CNOT, complex128 for QAOA.  An ideal RY-CNOT plan starts from its
first RY layer built as a product state and applies each CNOT ladder as
one precomputed permutation of the amplitudes.  An ideal QAOA layer is
two cache-blocked steps.  The phase runs on each contiguous chunk of 2^B
amplitudes (B = 14, a 256 KB chunk that stays in a 1 MB L2 cache) with
its slice of the energy table.  The mixer rotates qubits 0..B-1 on each
chunk, then qubits B..L-1 on column blocks: a row of 2^L amplitudes is a
(2^(L-B), 2^B) grid, and a block of 2^k of its columns (k = max(0,
2B-L)), 2^B amplitudes in all, is copied into a contiguous tile, whose
qubits k..k+L-B-1 are the high qubits, rotated there and copied back.  A
tile's rows are adjacent, where a block's rows lie 2^B amplitudes apart
and compete for the same cache sets.  So above L = B no rotation or
phase touches more than a chunk plus its temporaries, and each reaches
the simulator once per chunk or tile.  Every amplitude sees the same
operations in the same order, so the bits are those of one full-state
phase and one full-state RX per qubit.  A mixer layer whose angles are
all +-0, as the linear schedule's last one is, returns at once when no
real or imaginary part of the state is zero: RX(+-0) has c = 1 and s =
+-0, so its cross terms are zeros, x*1 - y*0 and x*0 + y*1 are x and y
for nonzero x and y, and adding zeros leaves them as they are.  Where a
part is zero the sign of that zero may change, so the layer runs.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Callable
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import simulator as sim
from .errors import DomainError
from .ising import IsingInstance, energy_table
from .simulator import NoiseModel

FAMILY_VQE = "vqe-ry-cnot"
FAMILY_QAOA = "qaoa"


def check_family(family: str) -> None:
    if family not in (FAMILY_VQE, FAMILY_QAOA):
        raise DomainError(f"unknown ansatz family {family!r}")


@dataclass(frozen=True)
class AnsatzSpec:
    """Circuit family, width, depth, and (for QAOA) the target instance."""

    family: str
    size: int
    depth: int
    instance: IsingInstance | None = None

    def __post_init__(self) -> None:
        check_family(self.family)
        if self.depth < 1:
            raise DomainError(f"depth must be >= 1, got {self.depth}")
        if self.size < 2:
            raise DomainError(f"size must be >= 2, got {self.size}")
        if self.family == FAMILY_QAOA:
            if self.instance is None:
                raise DomainError("qaoa ansatz needs its problem instance")
            if self.instance.size != self.size:
                raise DomainError("instance size does not match ansatz size")
        object.__setattr__(self, "_plans", {})  # noise model (or None) -> Plan

    @property
    def n_params(self) -> int:
        if self.family == FAMILY_VQE:
            return self.size * (self.depth + 1)
        return 2 * self.depth

    def to_json(self) -> dict:
        ref = None
        if self.instance is not None:
            ref = {
                "kind": self.instance.kind,
                "L": self.instance.size,
                "seed": self.instance.seed,
            }
        return {"family": self.family, "L": self.size, "d": self.depth, "instance_ref": ref}


def _check_params(spec: AnsatzSpec, theta: np.ndarray) -> np.ndarray:
    theta = np.asarray(theta, dtype=float)
    if theta.ndim not in (1, 2) or theta.shape[-1] != spec.n_params or not theta.size:
        raise DomainError(
            f"expected {spec.n_params} parameters for {spec.family}, "
            f"got shape {theta.shape}"
        )
    return _check_angles(theta)


def _check_angles(theta: np.ndarray) -> np.ndarray:
    # NaN fails too; as sum |J| + sum |h| < float max / 2^64, |theta| < 2^62 keeps
    # every angle a plan forms (gamma E, 2 J gamma, 2 h gamma, 2 beta) < max / 2
    if not (largest := np.abs(theta).max()) < 2.0**62:
        raise DomainError(f"angles must be finite with |theta| < 2^62, got {largest}")
    return theta


class Plan(NamedTuple):
    """A circuit compiled for one noise model.  ``start(angles)`` makes the
    initial state, of ``dtype``, and each step, called as ``step(state,
    angles, draws)``, acts on it in order, in place or by returning the
    state it leaves.  ``angles[i]`` is parameter i, a
    float for one state or a column of P values for a batch; ``draws[i]`` is
    likewise uniform i of the ``draws`` that one state's relaxations take."""

    start: Callable[[np.ndarray], np.ndarray]
    steps: tuple[Callable, ...]
    draws: int
    dtype: np.dtype


# The ideal mixer's chunk: 2^14 complex amplitudes (256 KB) fit a 1 MB L2
# cache; measured against 2^12-2^16 at L 16-20, and with tiles against
# 2^13-2^16 (2^15 ran as fast, 2^13 and 2^16 slower).
_BLOCK_QUBITS = 14

# Start and step kernels: the plan binds the leading arguments, the loop
# passes the rest.  Gates are looked up on the simulator at call time, so a
# wrapper installed there (a tracer, a test's spy) sees every call, save
# the CNOTs of an ideal ladder, which run as one gather, and the first RY
# layer of an ideal RY-CNOT plan, which is built as a product.


def _rows(angles):
    return None if angles.ndim == 1 else angles.shape[1]


def _zero_start(size, angles):
    return sim.init_zero(size, float, _rows(angles))


def _plus_start(size, angles):
    return sim.init_plus(size, _rows(angles))


def _product_start(size, angles):
    return sim.init_ry_product(size, angles[:size])


def _ry(qubit, index, state, angles, draws):
    sim.apply_ry(state, qubit, angles[index])


def _mixer(qubit, index, state, angles, draws):
    # exp(i beta X_j) = rx(2 beta) under the rx sign convention
    sim.apply_rx(state, qubit, 2.0 * angles[index])


def _mixer_layer(size, index, state, angles, draws):
    # the ideal mixer, cache-blocked: the low qubits chunk by chunk, then the
    # rest on column blocks of the (2^(L-B), 2^B) grid of a row, each copied
    # into a contiguous tile whose qubits k..k+L-B-1 are the high qubits; up
    # to B qubits a row is one chunk, so a batch rotates as a whole.  RX(+-0)
    # keeps every bit of a state with no zero part (x*1 - y*0 = x), so skip it
    # (count_nonzero: np.any takes 4-5 us, a tenth of an L = 6 preparation)
    angle = 2.0 * angles[index]
    if not np.count_nonzero(angle) and state.view(float).all():
        return
    if size <= _BLOCK_QUBITS:
        for j in range(size):
            sim.apply_rx(state, j, angle)
        return
    chunk_size = 1 << _BLOCK_QUBITS
    k = max(0, 2 * _BLOCK_QUBITS - size)
    cols = 1 << k  # a block of 2^B amplitudes
    tile = np.empty((1 << (size - _BLOCK_QUBITS), cols), dtype=state.dtype)
    flat = tile.reshape(-1)
    for row, row_angle in zip(state.reshape(-1, 1 << size), np.ravel(angle)):
        grid = row.reshape(-1, chunk_size)
        for chunk in grid:
            for j in range(_BLOCK_QUBITS):
                sim.apply_rx(chunk, j, row_angle)
        for lo in range(0, chunk_size, cols):
            block = grid[:, lo:lo + cols]
            tile[...] = block
            for j in range(k, k + size - _BLOCK_QUBITS):
                sim.apply_rx(flat, j, row_angle)
            block[...] = tile


def _phase(table, index, state, angles, draws):
    # one 2^B chunk of every row at a time, with its slice of the table
    gamma, step = -angles[index], min(table.size, 1 << _BLOCK_QUBITS)
    for lo in range(0, table.size, step):
        sim.apply_diagonal_phase(state[..., lo:lo + step], table[lo:lo + step], gamma)


def _rzz(qubit, scale, index, state, angles, draws):
    sim.apply_rzz(state, qubit, qubit + 1, scale * angles[index])


def _rz(qubit, scale, index, state, angles, draws):
    sim.apply_rz(state, qubit, scale * angles[index])


def _cnot(control, state, angles, draws):
    sim.apply_cnot(state, control, control + 1)


def _permute(perm, state, angles, draws):
    return np.take(state, perm, axis=-1)


def _relax(qubit, channel, part, state, angles, draws):
    sim.relax(state, qubit, channel, draws[part])


@functools.cache
def _ladder_permutation(size: int) -> np.ndarray:
    """Gather indices of one CNOT ladder: the ladder maps amps to amps[perm]."""
    index = np.arange(1 << size)
    for j in range(size - 1):
        sim.apply_cnot(index, j, j + 1)
    index.setflags(write=False)
    return index


def compile_plan(spec: AnsatzSpec, noise: NoiseModel | None = None) -> Plan:
    """The plan of ``spec`` under ``noise``, compiled on first use and cached on the spec."""
    plan = spec._plans.get(noise)
    if plan is None:
        plan = spec._plans[noise] = _compile(spec, noise)
    return plan


def _compile(spec: AnsatzSpec, noise: NoiseModel | None) -> Plan:
    size, depth = spec.size, spec.depth
    steps: list[Callable] = []
    draws = 0  # uniforms taken so far by one state's relaxations

    def gate(qubits: tuple[int, ...], kernel, *args) -> None:
        nonlocal draws
        steps.append(functools.partial(kernel, *args))
        if noise is not None:
            channel = noise.channel(noise.gate_ns(len(qubits)))
            taken = sim.channel_draws(channel)
            for q in qubits:
                steps.append(functools.partial(_relax, q, channel, slice(draws, draws + taken)))
                draws += taken

    if spec.family == FAMILY_VQE:
        for layer in range(depth + 1):
            if layer or noise is not None:  # an ideal plan starts past its first layer
                for j in range(size):
                    gate((j,), _ry, j, layer * size + j)
            if layer == depth:
                break
            if noise is None:
                steps.append(functools.partial(_permute, _ladder_permutation(size)))
            else:
                for j in range(size - 1):
                    gate((j, j + 1), _cnot, j)
        start = _product_start if noise is None else _zero_start
        return Plan(functools.partial(start, size), tuple(steps), draws, np.dtype(float))

    # The noisy phase is the RZZ/RZ decomposition of exp(-i gamma H_P), exact
    # since all terms commute: H_P = -sum J_j Z_j Z_{j+1} - sum h_j Z_j in qubit
    # space, so each bond is rzz(2 gamma J_j) and each site rz(2 gamma h_j).
    instance = spec.instance
    table = energy_table(instance) if noise is None else None
    for layer in range(depth):
        gamma, beta = 2 * layer, 2 * layer + 1  # their positions in theta
        if noise is None:
            steps += [functools.partial(_phase, table, gamma),
                      functools.partial(_mixer_layer, size, beta)]
            continue
        for j in range(size - 1):
            gate((j, j + 1), _rzz, j, 2.0 * float(instance.couplings[j]), gamma)
        for j in range(size):
            gate((j,), _rz, j, 2.0 * float(instance.fields[j]), gamma)
        for j in range(size):
            gate((j,), _mixer, j, beta)
    return Plan(functools.partial(_plus_start, size), tuple(steps), draws, np.dtype(complex))


def prepare_state(
    spec: AnsatzSpec,
    theta: np.ndarray,
    noise: NoiseModel | None = None,
    uniforms: np.ndarray | None = None,
) -> np.ndarray:
    """Run the circuit and return the prepared state, shaped (2^L,).

    ``theta`` is one parameter vector, or a (P, n_params) batch whose
    states come back as the rows of a (P, 2^L) array, each with the bits it
    gets on its own.  With a noise model, every gate is followed by one
    sampled relaxation trajectory on the qubits it touches (initial-state
    preparation itself is noiseless).  The trajectories take
    ``compile_plan(spec, noise).draws`` uniforms per state, which the
    caller draws and passes as ``uniforms``, shaped ``theta.shape[:-1] +
    (draws,)``; an ideal preparation takes none and ignores them.
    """
    theta = _check_params(spec, theta)
    plan = compile_plan(spec, noise)
    draws = None
    if noise is not None:
        shape = theta.shape[:-1] + (plan.draws,)
        got = None if uniforms is None else np.shape(uniforms)
        if got != shape:
            raise DomainError(f"noisy preparation needs uniforms of shape {shape}, got {got}")
        draws = np.asarray(uniforms, dtype=float)
    one_row = theta.ndim == 2 and len(theta) == 1  # a batch of one runs as one state
    if one_row:
        theta, draws = theta[0], None if draws is None else draws[0]
    angles = theta.T  # angles[i] is parameter i, a float or one value per row
    if draws is not None:
        draws = draws.T
    state = plan.start(angles)
    for step in plan.steps:
        new = step(state, angles, draws)
        state = state if new is None else new
    return state[None] if one_row else state


def init_random(
    spec: AnsatzSpec,
    rng: np.random.Generator,
    low: float = -math.pi,
    high: float = math.pi,
) -> np.ndarray:
    """I.i.d. uniform angles in (low, high)."""
    if not (low < high and high - low < math.inf):  # NaN and inf fail too
        raise DomainError(f"invalid range [{low}, {high})")
    return rng.uniform(low, high, size=spec.n_params)


def init_linear_schedule(depth: int, dt: float) -> np.ndarray:
    """Annealing-style QAOA start: theta_P^l = (l/d) dt, theta_M^l = (1 - l/d) dt,
    refused unless every angle is below the 2^62 that a plan can form."""
    if depth < 1:
        raise DomainError(f"depth must be >= 1, got {depth}")
    if not 0 < dt < math.inf:  # NaN fails too
        raise DomainError(f"dt must be positive and finite, got {dt}")
    steps = np.arange(1, depth + 1) / depth
    theta = np.empty(2 * depth)
    theta[0::2] = steps * dt
    theta[1::2] = (1.0 - steps) * dt
    return _check_angles(theta)
