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
on the spec), and :func:`prepare_state` runs the steps in one loop.  A
noisy plan follows every gate with one relaxation step per touched qubit.
RY-CNOT plans work on a float64 state, and an ideal plan applies each
CNOT ladder as one precomputed permutation of the amplitudes.
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
from .simulator import GateOp, NoiseModel, StateVector

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
    if theta.shape != (spec.n_params,):
        raise DomainError(
            f"expected {spec.n_params} parameters for {spec.family}, "
            f"got shape {theta.shape}"
        )
    return theta


class Plan(NamedTuple):
    """A circuit compiled for one noise model: ``start(L)`` makes the initial
    state, and each step, called as ``step(state, theta, rng)``, acts on it
    in order."""

    start: Callable[[int], StateVector]
    steps: tuple[Callable, ...]


# Step kernels: the plan binds the leading arguments, the loop passes
# (state, theta, rng).  Gates are looked up on the simulator at call time,
# so a wrapper installed there (a tracer, a test's spy) sees every call,
# save the CNOTs of an ideal ladder, which run as one gather.


def _ry(qubit, index, state, theta, rng):
    sim.apply_ry(state, qubit, theta[index])


def _mixer(qubit, index, state, theta, rng):
    # exp(i beta X_j) = rx(2 beta) under the rx sign convention
    sim.apply_rx(state, qubit, 2.0 * theta[index])


def _phase(table, index, state, theta, rng):
    sim.apply_diagonal_phase(state, table, -theta[index])


def _rzz(qubit, scale, index, state, theta, rng):
    sim.apply_rzz(state, qubit, qubit + 1, scale * theta[index])


def _rz(qubit, scale, index, state, theta, rng):
    sim.apply_rz(state, qubit, scale * theta[index])


def _cnot(control, state, theta, rng):
    sim.apply_cnot(state, control, control + 1)


def _permute(perm, state, theta, rng):
    state.amplitudes = state.amplitudes[perm]


def _relax(qubit, channel, state, theta, rng):
    sim.relax(state, qubit, channel, rng)


@functools.cache
def _ladder_permutation(size: int) -> np.ndarray:
    """Gather indices of one CNOT ladder: the ladder maps amps to amps[perm]."""
    index = StateVector(size, np.arange(1 << size))
    for j in range(size - 1):
        sim.apply_cnot(index, j, j + 1)
    index.amplitudes.setflags(write=False)
    return index.amplitudes


def compile_plan(spec: AnsatzSpec, noise: NoiseModel | None = None) -> Plan:
    """The plan of ``spec`` under ``noise``, compiled on first use and cached on the spec."""
    plan = spec._plans.get(noise)
    if plan is None:
        plan = spec._plans[noise] = _compile(spec, noise)
    return plan


def _compile(spec: AnsatzSpec, noise: NoiseModel | None) -> Plan:
    size, depth = spec.size, spec.depth
    steps: list[Callable] = []

    def gate(name: str, qubits: tuple[int, ...], kernel, *args) -> None:
        steps.append(functools.partial(kernel, *args))
        if noise is not None:
            channel = noise.channel(sim.gate_duration_ns(GateOp(name, qubits), noise))
            steps.extend(functools.partial(_relax, q, channel) for q in qubits)

    if spec.family == FAMILY_VQE:
        for layer in range(depth + 1):
            for j in range(size):
                gate("ry", (j,), _ry, j, layer * size + j)
            if layer == depth:
                break
            if noise is None:
                steps.append(functools.partial(_permute, _ladder_permutation(size)))
            else:
                for j in range(size - 1):
                    gate("cnot", (j, j + 1), _cnot, j)
        return Plan(functools.partial(sim.init_zero, dtype=float), tuple(steps))

    # The noisy phase is the RZZ/RZ decomposition of exp(-i gamma H_P), exact
    # since all terms commute: H_P = -sum J_j Z_j Z_{j+1} - sum h_j Z_j in qubit
    # space, so each bond is rzz(2 gamma J_j) and each site rz(2 gamma h_j).
    instance = spec.instance
    table = energy_table(instance) if noise is None else None
    for layer in range(depth):
        gamma, beta = 2 * layer, 2 * layer + 1  # their positions in theta
        if noise is None:
            gate("diagonal", tuple(range(size)), _phase, table, gamma)
        else:
            for j in range(size - 1):
                gate("rzz", (j, j + 1), _rzz, j, 2.0 * float(instance.couplings[j]), gamma)
            for j in range(size):
                gate("rz", (j,), _rz, j, 2.0 * float(instance.fields[j]), gamma)
        for j in range(size):
            gate("rx", (j,), _mixer, j, beta)
    return Plan(sim.init_plus, tuple(steps))


def prepare_state(
    spec: AnsatzSpec,
    theta: np.ndarray,
    noise: NoiseModel | None = None,
    rng: np.random.Generator | None = None,
) -> StateVector:
    """Run the circuit and return the prepared state.

    With a noise model, every gate is followed by one sampled relaxation
    trajectory on the qubits it touches (initial-state preparation itself
    is noiseless).
    """
    theta = _check_params(spec, theta)
    if noise is not None and rng is None:
        raise DomainError("noisy preparation needs an rng")
    plan = compile_plan(spec, noise)
    state = plan.start(spec.size)
    for step in plan.steps:
        step(state, theta, rng)
    return state


def init_random(
    spec: AnsatzSpec,
    rng: np.random.Generator,
    low: float = -math.pi,
    high: float = math.pi,
) -> np.ndarray:
    """I.i.d. uniform angles in (low, high)."""
    if not low < high:
        raise DomainError(f"invalid range [{low}, {high})")
    return rng.uniform(low, high, size=spec.n_params)


def init_linear_schedule(depth: int, dt: float) -> np.ndarray:
    """Annealing-style QAOA start: theta_P^l = (l/d) dt, theta_M^l = (1 - l/d) dt."""
    if depth < 1:
        raise DomainError(f"depth must be >= 1, got {depth}")
    if dt <= 0:
        raise DomainError(f"dt must be positive, got {dt}")
    steps = np.arange(1, depth + 1) / depth
    theta = np.empty(2 * depth)
    theta[0::2] = steps * dt
    theta[1::2] = (1.0 - steps) * dt
    return theta
