"""Exact statevector engine with shot sampling and trajectory-based noise.

States are dense arrays of 2^L amplitudes; bit j of the array index is
qubit j (shared bitstring convention, see :mod:`vqopt.ising`).  They are
complex128, except that an RY-CNOT circuit on |0...0> stays real under
its gates and both relaxation branches, so its states are float64: RY,
CNOT and :func:`relax` accept either dtype and give a real state the
same bits as its complex twin; the gates with complex factors (RX, RZ,
RZZ, diagonal phase) reject a real state.  Gates mutate the state in
place.  A 1-qubit gate on qubit q < k pairs amplitudes within each
contiguous block of 2^k, so it can act on one block at a time through a
``StateVector(k, block)`` view and give the same bits as on the whole
state (the blocked QAOA mixer of :mod:`vqopt.ansatz` does this).
Rotation sign conventions:

    ry(theta)  = exp(-i theta Y / 2)
    rx(theta)  = exp(+i theta X / 2)
    rz(theta)  = exp(+i theta Z / 2)
    rzz(theta) = exp(+i theta Z Z / 2)

Noise is simulated by stochastic Kraus trajectories: after each noisy
gate, every touched qubit passes through one sampled branch of the
composed amplitude-damping + pure-dephasing channel for the gate's
duration.  A single run is one trajectory; averaging trajectories
reproduces the channel (this is not a density-matrix simulator).
:meth:`NoiseModel.channel` computes a duration's branch probabilities
once and :func:`relax` samples one branch from them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .codec import Record
from .errors import CapacityError, DomainError, IntegrityError
from .ising import MAX_QUBITS

_NORM_TOL = 1e-8


@dataclass
class StateVector:
    """Dense quantum state on ``num_qubits`` qubits."""

    num_qubits: int
    amplitudes: np.ndarray  # shape (2**num_qubits,), complex128 (float64 for RY-CNOT)

    def copy(self) -> "StateVector":
        return StateVector(self.num_qubits, self.amplitudes.copy())

    def probabilities(self) -> np.ndarray:
        return np.abs(self.amplitudes) ** 2

    def norm_squared(self) -> float:
        return float(np.vdot(self.amplitudes, self.amplitudes).real)


def _check_qubit_count(num_qubits: int) -> None:
    if not 1 <= num_qubits <= MAX_QUBITS:
        raise CapacityError(f"need 1..{MAX_QUBITS} qubits, got {num_qubits}")


def init_zero(num_qubits: int, dtype=complex) -> StateVector:
    """|0...0>, complex unless ``dtype`` says otherwise."""
    _check_qubit_count(num_qubits)
    amps = np.zeros(1 << num_qubits, dtype=dtype)
    amps[0] = 1.0
    return StateVector(num_qubits, amps)


def init_plus(num_qubits: int) -> StateVector:
    """Uniform superposition |+>^L."""
    _check_qubit_count(num_qubits)
    dim = 1 << num_qubits
    amps = np.full(dim, 1.0 / math.sqrt(dim), dtype=complex)
    return StateVector(num_qubits, amps)


def _check_qubit(state: StateVector, qubit: int) -> None:
    if not 0 <= qubit < state.num_qubits:
        raise DomainError(f"qubit {qubit} out of range for {state.num_qubits} qubits")


def _check_complex(state: StateVector) -> None:
    if state.amplitudes.dtype.kind != "c":
        raise DomainError(f"gate needs a complex state, got {state.amplitudes.dtype}")


def _apply_1q(state: StateVector, qubit: int, m00, m01, m10, m11) -> None:
    # View the state as (high bits, bit q, low bits) and act on the middle axis.
    a = state.amplitudes.reshape(-1, 2, 1 << qubit)
    lo = a[:, 0, :].copy()
    hi = a[:, 1, :]
    a[:, 0, :] = m00 * lo + m01 * hi
    a[:, 1, :] = m10 * lo + m11 * hi


def apply_ry(state: StateVector, qubit: int, theta: float) -> None:
    """Rotation exp(-i theta Y / 2)."""
    _check_qubit(state, qubit)
    c, s = math.cos(theta / 2), math.sin(theta / 2)
    _apply_1q(state, qubit, c, -s, s, c)


def apply_rx(state: StateVector, qubit: int, theta: float) -> None:
    """Rotation exp(+i theta X / 2)."""
    _check_qubit(state, qubit)
    _check_complex(state)
    c, s = math.cos(theta / 2), math.sin(theta / 2)
    _apply_1q(state, qubit, c, 1j * s, 1j * s, c)


def apply_rz(state: StateVector, qubit: int, theta: float) -> None:
    """Rotation exp(+i theta Z / 2)."""
    _check_qubit(state, qubit)
    _check_complex(state)
    a = state.amplitudes.reshape(-1, 2, 1 << qubit)
    a[:, 0, :] *= complex(math.cos(theta / 2), math.sin(theta / 2))
    a[:, 1, :] *= complex(math.cos(theta / 2), -math.sin(theta / 2))


def apply_cnot(state: StateVector, control: int, target: int) -> None:
    """Flip ``target`` where ``control`` is 1."""
    _check_qubit(state, control)
    _check_qubit(state, target)
    if control == target:
        raise DomainError("control and target must differ")
    high, low = max(control, target), min(control, target)
    # axis 1 is qubit ``high`` and axis 3 qubit ``low``; where the control
    # bit is 1, swap the two halves of the target axis
    a = state.amplitudes.reshape(-1, 2, 1 << (high - low - 1), 2, 1 << low)
    if control == high:
        a[:, 1] = a[:, 1, :, ::-1]
    else:
        a[:, :, :, 1] = a[:, ::-1, :, 1]


_ZZ = np.array([[1, -1], [-1, 1]])  # Z.Z on (bit a, bit b)


def apply_rzz(state: StateVector, qubit_a: int, qubit_b: int, theta: float) -> None:
    """Two-qubit phase exp(+i theta Z.Z / 2)."""
    _check_qubit(state, qubit_a)
    _check_qubit(state, qubit_b)
    if qubit_a == qubit_b:
        raise DomainError("rzz qubits must differ")
    _check_complex(state)
    high, low = max(qubit_a, qubit_b), min(qubit_a, qubit_b)
    # axes 1 and 3 are the two qubits; the (bit, bit) phases broadcast over
    # the rest, with no 2^L index or phase array
    a = state.amplitudes.reshape(-1, 2, 1 << (high - low - 1), 2, 1 << low)
    a *= np.exp(0.5j * theta * _ZZ)[:, None, :, None]


def apply_diagonal_phase(state: StateVector, energies: np.ndarray, gamma: float) -> None:
    """Multiply amplitude x by exp(i gamma f(x)) for a diagonal f."""
    if energies.shape != state.amplitudes.shape:
        raise DomainError(
            f"energies shape {energies.shape} does not match state "
            f"dimension {state.amplitudes.shape}"
        )
    _check_complex(state)
    phase = np.multiply(1j * gamma, energies)
    np.exp(phase, out=phase)
    state.amplitudes *= phase


def expectation_diagonal(state: StateVector, energies: np.ndarray) -> float:
    """Exact expectation sum_x |psi(x)|^2 f(x) of a diagonal observable."""
    if energies.shape != state.amplitudes.shape:
        raise DomainError("energies shape does not match state dimension")
    return float(state.probabilities() @ energies)


def sample_shots(state: StateVector, shots: int, rng: np.random.Generator) -> np.ndarray:
    """Draw ``shots`` bitstrings from the Born distribution |psi(x)|^2."""
    if shots < 1:
        raise DomainError(f"need at least one shot, got {shots}")
    cdf = np.cumsum(state.probabilities())
    total = cdf[-1]
    if abs(total - 1.0) > _NORM_TOL:
        raise IntegrityError(f"state norm deviates from 1 by {abs(total - 1.0):.3e}")
    return np.searchsorted(cdf, rng.random(shots) * total, side="right")


# --- hardware-style noise ---------------------------------------------------


@dataclass(frozen=True)
class NoiseModel(Record):
    """Per-qubit thermal relaxation attached to every gate.

    ``t1_us``/``t2_us`` are relaxation and dephasing time constants in
    microseconds; ``t1q_ns``/``t2q_ns`` are the single- and two-qubit gate
    durations.  Physicality requires T2 <= 2 T1.
    """

    t1_us: float
    t2_us: float
    t1q_ns: float = 50.0
    t2q_ns: float = 300.0

    def __post_init__(self) -> None:
        if self.t1_us <= 0 or self.t2_us <= 0:
            raise DomainError("T1 and T2 must be positive")
        if self.t2_us > 2 * self.t1_us:
            raise DomainError(f"T2={self.t2_us} exceeds 2*T1={2 * self.t1_us}")
        if self.t1q_ns <= 0 or self.t2q_ns <= 0:
            raise DomainError("gate durations must be positive")

    def channel(self, duration_ns: float) -> tuple[float, float, float]:
        """(p_damp, p_flip, sqrt(1 - p_damp)) of one qubit idling ``duration_ns``."""
        t_us = duration_ns * 1e-3
        p_damp = -math.expm1(-t_us / self.t1_us)  # 1 - exp(-t/T1)
        dephase_rate = 1.0 / self.t2_us - 0.5 / self.t1_us  # 1/T_phi
        p_flip = 0.5 * -math.expm1(-t_us * dephase_rate)
        return p_damp, p_flip, math.sqrt(1.0 - p_damp)


@dataclass(frozen=True)
class GateOp:
    """One gate application: a named gate, its qubits, and an optional angle.

    ``idle`` is an identity placeholder used to expose a qubit to noise for
    an explicit ``duration_ns``.
    """

    name: str  # "ry" | "rx" | "rz" | "cnot" | "rzz" | "idle"
    qubits: tuple[int, ...]
    angle: float = 0.0
    duration_ns: float | None = None


def apply_gate(state: StateVector, op: GateOp) -> None:
    """Apply the ideal unitary of ``op``."""
    if op.name == "ry":
        apply_ry(state, op.qubits[0], op.angle)
    elif op.name == "rx":
        apply_rx(state, op.qubits[0], op.angle)
    elif op.name == "rz":
        apply_rz(state, op.qubits[0], op.angle)
    elif op.name == "cnot":
        apply_cnot(state, op.qubits[0], op.qubits[1])
    elif op.name == "rzz":
        apply_rzz(state, op.qubits[0], op.qubits[1], op.angle)
    elif op.name == "idle":
        pass
    else:
        raise DomainError(f"unknown gate {op.name!r}")


def gate_duration_ns(op: GateOp, noise: NoiseModel) -> float:
    if op.duration_ns is not None:
        return op.duration_ns
    return noise.t2q_ns if len(op.qubits) == 2 else noise.t1q_ns


def relax(
    state: StateVector, qubit: int, channel: tuple[float, float, float],
    rng: np.random.Generator,
) -> None:
    """Sample one Kraus branch of amplitude damping + pure dephasing.

    ``channel`` comes from :meth:`NoiseModel.channel`.  The scalings
    multiply by reciprocals because numpy divides a complex array by a real
    number that way; real and complex states then get the same bits.
    """
    p_damp, p_flip, keep = channel
    a = state.amplitudes.reshape(-1, 2, 1 << qubit)
    hi = a[:, 1, :]
    if p_damp > 0.0:
        squares = hi * hi if hi.dtype.kind == "f" else hi.real**2 + hi.imag**2
        excited = float(squares.sum())
        branch_prob = p_damp * excited
        if rng.random() < branch_prob:
            # decay branch: |1> population drops to |0>; norm^2 was p_damp*excited
            a[:, 0, :] = hi * (1.0 / math.sqrt(excited))
            hi[...] = 0.0
        elif branch_prob > 0.0:
            # no-decay branch: norm^2 = 1 - p_damp*excited
            hi *= keep
            state.amplitudes *= 1.0 / math.sqrt(1.0 - branch_prob)
    if p_flip > 0.0 and rng.random() < p_flip:
        hi *= -1.0


def apply_noisy_gate(
    state: StateVector, op: GateOp, noise: NoiseModel, rng: np.random.Generator
) -> None:
    """Apply ``op`` followed by one relaxation trajectory on each touched qubit."""
    apply_gate(state, op)
    channel = noise.channel(gate_duration_ns(op, noise))
    for qubit in op.qubits:
        relax(state, qubit, channel, rng)
