"""Exact statevector engine with shot sampling and trajectory-based noise.

A state is a numpy array of its 2^L amplitudes; bit j of the index is
qubit j (shared bitstring convention, see :mod:`vqopt.ising`).  A batch
of P states is one (P, 2^L) array, a state per row: every gate takes a
float angle, applied to every row, or one angle per row, and
:func:`relax` takes each row's own draws, so a row gets the bits it
would get as a state on its own.  They are
complex128, except that an RY-CNOT circuit on |0...0> stays real under
its gates and both relaxation branches, so its states are float64: RY,
CNOT and :func:`relax` accept either dtype and give a real state the
same bits as its complex twin; the gates with complex factors (RX, RZ,
RZZ, diagonal phase) reject a real state.  Gates mutate the state in
place, read L from the length of the last axis, and view a state or
batch as its leading axes followed by the axes of their qubits.  RX and
RY take three numpy passes and one temporary, with the bits of the
two-product formula (m00 lo + m01 hi, m10 lo + m11 hi).  A 1-qubit gate
on qubit q < k pairs amplitudes within each contiguous block of 2^k, so
it can act on one block at a time through a view of its 2^k amplitudes
and give the same bits as on the whole state; the amplitudes whose
indices share their low k bits form a (L - k)-qubit state of the high
qubits, so a set of such columns is a batch of them, and the diagonal
phase acts on each amplitude alone (the blocked QAOA layers of
:mod:`vqopt.ansatz` use all three).
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
once and :func:`relax` picks one branch from them with uniforms drawn
beforehand, as :func:`sample_shots` draws its bitstrings: a relaxation
always takes :func:`channel_draws` uniforms, so the draws of a circuit
are known before it runs and can be taken from the generator at once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .codec import Record
from .errors import CapacityError, DomainError, IntegrityError
from .ising import MAX_QUBITS

_NORM_TOL = 1e-8


def _check_qubit_count(num_qubits: int) -> None:
    if not 1 <= num_qubits <= MAX_QUBITS:
        raise CapacityError(f"need 1..{MAX_QUBITS} qubits, got {num_qubits}")


def _shape(num_qubits: int, rows: int | None) -> tuple[int, ...]:
    _check_qubit_count(num_qubits)
    return (1 << num_qubits,) if rows is None else (rows, 1 << num_qubits)


def init_zero(num_qubits: int, dtype=complex, rows: int | None = None) -> np.ndarray:
    """|0...0>, complex unless ``dtype`` says otherwise; ``rows`` copies for a batch."""
    state = np.zeros(_shape(num_qubits, rows), dtype=dtype)
    state[..., 0] = 1.0
    return state


def init_plus(num_qubits: int, rows: int | None = None) -> np.ndarray:
    """Uniform superposition |+>^L; ``rows`` copies for a batch."""
    shape = _shape(num_qubits, rows)
    return np.full(shape, 1.0 / math.sqrt(shape[-1]), dtype=complex)


def init_ry_product(num_qubits: int, theta) -> np.ndarray:
    """RY(theta_j) on each qubit j of |0...0>, built as a real product state.

    ``theta`` holds L angles, or an (L, P) array for a batch of P states.
    Amplitude x is f_{L-1}(x_{L-1}) * (... * (f_1(x_1) * f_0(x_0))) with
    f_j = (cos, sin)(theta_j / 2), in the order the L gates multiply it, so
    the bits are the gates' bits wherever the product is not zero.  Where
    it is, a gate adds a zero that may carry the other sign, so a state
    with a zero amplitude is made by the gates.
    """
    _check_qubit_count(num_qubits)
    theta = np.asarray(theta, dtype=float)
    if theta.ndim not in (1, 2) or len(theta) != num_qubits:
        raise DomainError(f"need {num_qubits} angles, got shape {theta.shape}")
    rows = None if theta.ndim == 1 else theta.shape[1]
    cos, sin = _cos_sin_half(theta)
    factors = np.stack([cos, sin], axis=-1)  # (L, 2) or (L, P, 2)
    amps = factors[0]
    for f in factors[1:]:
        amps = (f[..., :, None] * amps[..., None, :]).reshape(*amps.shape[:-1], -1)
    if amps.all():
        return amps
    state = init_zero(num_qubits, float, rows)
    for qubit in range(num_qubits):
        apply_ry(state, qubit, theta[qubit])
    return state


def _check_qubit(state: np.ndarray, qubit: int) -> None:
    size = state.shape[-1].bit_length() - 1
    if not 0 <= qubit < size:
        raise DomainError(f"qubit {qubit} out of range for {size} qubits")


def _check_complex(state: np.ndarray) -> None:
    if state.dtype.kind != "c":
        raise DomainError(f"gate needs a complex state, got {state.dtype}")


def _per_row(state: np.ndarray, theta, axes: int = 2):
    """A float angle as is, or one angle per row shaped (P, 1, ..., 1) to
    broadcast over the ``axes`` trailing axes of a view of the batch."""
    if not isinstance(theta, np.ndarray) or theta.ndim == 0:
        return theta
    theta = theta.astype(float, copy=False)
    if state.ndim != 2 or theta.shape != state.shape[:1]:
        raise DomainError(f"{theta.shape} angles do not match a state of shape {state.shape}")
    return theta.reshape((-1,) + (1,) * axes)


def _cos_sin_half(theta):
    """cos and sin of theta / 2 from libm one value at a time, since numpy's
    vector loops may round differently: floats for a float, arrays shaped
    like an array."""
    half = theta / 2
    if not isinstance(half, np.ndarray):
        return math.cos(half), math.sin(half)
    values = half.ravel().tolist()
    return (np.array([math.cos(v) for v in values]).reshape(half.shape),
            np.array([math.sin(v) for v in values]).reshape(half.shape))


def _apply_1q(state: np.ndarray, qubit: int, diag, cross) -> None:
    # [[d, u], [w, d]] on qubit q, ``cross`` being u for RX (w = u) or
    # [[w], [u]] for RY on the bit-q axis of a ([rows,] high bits, bit q, low
    # bits) view: the cross products, d in place, then their sum with the
    # bit-q axis reversed.  Each amplitude gets the two rounded products of
    # the formula (d lo + u hi, d hi + w lo) summed once, so the bits are its
    # bits: addition commutes, signed zeros included, and every complex
    # product has an exactly zero partial product (d is real, u and w real
    # for RY, imaginary for RX), so numpy's loops round it alike with or
    # without fused multiply-adds.  Factor arrays are cast to the state's
    # dtype once, not per inner loop through a buffer.
    if isinstance(cross, np.ndarray):
        diag, cross = (np.asarray(m, dtype=state.dtype) for m in (diag, cross))
    a = state.reshape(state.shape[:-1] + (-1, 2, 1 << qubit))
    cross = a * cross
    a *= diag
    a += cross[..., ::-1, :]


_RY_SIGNS = np.array([[1.0], [-1.0]])  # RY's cross factors [[s], [-s]], exactly


def apply_ry(state: np.ndarray, qubit: int, theta) -> None:
    """Rotation exp(-i theta Y / 2)."""
    _check_qubit(state, qubit)
    c, s = _cos_sin_half(_per_row(state, theta, 3))
    _apply_1q(state, qubit, c, s * _RY_SIGNS)


def apply_rx(state: np.ndarray, qubit: int, theta) -> None:
    """Rotation exp(+i theta X / 2)."""
    _check_qubit(state, qubit)
    _check_complex(state)
    c, s = _cos_sin_half(_per_row(state, theta, 3))
    _apply_1q(state, qubit, c, 1j * s)


def apply_rz(state: np.ndarray, qubit: int, theta) -> None:
    """Rotation exp(+i theta Z / 2)."""
    _check_qubit(state, qubit)
    _check_complex(state)
    c, s = _cos_sin_half(_per_row(state, theta))
    down, up = np.asarray(c, dtype=complex), np.asarray(c, dtype=complex)
    down.imag, up.imag = s, -s  # complex(c, +-s), the signs of zeros kept
    a = state.reshape(state.shape[:-1] + (-1, 2, 1 << qubit))
    a[..., 0, :] *= down
    a[..., 1, :] *= up


def apply_cnot(state: np.ndarray, control: int, target: int) -> None:
    """Flip ``target`` where ``control`` is 1."""
    _check_qubit(state, control)
    _check_qubit(state, target)
    if control == target:
        raise DomainError("control and target must differ")
    high, low = max(control, target), min(control, target)
    # axis 1 is qubit ``high`` and axis 3 qubit ``low``; where the control
    # bit is 1, swap the two halves of the target axis
    a = state.reshape(-1, 2, 1 << (high - low - 1), 2, 1 << low)
    if control == high:
        a[:, 1] = a[:, 1, :, ::-1]
    else:
        a[:, :, :, 1] = a[:, ::-1, :, 1]


_ZZ = np.array([[1, -1], [-1, 1]])  # Z.Z on (bit a, bit b)


def apply_rzz(state: np.ndarray, qubit_a: int, qubit_b: int, theta) -> None:
    """Two-qubit phase exp(+i theta Z.Z / 2)."""
    _check_qubit(state, qubit_a)
    _check_qubit(state, qubit_b)
    if qubit_a == qubit_b:
        raise DomainError("rzz qubits must differ")
    _check_complex(state)
    high, low = max(qubit_a, qubit_b), min(qubit_a, qubit_b)
    # the two axes of length 2 are the two qubits; each row's (bit, bit)
    # phases broadcast over the rest, with no 2^L index or phase array
    theta = _per_row(state, theta)
    a = state.reshape(state.shape[:-1] + (-1, 2, 1 << (high - low - 1), 2, 1 << low))
    phases = np.exp(0.5j * theta * _ZZ)  # (2, 2), or (P, 2, 2) for a row each
    a *= phases.reshape(phases.shape[:-2] + (1, 2, 1, 2, 1))


def apply_diagonal_phase(state: np.ndarray, energies: np.ndarray, gamma) -> None:
    """Multiply amplitude x by exp(i gamma f(x)) for a diagonal f."""
    if energies.shape != state.shape[-1:]:
        raise DomainError(
            f"energies shape {energies.shape} does not match state dimension {state.shape}"
        )
    _check_complex(state)
    gamma = _per_row(state, gamma)
    phase = np.multiply(1j * gamma, energies)  # (2^L,), or (P, 1, 2^L) for a row each
    np.exp(phase, out=phase)
    state.reshape(state.shape[:-1] + (1, -1))[...] *= phase


def expectation_diagonal(state: np.ndarray, energies: np.ndarray) -> float:
    """Exact expectation sum_x |psi(x)|^2 f(x) of a diagonal observable."""
    if energies.shape != state.shape:
        raise DomainError("energies shape does not match state dimension")
    return float(np.abs(state) ** 2 @ energies)


def sample_shots(state: np.ndarray, uniforms: np.ndarray) -> np.ndarray:
    """One bitstring from the Born distribution |psi(x)|^2 per uniform draw
    in [0, 1), by inverting the cumulative distribution."""
    if np.size(uniforms) < 1:
        raise DomainError("need at least one shot, got 0")
    cdf = np.cumsum(np.abs(state) ** 2)
    total = cdf[-1]
    if not abs(total - 1.0) <= _NORM_TOL:  # a NaN state fails too
        raise IntegrityError(f"state norm deviates from 1 by {abs(total - 1.0):.3e}")
    return np.searchsorted(cdf, uniforms * total, side="right")


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
        # written so that NaN fails every check
        if not (self.t1_us > 0 and self.t2_us > 0):
            raise DomainError(f"T1 and T2 must be positive, got {self.t1_us} and {self.t2_us}")
        if not self.t2_us <= 2 * self.t1_us:
            raise DomainError(f"T2={self.t2_us} exceeds 2*T1={2 * self.t1_us}")
        if not (0 < self.t1q_ns < math.inf and 0 < self.t2q_ns < math.inf):
            raise DomainError(
                f"gate durations must be positive and finite, got {self.t1q_ns} and {self.t2q_ns}")

    def channel(self, duration_ns: float) -> tuple[float, float, float]:
        """(p_damp, p_flip, sqrt(1 - p_damp)) of one qubit idling ``duration_ns``."""
        t_us = duration_ns * 1e-3
        p_damp = -math.expm1(-t_us / self.t1_us)  # 1 - exp(-t/T1)
        dephase_rate = 1.0 / self.t2_us - 0.5 / self.t1_us  # 1/T_phi
        p_flip = 0.5 * -math.expm1(-t_us * dephase_rate)
        return p_damp, p_flip, math.sqrt(1.0 - p_damp)

    def gate_ns(self, qubits: int) -> float:
        """Duration of a gate on ``qubits`` qubits: ``t2q_ns`` for two, else ``t1q_ns``."""
        return self.t2q_ns if qubits == 2 else self.t1q_ns


def channel_draws(channel: tuple[float, float, float]) -> int:
    """Uniforms one relaxation through ``channel`` takes: one for the decay
    branch when p_damp > 0, then one for the flip when p_flip > 0."""
    p_damp, p_flip, _ = channel
    return (p_damp > 0.0) + (p_flip > 0.0)


@dataclass(frozen=True)
class GateOp:
    """One gate application: a named gate, its qubits, and an optional angle."""

    name: str  # "ry" | "rx" | "rz" | "cnot" | "rzz"
    qubits: tuple[int, ...]
    angle: float = 0.0


def apply_gate(state: np.ndarray, op: GateOp) -> None:
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
    else:
        raise DomainError(f"unknown gate {op.name!r}")


def relax(
    state: np.ndarray, qubit: int, channel: tuple[float, float, float], uniforms,
) -> None:
    """Pick one Kraus branch of amplitude damping + pure dephasing.

    ``channel`` comes from :meth:`NoiseModel.channel`, and ``uniforms``
    holds its :func:`channel_draws` draws in order: a float each, or one per
    row of a batch.  The scalings multiply by reciprocals because numpy
    divides a complex array by a real number that way; real and complex
    states then get the same bits.
    """
    p_damp, p_flip, keep = channel
    draws = iter(uniforms)
    if state.ndim == 2:
        _relax_rows(state, qubit, channel, draws)
        return
    a = state.reshape(-1, 2, 1 << qubit)
    hi = a[:, 1, :]
    if p_damp > 0.0:
        squares = hi * hi if hi.dtype.kind == "f" else hi.real**2 + hi.imag**2
        excited = float(squares.sum())
        branch_prob = p_damp * excited
        if next(draws) < branch_prob:
            # decay branch: |1> population drops to |0>; norm^2 was p_damp*excited
            a[:, 0, :] = hi * (1.0 / math.sqrt(excited))
            hi[...] = 0.0
        elif branch_prob > 0.0:
            # no-decay branch: norm^2 = 1 - p_damp*excited
            hi *= keep
            state *= 1.0 / math.sqrt(1.0 - branch_prob)
    if p_flip > 0.0 and next(draws) < p_flip:
        hi *= -1.0


def _relax_rows(amps: np.ndarray, qubit: int, channel, draws) -> None:
    """:func:`relax` on each row of a batch, with the arithmetic of one state:
    a row's excited population is the sum over its own contiguous squares,
    and only the rows that take a branch's scaling are multiplied."""
    p_damp, p_flip, keep = channel
    a = amps.reshape(len(amps), -1, 2, 1 << qubit)
    hi = a[:, :, 1, :]
    if p_damp > 0.0:
        squares = hi * hi if hi.dtype.kind == "f" else hi.real**2 + hi.imag**2
        excited = squares.reshape(len(amps), -1).sum(axis=1)
        branch_prob = p_damp * excited
        decayed = next(draws) < branch_prob
        scaled = ~decayed & (branch_prob > 0.0)  # the no-decay branch
        norms = (1.0 / np.sqrt(1.0 - branch_prob)).astype(amps.dtype)[:, None]
        if scaled.all():
            hi *= keep
            amps *= norms
        elif scaled.any():  # (1 + 0j) * (0 - 0j) is 0 + 0j: skip the other rows
            hi[scaled] *= keep
            amps[scaled] *= norms[scaled]
        for row in np.flatnonzero(decayed):
            a[row, :, 0, :] = hi[row] * (1.0 / math.sqrt(excited[row]))
            hi[row] = 0.0
    if p_flip > 0.0:
        flipped = next(draws) < p_flip
        if flipped.any():
            hi[flipped] *= -1.0


def apply_noisy_gate(
    state: np.ndarray, op: GateOp, noise: NoiseModel, rng: np.random.Generator
) -> None:
    """Apply ``op`` followed by one relaxation trajectory on each touched qubit."""
    apply_gate(state, op)
    channel = noise.channel(noise.gate_ns(len(op.qubits)))
    for qubit in op.qubits:
        relax(state, qubit, channel, rng.random(channel_draws(channel)))
