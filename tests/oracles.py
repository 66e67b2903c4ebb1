"""Independent reference implementations used only to check the package.

Everything here is deliberately written via a different route than the
code under test: dense kron/expm linear algebra instead of in-place
statevector updates, and per-bit python loops instead of vectorized
tables.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.linalg import expm

ID2 = np.eye(2, dtype=complex)
PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)
HADAMARD = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)


def naive_energy(couplings, fields, x: int, size: int) -> float:
    """Bit-by-bit evaluation of the chain energy."""
    total = 0.0
    for j in range(size - 1):
        sj = 1 - 2 * ((x >> j) & 1)
        sk = 1 - 2 * ((x >> (j + 1)) & 1)
        total -= couplings[j] * sj * sk
    for j in range(size):
        total -= fields[j] * (1 - 2 * ((x >> j) & 1))
    return total


def int8_energy_table(couplings, fields, chunk: int) -> np.ndarray:
    """The energy table built chunk by chunk from int8 spins, rebuilt for every
    chunk of ``chunk`` rows (the package's earlier form; it must give the same
    bits for the same chunk)."""
    size = len(fields)
    total = 1 << size
    table = np.empty(total)
    shifts = np.arange(size)
    for lo in range(0, total, chunk):
        hi = min(lo + chunk, total)
        bits = (np.arange(lo, hi)[:, None] >> shifts) & 1
        s = (1 - 2 * bits).astype(np.int8)
        bonds = (s[:, :-1] * s[:, 1:]) @ couplings
        table[lo:hi] = -bonds - s @ fields
    return table


def kron_on(op: np.ndarray, qubits: tuple[int, ...], size: int) -> np.ndarray:
    """Embed a 1- or 2-qubit operator into the full 2^size space.

    Builds factors[size-1] x ... x factors[0] so that bit j of the state
    index addresses qubit j, matching the package's convention.  Two-qubit
    operators must act on adjacent qubits (q, q+1) with ``op`` given in the
    (high tensor low) = (q+1, q) factor order.
    """
    mat = np.array([[1.0 + 0j]])
    j = 0
    while j < size:
        if j == qubits[0]:
            mat = np.kron(op, mat)
            j += len(qubits)
        else:
            mat = np.kron(ID2, mat)
            j += 1
    return mat


def dense_ry(theta: float) -> np.ndarray:
    return expm(-1j * theta * PAULI_Y / 2)


def dense_rx(theta: float) -> np.ndarray:
    return expm(1j * theta * PAULI_X / 2)


def dense_rz(theta: float) -> np.ndarray:
    return expm(1j * theta * PAULI_Z / 2)


def dense_rzz(theta: float) -> np.ndarray:
    return expm(1j * theta * np.kron(PAULI_Z, PAULI_Z) / 2)


def dense_cnot() -> np.ndarray:
    """CNOT with control = low qubit q, target = high qubit q+1 in (q+1, q) order."""
    mat = np.eye(4, dtype=complex)
    # basis index b = 2*b_target + b_control; flip target where control is 1
    mat[[1, 3]] = mat[[3, 1]]
    return mat


def index_rzz(amplitudes: np.ndarray, qubit_a: int, qubit_b: int, theta: float) -> None:
    """RZZ in place from a Z.Z sign per basis index and one 2^L phase array
    (the kernel's earlier form; it must give the same bits)."""
    idx = np.arange(amplitudes.size)
    zz = 1 - 2 * (((idx >> qubit_a) ^ (idx >> qubit_b)) & 1)
    amplitudes *= np.exp(0.5j * theta * zz)


def two_product_rotation(amplitudes: np.ndarray, gate: str, qubit: int, theta) -> None:
    """RX or RY in place by the two-product formula: on the bit-q axis, (lo, hi)
    becomes (m00 lo + m01 hi, m10 lo + m11 hi).  ``theta`` is a float, or one
    angle per row of a (P, 2^L) batch.  This is the kernel's earlier form, with
    its factors taken as the simulator takes them (cos and sin of theta / 2
    from libm, -s and 1j s, a float each or (P, 1, 1) arrays in the state's
    dtype); the three-pass kernel must give the same bits."""
    if isinstance(theta, np.ndarray):
        half = [v / 2 for v in theta.tolist()]
        c = np.array([math.cos(v) for v in half]).reshape(-1, 1, 1)
        s = np.array([math.sin(v) for v in half]).reshape(-1, 1, 1)
    else:
        c, s = math.cos(theta / 2), math.sin(theta / 2)
    m00, m01, m10, m11 = (c, 1j * s, 1j * s, c) if gate == "rx" else (c, -s, s, c)
    if isinstance(theta, np.ndarray):
        m00, m01, m10, m11 = (m.astype(amplitudes.dtype) for m in (m00, m01, m10, m11))
    a = amplitudes.reshape(amplitudes.shape[:-1] + (-1, 2, 1 << qubit))
    lo = a[..., 0, :].copy()
    hi = a[..., 1, :]
    a[..., 0, :] = m00 * lo + m01 * hi
    a[..., 1, :] = m10 * lo + m11 * hi


def dense_vqe_state(size: int, depth: int, theta: np.ndarray) -> np.ndarray:
    """RY-CNOT circuit on |0...0> via full matrices."""
    state = np.zeros(2**size, dtype=complex)
    state[0] = 1.0
    for layer in range(depth + 1):
        for j in range(size):
            state = kron_on(dense_ry(theta[layer * size + j]), (j,), size) @ state
        if layer < depth:
            for j in range(size - 1):
                state = kron_on(dense_cnot(), (j, j + 1), size) @ state
    return state


def dense_qaoa_state(
    couplings, fields, size: int, depth: int, theta: np.ndarray
) -> np.ndarray:
    """QAOA circuit via a dense diagonal expm and dense mixer exponentials."""
    energies = np.array(
        [naive_energy(couplings, fields, x, size) for x in range(2**size)]
    )
    state = np.full(2**size, 2 ** (-size / 2), dtype=complex)
    mixer = sum(kron_on(PAULI_X, (j,), size) for j in range(size))
    for layer in range(depth):
        gamma, beta = theta[2 * layer], theta[2 * layer + 1]
        state = np.exp(-1j * gamma * energies) * state
        state = expm(1j * beta * mixer) @ state
    return state


def richardson_gradient(fn, theta: np.ndarray, h: float = 1e-3) -> np.ndarray:
    """Richardson-extrapolated central differences of a scalar function."""
    grad = np.empty(len(theta))
    for n in range(len(theta)):
        def diff(step: float) -> float:
            up, dn = theta.copy(), theta.copy()
            up[n] += step
            dn[n] -= step
            return (fn(up) - fn(dn)) / (2 * step)

        grad[n] = (4 * diff(h / 2) - diff(h)) / 3
    return grad
