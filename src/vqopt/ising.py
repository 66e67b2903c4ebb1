"""One-dimensional Ising problem instances and their exact ground-truth oracle.

Spins live on an open chain with nearest-neighbour couplings ``J[j]``
(between sites j and j+1) and local fields ``h[j]``.  A configuration is
encoded as an unsigned integer bitstring: bit j (least-significant bit is
site 0) holds x_j in {0, 1}, and the spin value is sigma_j = 1 - 2*x_j,
so x_j = 0 means sigma_j = +1.  All modules share this convention.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .codec import check_fields, read_json, write_atomic
from .errors import CapacityError, DomainError, SchemaError

FERROMAGNETIC = "ferromagnetic"
DISORDERED = "disordered"

# Chains, energy tables and statevectors are capped here; beyond this the
# 2^L arrays stop being desk-scale.
MAX_QUBITS = 24

# Rows of the energy table built at once, a power of two above 1: at 2^12 the
# (rows, L) spin and bond blocks of L = 20 take 1.3 MB and stay in a 2 MB L2
# cache, where 2^14 rows streamed 5 MB per chunk (a fresh L = 20 table took
# 18.6 ms against 31.2 ms) and 2^18 rows peaked at 135 MB.
_TABLE_CHUNK = 1 << 12

_MAX_ENERGY = sys.float_info.max / 2**64  # sum |J| + sum |h| stays below it

SCHEMA_VERSION = 1


def check_kind(kind: str, seeds) -> None:
    """Reject an unknown instance kind, and a disordered kind with no seed,
    with a seed that is not a 128-bit Philox key, outside [0, 2^128), or with
    a seed given twice (its instance would count as two realizations)."""
    if kind not in (FERROMAGNETIC, DISORDERED):
        raise DomainError(f"unknown instance kind {kind!r}")
    if kind == DISORDERED and not seeds:
        raise DomainError("disordered instances need at least one seed")
    for seed in seeds if kind == DISORDERED else ():
        if not 0 <= seed < 1 << 128:
            raise DomainError(f"disordered instance seeds must be in [0, 2^128), got {seed}")
    if kind == DISORDERED and len(set(seeds)) < len(seeds):
        raise DomainError(f"disordered instance seeds must differ, got {list(seeds)}")


@dataclass(frozen=True)
class IsingInstance:
    """One optimization problem: couplings, fields, and provenance tags."""

    size: int
    couplings: np.ndarray  # shape (L-1,), couplings[j] = J between sites j, j+1
    fields: np.ndarray  # shape (L,)
    kind: str = FERROMAGNETIC
    seed: int = 0

    def __post_init__(self) -> None:
        if self.size < 2:
            raise DomainError(f"need at least 2 spins, got {self.size}")
        check_kind(self.kind, (self.seed,))
        couplings = np.asarray(self.couplings, dtype=float)
        fields = np.asarray(self.fields, dtype=float)
        if couplings.shape != (self.size - 1,):
            raise DomainError(
                f"expected {self.size - 1} couplings, got shape {couplings.shape}"
            )
        if fields.shape != (self.size,):
            raise DomainError(f"expected {self.size} fields, got shape {fields.shape}")
        # |energy| <= sum |J| + sum |h| (a Python sum: no numpy overflow warning),
        # so below the limit a sum of fewer than 2^63 energies stays finite
        bound = sum(map(abs, couplings.tolist() + fields.tolist()))
        if not bound < _MAX_ENERGY:
            raise DomainError(f"couplings and fields must be finite, and so must sum |J| + "
                              f"sum |h|, got {bound}, below {_MAX_ENERGY:.6g} (float max / 2^64)")
        couplings.setflags(write=False)
        fields.setflags(write=False)
        object.__setattr__(self, "couplings", couplings)
        object.__setattr__(self, "fields", fields)


@dataclass(frozen=True)
class GroundTruth:
    """Exact minimum of an instance, found by exhaustive enumeration."""

    minimum_energy: float
    minimizers: tuple[int, ...]
    degeneracy: int


def spins(x: int, size: int) -> np.ndarray:
    """Decode a bitstring into the array (sigma_0, ..., sigma_{L-1})."""
    bits = (x >> np.arange(size)) & 1
    return 1 - 2 * bits


def energy(instance: IsingInstance, x: int) -> float:
    """Classical energy -sum_j J_j s_j s_{j+1} - sum_j h_j s_j of bitstring x."""
    if not 0 <= x < (1 << instance.size):
        raise DomainError(f"bitstring {x} out of range for {instance.size} spins")
    s = spins(int(x), instance.size)
    bonds = float(instance.couplings @ (s[:-1] * s[1:]))
    local = float(instance.fields @ s)
    return -bonds - local


def make_ferromagnetic(size: int) -> IsingInstance:
    """Uniform J = 1 chain with a small uniform field h = -0.05.

    The field tilts the two fully polarized configurations apart so the
    all-ones bitstring is the unique global minimum.
    """
    if size < 2:
        raise DomainError(f"need at least 2 spins, got {size}")
    return IsingInstance(
        size=size,
        couplings=np.ones(size - 1),
        fields=np.full(size, -0.05),
        kind=FERROMAGNETIC,
        seed=0,
    )


def make_disordered(size: int, seed: int) -> IsingInstance:
    """Random instance with couplings and fields drawn i.i.d. from N(0, 1).

    Draws come from a counter-based Philox stream keyed by ``seed``
    (couplings first, fields second), so the same (size, seed) pair
    regenerates the identical instance on any machine.
    """
    if size < 2:
        raise DomainError(f"need at least 2 spins, got {size}")
    check_kind(DISORDERED, (seed,))
    rng = np.random.Generator(np.random.Philox(key=seed))
    draws = rng.standard_normal(2 * size - 1)
    return IsingInstance(
        size=size,
        couplings=draws[: size - 1],
        fields=draws[size - 1 :],
        kind=DISORDERED,
        seed=int(seed),
    )


def make_instances(size: int, kind: str, seeds) -> list[IsingInstance]:
    """The one ferromagnetic chain, or one disordered instance per seed."""
    check_kind(kind, seeds)
    if kind == FERROMAGNETIC:
        return [make_ferromagnetic(size)]
    return [make_disordered(size, s) for s in seeds]


def check_size(size: int) -> None:
    """Refuse a chain of fewer than 2 spins, or of more than MAX_QUBITS,
    where exhaustive enumeration stops."""
    if size < 2:
        raise DomainError(f"need at least 2 spins, got {size}")
    if size > MAX_QUBITS:
        raise CapacityError(
            f"exhaustive enumeration capped at {MAX_QUBITS} spins, got {size}"
        )


def energy_table(instance: IsingInstance) -> np.ndarray:
    """Energies of all 2^L bitstrings, indexed by bitstring value.

    The table is computed once per instance and cached (read-only) since
    instances are immutable.  It is built in chunks of ``rows = min(2^L,
    _TABLE_CHUNK)`` bitstrings that share their high L - k bits (2^k =
    rows), from one float64 block of the chunk's spins, shape (rows, L),
    and one of its bonds s_j s_{j+1}, shape (rows, L-1), both C-contiguous.
    The blocks are made once; the chunks are visited in Gray-code order, so
    from one chunk to the next one high spin column, and at most two bond
    columns, are multiplied by -1.0, which is exact for entries of +-1.0.
    Each chunk is ``-(bonds @ J) - spins @ h``, two BLAS matrix-vector
    products.  Row-count rule: every product has exactly ``rows`` rows.
    BLAS may sum a row in another order when the row count changes (with
    numpy 2.4.6's OpenBLAS, chunks of 1-3 or 5-7 rows changed bits against
    2^14; chunks of 4, 8, 12, 16, 100, 1001, 2^10, 2^12 and 2^L did not), so
    a new row count is taken only once its tables match the old count's bit
    for bit (2^12 matched 2^14 at L 12-20).  With it, the table equals, bit
    for bit, one built chunk by chunk from int8 spins in chunks of ``rows``,
    as numpy casts those to float64 before BLAS.
    """
    cached = getattr(instance, "_energy_table", None)
    if cached is not None:
        return cached
    check_size(instance.size)
    size = instance.size
    k = min(size, _TABLE_CHUNK.bit_length() - 1)  # the low spins of a chunk
    rows = 1 << k
    table = np.empty(1 << size)
    spins = np.ones((rows, size))  # the high spins of chunk 0 are +1
    for j in range(k):  # spin j is -1 on the second half of each 2^(j+1) rows
        spins.reshape(-1, 2, 1 << j, size)[:, 1, :, j] = -1.0
    bonds = spins[:, :-1] * spins[:, 1:]
    for step in range(1 << (size - k)):
        if step:  # flip the spin of the high bit that the Gray code changes
            site = k + (step & -step).bit_length() - 1
            spins[:, site] *= -1.0
            for bond in range(site - 1, min(site + 1, size - 1)):  # column by column is
                bonds[:, bond] *= -1.0  # 4x faster than as one (rows, 2) view
        chunk = step ^ (step >> 1)
        table[chunk * rows:(chunk + 1) * rows] = (
            -(bonds @ instance.couplings) - spins @ instance.fields)
    table.setflags(write=False)
    object.__setattr__(instance, "_energy_table", table)
    return table


def brute_force_minimum(instance: IsingInstance) -> GroundTruth:
    """Scan all 2^L configurations; return the minimum and every minimizer."""
    table = energy_table(instance)
    best = float(table.min())
    minimizers = tuple(int(x) for x in np.flatnonzero(table == best))
    return GroundTruth(
        minimum_energy=best, minimizers=minimizers, degeneracy=len(minimizers)
    )


# An instance file's layout: the chain length is "L", the arrays are lists.
_LAYOUT = {"schema_version": int, "L": int, "couplings": list[float], "fields": list[float],
           "kind": str, "seed": int}


def to_json(instance: IsingInstance) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "L": instance.size,
        "couplings": instance.couplings.tolist(),
        "fields": instance.fields.tolist(),
        "kind": instance.kind,
        "seed": instance.seed,
    }


def from_json(obj: dict) -> IsingInstance:
    values = check_fields(obj, _LAYOUT, "instance", required=("L", "couplings", "fields"))
    version = values.get("schema_version", SCHEMA_VERSION)
    if version != SCHEMA_VERSION:
        raise SchemaError(f"unsupported instance schema_version {version}")
    return IsingInstance(
        size=values["L"],
        couplings=np.asarray(values["couplings"]),
        fields=np.asarray(values["fields"]),
        kind=values.get("kind", FERROMAGNETIC),
        seed=values.get("seed", 0),
    )


def save_instance(instance: IsingInstance, path: str | Path) -> None:
    write_atomic(path, json.dumps(to_json(instance), indent=2) + "\n")


def load_instance(path: str | Path) -> IsingInstance:
    return from_json(read_json(path))
