"""One-dimensional Ising problem instances and their exact ground-truth oracle.

Spins live on an open chain with nearest-neighbour couplings ``J[j]``
(between sites j and j+1) and local fields ``h[j]``.  A configuration is
encoded as an unsigned integer bitstring: bit j (least-significant bit is
site 0) holds x_j in {0, 1}, and the spin value is sigma_j = 1 - 2*x_j,
so x_j = 0 means sigma_j = +1.  All modules share this convention.
"""

from __future__ import annotations

import json
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

_TABLE_CHUNK = 1 << 18

SCHEMA_VERSION = 1


def check_kind(kind: str, seeds) -> None:
    """Reject an unknown instance kind, and a disordered kind with no seed."""
    if kind not in (FERROMAGNETIC, DISORDERED):
        raise DomainError(f"unknown instance kind {kind!r}")
    if kind == DISORDERED and not seeds:
        raise DomainError("disordered instances need at least one seed")


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


def _check_capacity(size: int) -> None:
    if size > MAX_QUBITS:
        raise CapacityError(
            f"exhaustive enumeration capped at {MAX_QUBITS} spins, got {size}"
        )


def energy_table(instance: IsingInstance) -> np.ndarray:
    """Energies of all 2^L bitstrings, indexed by bitstring value.

    The table is computed once per instance and cached (read-only) since
    instances are immutable.
    """
    cached = getattr(instance, "_energy_table", None)
    if cached is not None:
        return cached
    _check_capacity(instance.size)
    size = instance.size
    total = 1 << size
    table = np.empty(total)
    shifts = np.arange(size)
    for lo in range(0, total, _TABLE_CHUNK):
        hi = min(lo + _TABLE_CHUNK, total)
        bits = (np.arange(lo, hi)[:, None] >> shifts) & 1
        s = (1 - 2 * bits).astype(np.int8)
        bonds = (s[:, :-1] * s[:, 1:]) @ instance.couplings
        table[lo:hi] = -bonds - s @ instance.fields
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
