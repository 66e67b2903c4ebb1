import json
import sys

import numpy as np
import pytest

from vqopt import ising
from vqopt.errors import CapacityError, DomainError, SchemaError

from oracles import int8_energy_table, naive_energy


def test_ferromagnetic_energy_examples():
    inst = ising.make_ferromagnetic(8)
    assert ising.energy(inst, 0b11111111) == pytest.approx(-7.4)
    assert ising.energy(inst, 0b00000000) == pytest.approx(-6.6)


def test_single_antialigned_bond():
    inst = ising.IsingInstance(2, np.array([1.0]), np.zeros(2))
    assert ising.energy(inst, 0b01) == pytest.approx(1.0)


def test_energy_out_of_range():
    inst = ising.make_ferromagnetic(4)
    with pytest.raises(DomainError):
        ising.energy(inst, 16)
    with pytest.raises(DomainError):
        ising.energy(inst, -1)


def test_energy_matches_naive_oracle():
    rng = np.random.default_rng(11)
    for _ in range(20):
        size = int(rng.integers(2, 11))
        inst = ising.IsingInstance(
            size, rng.standard_normal(size - 1), rng.standard_normal(size), "disordered", 1
        )
        for x in rng.integers(0, 2**size, size=5):
            expected = naive_energy(inst.couplings, inst.fields, int(x), size)
            assert ising.energy(inst, int(x)) == pytest.approx(expected)


def test_make_ferromagnetic_values():
    inst = ising.make_ferromagnetic(4)
    assert inst.couplings.tolist() == [1.0, 1.0, 1.0]
    assert inst.fields.tolist() == [-0.05] * 4
    small = ising.make_ferromagnetic(2)
    assert small.couplings.tolist() == [1.0]
    assert small.fields.tolist() == [-0.05, -0.05]
    with pytest.raises(DomainError):
        ising.make_ferromagnetic(1)


def test_ferromagnetic_global_minimum_is_all_ones():
    for size in range(2, 15):
        table = ising.energy_table(ising.make_ferromagnetic(size))
        assert int(np.argmin(table)) == 2**size - 1
        # uniqueness under the tilt field
        assert np.sum(table == table.min()) == 1


def test_disordered_determinism_and_sensitivity():
    a = ising.make_disordered(6, 17)
    b = ising.make_disordered(6, 17)
    assert np.array_equal(a.couplings, b.couplings)
    assert np.array_equal(a.fields, b.fields)
    c = ising.make_disordered(6, 18)
    assert not np.array_equal(a.couplings, c.couplings)


def test_disordered_moments():
    # pool ~1e6 standard-normal draws across instances
    draws = []
    for seed in range(10):
        inst = ising.make_disordered(50001, seed)
        draws.append(inst.couplings)
        draws.append(inst.fields)
    pooled = np.concatenate(draws)
    assert pooled.size >= 10**6
    assert abs(pooled.mean()) < 0.01
    assert abs(pooled.var() - 1.0) < 0.01


def test_brute_force_ferromagnetic():
    gt = ising.brute_force_minimum(ising.make_ferromagnetic(8))
    assert gt.minimizers == (255,)
    assert gt.degeneracy == 1
    assert gt.minimum_energy == pytest.approx(-7.4)


def test_brute_force_zero_field_degeneracy():
    inst = ising.IsingInstance(4, np.ones(3), np.zeros(4))
    gt = ising.brute_force_minimum(inst)
    assert gt.degeneracy == 2
    assert set(gt.minimizers) == {0, 0b1111}


def test_disordered_instances_nondegenerate():
    for seed in range(30):
        gt = ising.brute_force_minimum(ising.make_disordered(10, seed))
        assert gt.degeneracy == 1


def test_energy_table_small():
    table = ising.energy_table(ising.make_ferromagnetic(2))
    assert table.tolist() == pytest.approx([-0.9, 1.0, 1.0, -1.1])


def test_energy_table_consistency():
    rng = np.random.default_rng(5)
    inst = ising.make_disordered(9, 4)
    table = ising.energy_table(inst)
    assert table.shape == (512,)
    assert table.min() == ising.brute_force_minimum(inst).minimum_energy
    for x in rng.integers(0, 512, size=100):
        assert table[x] == pytest.approx(ising.energy(inst, int(x)))


@pytest.mark.parametrize("size", [12, 16, 17, 20])  # 17: an odd number of high bits
def test_energy_table_independent_of_chunk(monkeypatch, size):
    want = ising.energy_table(ising.make_disordered(size, 3))
    for chunk in (1 << 4, 1 << 10, 1 << 14, 1 << size):  # 2^14: the chunk before 2^12
        monkeypatch.setattr(ising, "_TABLE_CHUNK", chunk)
        got = ising.energy_table(ising.make_disordered(size, 3))  # a fresh, uncached instance
        assert got.tobytes() == want.tobytes(), chunk


def _table_chains(size):
    """Two disordered chains, the ferromagnetic chain and one of +-0.0 couplings and fields."""
    signed_zeros = np.random.default_rng(size).choice([0.0, -0.0], 2 * size - 1)
    return [ising.make_disordered(size, size), ising.make_disordered(size, size + 100),
            ising.make_ferromagnetic(size),
            ising.IsingInstance(size, signed_zeros[:size - 1], signed_zeros[size - 1:])]


# chunks of 2^4 rows stop at L = 14, ten high bits of Gray code (L 15-20 would
# add about 12 s), and a table of one chunk at L = 18 (both sides of a 2^20-row
# chunk would hold about 0.5 GB)
@pytest.mark.parametrize("chunk_bits, sizes", [(4, range(2, 15)), (10, [*range(2, 19), 20]),
                                               (14, [*range(2, 19), 20]), (None, range(2, 19))],
                         ids=["chunk 2^4", "chunk 2^10", "chunk 2^14", "one chunk"])
def test_energy_table_matches_int8_build_bitwise(monkeypatch, chunk_bits, sizes):
    # the same chunk on both sides: a matrix-vector product's sums depend on
    # its row count, so a table is only bit-equal to one of the same chunks
    for size in sizes:
        chunk = 1 << (size if chunk_bits is None else chunk_bits)
        monkeypatch.setattr(ising, "_TABLE_CHUNK", chunk)
        for instance in _table_chains(size):
            want = int8_energy_table(instance.couplings, instance.fields, chunk)
            got = ising.energy_table(instance)
            assert got.tobytes() == want.tobytes(), (size, chunk, instance.couplings[:2])


def test_global_spin_flip_symmetry_without_fields():
    rng = np.random.default_rng(2)
    for size in range(2, 13):
        inst = ising.IsingInstance(size, rng.standard_normal(size - 1), np.zeros(size))
        mask = 2**size - 1
        for x in rng.integers(0, 2**size, size=20):
            assert ising.energy(inst, int(x)) == pytest.approx(
                ising.energy(inst, int(x) ^ mask)
            )


def test_capacity_errors():
    inst = ising.IsingInstance(25, np.ones(24), np.zeros(25))
    with pytest.raises(CapacityError):
        ising.energy_table(inst)
    with pytest.raises(CapacityError):
        ising.brute_force_minimum(inst)


def test_invalid_shapes():
    with pytest.raises(DomainError):
        ising.IsingInstance(3, np.ones(3), np.zeros(3))
    with pytest.raises(DomainError):
        ising.IsingInstance(3, np.ones(2), np.zeros(2))
    with pytest.raises(DomainError):
        ising.IsingInstance(1, np.ones(0), np.zeros(1))
    with pytest.raises(DomainError, match="bogus"):
        ising.IsingInstance(2, np.ones(1), np.zeros(2), kind="bogus")
    with pytest.raises(DomainError, match="bogus"):
        ising.make_instances(4, "bogus", (0,))
    with pytest.raises(DomainError, match="seed"):
        ising.make_instances(4, ising.DISORDERED, ())
    # a repeated seed would count one instance as two realizations
    with pytest.raises(DomainError, match="seeds must differ"):
        ising.make_instances(4, ising.DISORDERED, (3, 3))
    assert len(ising.make_instances(4, ising.FERROMAGNETIC, (3, 3))) == 1  # seeds unused


def test_non_finite_or_overflowing_chains_are_refused():
    # every energy lies within sum |J| + sum |h|, so a bound below 2^-64 of the
    # float maximum keeps the energy table, the sum of any array of its
    # energies, f_min and every trace row finite
    limit = sys.float_info.max / 2**64
    for couplings, fields in (([np.nan, 1.0], [0.0] * 3), ([1.0, 1.0], [0.0, np.inf, 0.0]),
                              ([1.0, -np.inf], [0.0] * 3), ([1e308] * 2, [1e308, 0.0, 0.0]),
                              ([limit / 4] * 2, [limit / 4, limit / 4, 0.0]),
                              ([limit, 0.0], [0.0] * 3)):
        with pytest.raises(DomainError, match="must be finite"):
            ising.IsingInstance(3, np.array(couplings), np.array(fields))
    # the bound of the largest chains that pass is below the limit, their
    # table is finite, and so is 2^62 times its largest energy
    big = np.nextafter(limit / 5, 0)
    instance = ising.IsingInstance(3, np.array([big, -big]), np.full(3, big))
    table = ising.energy_table(instance)
    assert np.isfinite(table).all() and np.abs(table).max() < limit
    assert np.isfinite(np.abs(table).max() * 2.0**62)


def test_serialization_round_trip(tmp_path):
    inst = ising.make_disordered(7, 123)
    path = tmp_path / "inst.json"
    ising.save_instance(inst, path)
    back = ising.load_instance(path)
    assert back.size == inst.size
    assert back.kind == inst.kind
    assert back.seed == inst.seed
    assert np.array_equal(back.couplings, inst.couplings)
    assert np.array_equal(back.fields, inst.fields)


def test_serialization_schema_error(tmp_path):
    obj = ising.to_json(ising.make_ferromagnetic(4))
    obj["schema_version"] = 99
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(obj))
    with pytest.raises(SchemaError):
        ising.load_instance(path)
