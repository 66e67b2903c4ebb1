import json

import numpy as np
import pytest

from vqopt import ising
from vqopt.errors import CapacityError, DomainError, SchemaError

from oracles import naive_energy


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
