import math

import numpy as np
import pytest
from scipy.stats import chisquare

from vqopt import ising, simulator as sim
from vqopt.errors import CapacityError, DomainError, IntegrityError

from oracles import (
    HADAMARD,
    dense_cnot,
    dense_rx,
    dense_ry,
    dense_rz,
    dense_rzz,
    index_rzz,
    kron_on,
    two_product_rotation,
)


def random_state(size: int, rng) -> np.ndarray:
    amps = rng.standard_normal(2**size) + 1j * rng.standard_normal(2**size)
    amps /= np.linalg.norm(amps)
    return amps


def test_init_states():
    assert sim.init_zero(2).tolist() == [1, 0, 0, 0]
    assert np.allclose(sim.init_plus(2), 0.5)
    st = sim.init_plus(7)
    assert np.allclose(np.abs(st) ** 2, 2.0**-7)
    with pytest.raises(CapacityError):
        sim.init_zero(25)
    with pytest.raises(CapacityError):
        sim.init_plus(0)


def test_ry_pi_flips_zero_to_one():
    st = sim.init_zero(1)
    sim.apply_ry(st, 0, math.pi)
    assert np.allclose(st, [0, 1], atol=1e-12)


def test_cnot_permutation():
    st = np.array([0, 0, 0, 1], dtype=complex)
    sim.apply_cnot(st, 0, 1)
    assert st.tolist() == [0, 1, 0, 0]
    sim.apply_cnot(st, 0, 1)
    assert st.tolist() == [0, 0, 0, 1]


def test_rzz_phase_on_00():
    st = sim.init_zero(2)
    sim.apply_rzz(st, 0, 1, 0.7)
    assert st[0] == pytest.approx(np.exp(0.35j))


@pytest.mark.parametrize("gate,dense", [
    ("ry", dense_ry), ("rx", dense_rx), ("rz", dense_rz),
])
def test_single_qubit_gates_match_matrix_exponentials(gate, dense):
    rng = np.random.default_rng(3)
    apply = {"ry": sim.apply_ry, "rx": sim.apply_rx, "rz": sim.apply_rz}[gate]
    for _ in range(10):
        size = int(rng.integers(1, 6))
        qubit = int(rng.integers(0, size))
        theta = float(rng.uniform(-2 * math.pi, 2 * math.pi))
        st = random_state(size, rng)
        expected = kron_on(dense(theta), (qubit,), size) @ st
        apply(st, qubit, theta)
        assert np.allclose(st, expected, atol=1e-12)


def test_two_qubit_gates_match_matrix_exponentials():
    rng = np.random.default_rng(4)
    for _ in range(10):
        size = int(rng.integers(2, 6))
        qubit = int(rng.integers(0, size - 1))
        theta = float(rng.uniform(-2 * math.pi, 2 * math.pi))

        st = random_state(size, rng)
        expected = kron_on(dense_rzz(theta), (qubit, qubit + 1), size) @ st
        sim.apply_rzz(st, qubit, qubit + 1, theta)
        assert np.allclose(st, expected, atol=1e-12)

        st = random_state(size, rng)
        expected = kron_on(dense_cnot(), (qubit, qubit + 1), size) @ st
        sim.apply_cnot(st, qubit, qubit + 1)
        assert np.allclose(st, expected, atol=1e-12)


def test_cnot_any_pair_against_bit_arithmetic():
    # every ordered pair, on complex and on real (RY-CNOT) states
    rng = np.random.default_rng(5)
    size = 5
    x = np.arange(2**size)
    for control in range(size):
        for target in range(size):
            if control == target:
                continue
            src = np.where((x >> control) & 1, x ^ (1 << target), x)
            for st in (random_state(size, rng), rng.normal(size=2**size)):
                before = st.copy()
                sim.apply_cnot(st, control, target)
                assert np.array_equal(st, before[src])


def test_complex_gates_reject_a_real_state():
    st = sim.init_zero(3, dtype=float)
    for gate in (
        lambda: sim.apply_rx(st, 0, 0.3),
        lambda: sim.apply_rz(st, 1, 0.3),
        lambda: sim.apply_rzz(st, 0, 2, 0.3),
        lambda: sim.apply_diagonal_phase(st, np.zeros(8), 0.3),
    ):
        with pytest.raises(DomainError):
            gate()
    assert np.array_equal(st, sim.init_zero(3, dtype=float))


def test_gates_read_the_qubit_count_from_the_array_length():
    # a view of 2^3 amplitudes is a 3-qubit state, whatever array it is cut from
    rng = np.random.default_rng(14)
    st = random_state(5, rng)
    before = st.copy()
    block = st[8:16]
    for gate in (
        lambda: sim.apply_ry(block, 3, 0.3),
        lambda: sim.apply_rx(block, 3, 0.3),
        lambda: sim.apply_rz(block, -1, 0.3),
        lambda: sim.apply_cnot(block, 0, 3),
        lambda: sim.apply_rzz(block, 3, 0, 0.3),
    ):
        with pytest.raises(DomainError):
            gate()
    assert np.array_equal(st, before)
    sim.apply_rx(block, 2, 0.3)  # qubit 2 pairs amplitudes within each block of 8
    sim.apply_rx(before, 2, 0.3)
    assert np.array_equal(st[8:16], before[8:16])


def test_diagonal_phase_identity_and_global_phase():
    rng = np.random.default_rng(6)
    st = random_state(3, rng)
    before = st.copy()
    sim.apply_diagonal_phase(st, np.arange(8.0), 0.0)
    assert np.array_equal(st, before)
    sim.apply_diagonal_phase(st, np.full(8, 2.5), 1.3)
    assert np.allclose(np.abs(st) ** 2, np.abs(before) ** 2, atol=1e-12)


def test_diagonal_phase_equals_gate_decomposition():
    # phase layer built from rzz/rz gates must equal the table-driven path
    rng = np.random.default_rng(7)
    for trial in range(20):
        size = int(rng.integers(2, 7))
        if trial % 2 == 0:
            inst = ising.make_ferromagnetic(size)
        else:
            inst = ising.make_disordered(size, trial)
        gamma = float(rng.uniform(-2.0, 2.0))
        table = ising.energy_table(inst)

        st_diag = random_state(size, rng)
        st_gate = st_diag.copy()
        sim.apply_diagonal_phase(st_diag, table, -gamma)
        for j in range(size - 1):
            sim.apply_rzz(st_gate, j, j + 1, 2.0 * gamma * inst.couplings[j])
        for j in range(size):
            sim.apply_rz(st_gate, j, 2.0 * gamma * inst.fields[j])
        overlap = abs(np.vdot(st_diag, st_gate))
        assert overlap == pytest.approx(1.0, abs=1e-10)


def test_diagonal_phase_shape_mismatch():
    st = sim.init_plus(3)
    with pytest.raises(DomainError):
        sim.apply_diagonal_phase(st, np.zeros(4), 0.1)


def test_norm_preserved_under_random_gate_strings():
    rng = np.random.default_rng(8)
    for size in (2, 5, 8):
        st = random_state(size, rng)
        for _ in range(100):
            pick = rng.integers(0, 4)
            q = int(rng.integers(0, size))
            theta = float(rng.uniform(-math.pi, math.pi))
            if pick == 0:
                sim.apply_ry(st, q, theta)
            elif pick == 1:
                sim.apply_rx(st, q, theta)
            elif pick == 2:
                sim.apply_rz(st, q, theta)
            else:
                q2 = int(rng.integers(0, size))
                if q2 == q:
                    q2 = (q + 1) % size
                sim.apply_rzz(st, q, q2, theta)
        assert abs(np.vdot(st, st).real - 1.0) < 1e-9


def test_rzz_matches_index_formula_bitwise():
    rng = np.random.default_rng(12)
    for size in range(2, 11):
        for qubit_a in range(size):
            for qubit_b in range(size):
                if qubit_a == qubit_b:
                    continue
                for theta in (0.37, -0.37, 2.6, -2.6):
                    st = random_state(size, rng)
                    want = st.copy()
                    index_rzz(want, qubit_a, qubit_b, theta)
                    sim.apply_rzz(st, qubit_a, qubit_b, theta)
                    assert np.array_equal(st, want), (size, qubit_a, qubit_b, theta)


def rotation_inputs(size: int, rng):
    """Complex and real states and (3, 2^L) batches, each also with exact
    zeros of both signs in place of some amplitudes (or of their parts)."""
    amps = random_state(size, rng)
    zeroed = amps.copy()
    zeroed[::3] = 0.0
    zeroed[1::5] = -0.0
    zeroed.real[2::4] = -0.0
    zeroed.imag[3::4] = 0.0
    batch = np.stack([random_state(size, rng), zeroed, amps])
    for state in (amps, zeroed, batch):
        yield state
        yield state.real.copy()


@pytest.mark.parametrize("gate", ["rx", "ry"])
def test_rotations_match_two_product_formula_bitwise(gate):
    # every qubit at L 1-6; angles +-0 (s = +-0), +-pi (c ~ 6e-17) and two
    # others, a float for the whole state or batch, or one angle per row
    rng = np.random.default_rng(15)
    apply = {"rx": sim.apply_rx, "ry": sim.apply_ry}[gate]
    angles = (0.0, -0.0, math.pi, -math.pi, 0.37, -2.6)
    for size in range(1, 7):
        for state in rotation_inputs(size, rng):
            if gate == "rx" and state.dtype.kind == "f":
                continue  # RX rejects a real state
            thetas = list(angles)
            if state.ndim == 2:
                thetas += [np.array(angles[:3]), np.array(angles[3:])]
            for qubit in range(size):
                for theta in thetas:
                    got, want = state.copy(), state.copy()
                    apply(got, qubit, theta)
                    two_product_rotation(want, gate, qubit, theta)
                    assert got.tobytes() == want.tobytes(), (size, state.shape, qubit, theta)


def test_diagonal_phase_matches_one_exp_bitwise():
    rng = np.random.default_rng(13)
    for size in (3, 10, 16):
        table = ising.energy_table(ising.make_disordered(size, 4))
        for gamma in (0.3, -1.7):
            st = random_state(size, rng)
            want = st.copy()
            want *= np.exp(1j * gamma * table)
            sim.apply_diagonal_phase(st, table, gamma)
            assert np.array_equal(st, want)


def test_gate_inverse_returns_original():
    rng = np.random.default_rng(9)
    st = random_state(4, rng)
    original = st.copy()
    for apply, inverse_sign in ((sim.apply_ry, -1), (sim.apply_rx, -1), (sim.apply_rz, -1)):
        theta = float(rng.uniform(-math.pi, math.pi))
        apply(st, 2, theta)
        apply(st, 2, inverse_sign * theta)
        assert np.allclose(st, original, atol=1e-10)
    sim.apply_rzz(st, 0, 3, 0.37)
    sim.apply_rzz(st, 0, 3, -0.37)
    assert np.allclose(st, original, atol=1e-10)


def test_sample_shots_delta_state():
    st = np.zeros(8, dtype=complex)
    st[5] = 1.0
    rng = np.random.default_rng(0)
    assert np.all(sim.sample_shots(st, rng.random(50)) == 5)


def test_sample_shots_determinism():
    st = sim.init_plus(4)
    a = sim.sample_shots(st, np.random.default_rng(42).random(100))
    b = sim.sample_shots(st, np.random.default_rng(42).random(100))
    assert np.array_equal(a, b)
    # the inverse CDF: a uniform in [k/16, (k+1)/16) lands on bitstring k
    assert sim.sample_shots(st, (np.arange(16) + 0.5) / 16).tolist() == list(range(16))


def test_sample_shots_unnormalized_rejected():
    st = np.array([1.0, 1.0, 0, 0], dtype=complex)
    with pytest.raises(IntegrityError):
        sim.sample_shots(st, np.random.default_rng(0).random(1))
    with pytest.raises(DomainError):
        sim.sample_shots(sim.init_plus(2), np.random.default_rng(0).random(0))
    with pytest.raises(IntegrityError):  # not bitstring 2^L
        sim.sample_shots(np.full(4, np.nan), np.random.default_rng(0).random(1))


def test_born_rule_chi_square():
    rng = np.random.default_rng(10)
    shots = 10**5
    for _ in range(20):
        st = random_state(5, rng)
        draws = sim.sample_shots(st, rng.random(shots))
        counts = np.bincount(draws, minlength=32)
        expected = np.abs(st) ** 2 * shots
        # merge tiny-expectation bins to keep the chi-square applicable
        keep = expected >= 5
        merged_counts = np.append(counts[keep], counts[~keep].sum())
        merged_expected = np.append(expected[keep], expected[~keep].sum())
        if merged_expected[-1] == 0:
            merged_counts, merged_expected = merged_counts[:-1], merged_expected[:-1]
        merged_expected *= merged_counts.sum() / merged_expected.sum()
        _, pvalue = chisquare(merged_counts, merged_expected)
        assert pvalue > 1e-4


def test_uniform_sampling_frequencies():
    rng = np.random.default_rng(11)
    draws = sim.sample_shots(sim.init_plus(4), rng.random(10**6))
    freqs = np.bincount(draws, minlength=16) / 10**6
    sigma = math.sqrt((1 / 16) * (15 / 16) / 10**6)
    assert np.all(np.abs(freqs - 1 / 16) < 4 * sigma)


def test_expectation_diagonal():
    table = ising.energy_table(ising.make_ferromagnetic(4))
    st = sim.init_zero(4)
    assert sim.expectation_diagonal(st, table) == pytest.approx(table[0])
    st = sim.init_plus(4)
    assert sim.expectation_diagonal(st, table) == pytest.approx(table.mean())


def test_expectation_matches_sampled_mean():
    rng = np.random.default_rng(12)
    inst = ising.make_ferromagnetic(6)
    table = ising.energy_table(inst)
    st = random_state(6, rng)
    exact = sim.expectation_diagonal(st, table)
    draws = sim.sample_shots(st, rng.random(10**6))
    energies = table[draws]
    stderr = energies.std() / 1000.0
    assert abs(energies.mean() - exact) < 4 * stderr


# --- noise channel -----------------------------------------------------------


def test_noise_model_validation():
    with pytest.raises(DomainError):
        sim.NoiseModel(t1_us=50.0, t2_us=120.0)
    with pytest.raises(DomainError):
        sim.NoiseModel(t1_us=-1.0, t2_us=1.0)
    for field in ("t1_us", "t2_us", "t1q_ns", "t2q_ns"):
        with pytest.raises(DomainError):
            sim.NoiseModel(**{"t1_us": 50.0, "t2_us": 70.0, field: math.nan})
    for field in ("t1q_ns", "t2q_ns"):  # an infinite gate gives a NaN flip probability
        with pytest.raises(DomainError):
            sim.NoiseModel(**{"t1_us": 50.0, "t2_us": 100.0, field: math.inf})
    sim.NoiseModel(t1_us=math.inf, t2_us=math.inf)  # no relaxation at all stays valid
    model = sim.NoiseModel(t1_us=50.0, t2_us=70.0)
    assert sim.NoiseModel.from_json(model.to_json()) == model


def test_zero_noise_limit_matches_ideal_gate():
    quiet = sim.NoiseModel(t1_us=math.inf, t2_us=math.inf)
    rng = np.random.default_rng(13)
    st_noisy = random_state(3, rng)
    st_ideal = st_noisy.copy()
    op = sim.GateOp("ry", (1,), 0.8)
    sim.apply_noisy_gate(st_noisy, op, quiet, rng)
    sim.apply_gate(st_ideal, op)
    assert np.allclose(st_noisy, st_ideal, atol=1e-12)


def test_unknown_gate_rejected():
    with pytest.raises(DomainError):
        sim.apply_gate(sim.init_zero(1), sim.GateOp("h", (0,)))


def _trajectory_population(model, idle_ns, chunks, trials, seed):
    rng = np.random.default_rng(seed)
    channel = model.channel(idle_ns / chunks)
    stay = 0
    for _ in range(trials):
        st = sim.init_zero(1)
        sim.apply_ry(st, 0, math.pi)  # |1>
        for _ in range(chunks):
            sim.relax(st, 0, channel, rng.random(sim.channel_draws(channel)))
        stay += np.abs(st[1]) ** 2
    return stay / trials


def test_amplitude_damping_decay_quick():
    model = sim.NoiseModel(t1_us=50.0, t2_us=70.0)
    idle_ns = 40_000.0  # 0.8 T1
    population = _trajectory_population(model, idle_ns, chunks=4, trials=2000, seed=14)
    assert population == pytest.approx(math.exp(-0.8), rel=0.10)


def test_dephasing_decay_quick():
    model = sim.NoiseModel(t1_us=50.0, t2_us=70.0)
    idle_ns = 35_000.0  # 0.5 T2
    rng = np.random.default_rng(15)
    channel = model.channel(idle_ns / 4)
    coherence = 0.0
    trials = 2000
    for _ in range(trials):
        st = sim.init_plus(1)
        for _ in range(4):
            sim.relax(st, 0, channel, rng.random(sim.channel_draws(channel)))
        coherence += (st[0] * st[1].conjugate()).real
    coherence /= trials * 0.5  # |+| coherence starts at 1/2
    assert coherence == pytest.approx(math.exp(-0.5), rel=0.10)
