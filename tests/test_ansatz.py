import math
from collections import Counter

import numpy as np
import pytest

from vqopt import ansatz as anz, ising, simulator as sim
from vqopt.errors import DomainError

from oracles import dense_qaoa_state, dense_vqe_state


def make_specs():
    inst = ising.make_ferromagnetic(4)
    return (
        anz.AnsatzSpec(anz.FAMILY_VQE, 4, 2),
        anz.AnsatzSpec(anz.FAMILY_QAOA, 4, 3, instance=inst),
    )


def test_parameter_counts():
    vqe, qaoa = make_specs()
    assert vqe.n_params == 4 * 3
    assert qaoa.n_params == 6
    assert anz.AnsatzSpec(anz.FAMILY_VQE, 7, 1).n_params == 14


def test_spec_validation():
    with pytest.raises(DomainError):
        anz.AnsatzSpec("bogus", 4, 1)
    with pytest.raises(DomainError):
        anz.AnsatzSpec(anz.FAMILY_QAOA, 4, 1)  # missing instance
    with pytest.raises(DomainError):
        anz.AnsatzSpec(anz.FAMILY_QAOA, 5, 1, instance=ising.make_ferromagnetic(4))
    with pytest.raises(DomainError):
        anz.AnsatzSpec(anz.FAMILY_VQE, 4, 0)


def test_parameter_length_mismatch():
    vqe, _ = make_specs()
    with pytest.raises(DomainError):
        anz.prepare_state(vqe, np.zeros(5))


@pytest.mark.parametrize("angle", [math.nan, math.inf, -math.inf, 2.0**62, -1e300])
def test_angles_that_are_not_finite_or_reach_2_62_are_refused(angle):
    # one bad angle anywhere, in one state or a row of a batch, refuses the preparation
    for spec in make_specs():
        theta = np.zeros((3, spec.n_params))
        theta[1, -1] = angle
        for params in (theta[1], theta):
            with pytest.raises(DomainError, match=r"angles must be finite with \|theta\| < 2\^62"):
                anz.prepare_state(spec, params)
        theta[1, -1] = math.copysign(np.nextafter(2.0**62, 0), angle)
        anz.prepare_state(spec, theta)


def test_vqe_identity_rotations_give_zero_state():
    vqe, _ = make_specs()
    state = anz.prepare_state(vqe, np.zeros(vqe.n_params))
    expected = np.zeros(16)
    expected[0] = 1.0
    assert np.allclose(state, expected, atol=1e-12)


def test_qaoa_identity_evolution_is_uniform():
    _, qaoa = make_specs()
    state = anz.prepare_state(qaoa, np.zeros(qaoa.n_params))
    assert np.allclose(np.abs(state) ** 2, 1 / 16, atol=1e-12)


def test_qaoa_small_case_matches_dense_oracle():
    inst = ising.IsingInstance(2, np.array([1.0]), np.zeros(2))
    spec = anz.AnsatzSpec(anz.FAMILY_QAOA, 2, 1, instance=inst)
    state = anz.prepare_state(spec, np.array([0.3, 0.5]))
    expected = dense_qaoa_state(inst.couplings, inst.fields, 2, 1, np.array([0.3, 0.5]))
    assert np.allclose(state, expected, atol=1e-12)


def test_qaoa_random_cases_match_dense_oracle():
    rng = np.random.default_rng(21)
    for seed in range(5):
        inst = ising.make_disordered(4, seed)
        spec = anz.AnsatzSpec(anz.FAMILY_QAOA, 4, 2, instance=inst)
        theta = anz.init_random(spec, rng)
        state = anz.prepare_state(spec, theta)
        expected = dense_qaoa_state(inst.couplings, inst.fields, 4, 2, theta)
        assert np.allclose(state, expected, atol=1e-10)


def test_vqe_random_cases_match_dense_oracle():
    rng = np.random.default_rng(22)
    spec = anz.AnsatzSpec(anz.FAMILY_VQE, 3, 2)
    for _ in range(5):
        theta = anz.init_random(spec, rng)
        state = anz.prepare_state(spec, theta)
        assert np.allclose(state, dense_vqe_state(3, 2, theta), atol=1e-12)


def spy_on(monkeypatch, *names):
    """Count the calls to the named simulator functions."""
    counts = Counter()

    def counting(name, real):
        def wrapped(state, *args):
            counts[name] += 1
            real(state, *args)

        return wrapped

    for name in names:
        monkeypatch.setattr(sim, name, counting(name, getattr(sim, name)))
    return counts


def test_gate_budget(monkeypatch):
    # an ideal ladder runs as one gather, not through apply_cnot; its CNOTs
    # are pinned by the bitwise reference test below
    counts = spy_on(monkeypatch, "apply_ry", "apply_rx", "apply_diagonal_phase")

    vqe, qaoa = make_specs()
    # the first RY layer is a product state, unless it has a zero amplitude
    anz.prepare_state(vqe, np.full(vqe.n_params, 0.3))
    assert counts == {"apply_ry": vqe.depth * vqe.size}
    counts.clear()
    anz.prepare_state(vqe, np.zeros(vqe.n_params))
    assert counts == {"apply_ry": (vqe.depth + 1) * vqe.size}
    # a batch makes the calls of one state
    counts.clear()
    anz.prepare_state(vqe, np.full((5, vqe.n_params), 0.3))
    assert counts == {"apply_ry": vqe.depth * vqe.size}

    counts.clear()
    anz.prepare_state(qaoa, np.zeros(qaoa.n_params))
    assert counts == {"apply_diagonal_phase": qaoa.depth, "apply_rx": qaoa.depth * qaoa.size}


def test_blocked_mixer_rotates_low_qubits_per_chunk(monkeypatch):
    # above 14 qubits the ideal mixer rotates qubits 0..13 on each of the
    # 2^(L-14) chunks, then qubits 14..L-1 on each of 2^(L-14) column blocks;
    # the phase runs once per chunk
    counts = spy_on(monkeypatch, "apply_rx", "apply_diagonal_phase")
    size, depth = 16, 2
    spec = anz.AnsatzSpec(anz.FAMILY_QAOA, size, depth,
                          instance=ising.make_disordered(size, 0))
    anz.prepare_state(spec, np.full(spec.n_params, 0.3))
    assert counts == {"apply_diagonal_phase": depth * 4, "apply_rx": depth * (4 * 14 + 4 * 2)}


def test_noisy_preparation_routes_through_channel(monkeypatch):
    counts = spy_on(monkeypatch, "apply_ry", "apply_cnot", "apply_rzz", "apply_rz", "apply_rx",
                    "apply_diagonal_phase", "relax")
    quiet = sim.NoiseModel(t1_us=math.inf, t2_us=math.inf)
    rng = np.random.default_rng(1)

    vqe, qaoa = make_specs()
    state = anz.prepare_state(vqe, np.zeros(vqe.n_params), quiet,
                              rng.random(anz.compile_plan(vqe, quiet).draws))
    # every gate relaxes each qubit it touches
    assert counts == {
        "apply_ry": (vqe.depth + 1) * vqe.size,
        "apply_cnot": vqe.depth * (vqe.size - 1),
        "relax": (vqe.depth + 1) * vqe.size + 2 * vqe.depth * (vqe.size - 1),
    }
    assert abs(state[0]) == pytest.approx(1.0)

    counts.clear()
    theta = anz.init_random(qaoa, rng)
    noisy = anz.prepare_state(qaoa, theta, quiet, rng.random(anz.compile_plan(qaoa, quiet).draws))
    # gate-level problem phase: (L-1) rzz + L rz per layer, then L rx
    assert counts == {
        "apply_rzz": qaoa.depth * (qaoa.size - 1),
        "apply_rz": qaoa.depth * qaoa.size,
        "apply_rx": qaoa.depth * qaoa.size,
        "relax": qaoa.depth * (2 * (qaoa.size - 1) + 2 * qaoa.size),
    }
    ideal = anz.prepare_state(qaoa, theta)
    overlap = abs(np.vdot(noisy, ideal))
    assert overlap == pytest.approx(1.0, abs=1e-10)


def test_noisy_preparation_needs_uniforms_of_its_shape():
    # the caller draws a state's uniforms: none, a generator, or an array of
    # another shape than theta.shape[:-1] + (draws,) is rejected
    noise = sim.NoiseModel(t1_us=50.0, t2_us=70.0)
    vqe, _ = make_specs()
    draws = anz.compile_plan(vqe, noise).draws
    rng = np.random.default_rng(4)
    theta = np.zeros((3, vqe.n_params))
    for uniforms in (None, rng, rng.random((3, draws + 1)), rng.random((2, draws)),
                     rng.random(3 * draws)):
        with pytest.raises(DomainError, match="needs uniforms of shape"):
            anz.prepare_state(vqe, theta, noise, uniforms)
    with pytest.raises(DomainError, match="needs uniforms of shape"):
        anz.prepare_state(vqe, theta[0], noise, rng.random((1, draws)))
    assert anz.prepare_state(vqe, theta, noise, rng.random((3, draws))).shape == (3, 1 << vqe.size)


def reference_state(spec, theta, noise=None, rng=None):
    """The circuit gate by gate on a complex state, through the simulator's
    public gates (a noisy gate is one apply_noisy_gate call)."""
    size, depth = spec.size, spec.depth

    def apply(op):
        if noise is None:
            sim.apply_gate(state, op)
        else:
            sim.apply_noisy_gate(state, op, noise, rng)

    if spec.family == anz.FAMILY_VQE:
        state = sim.init_zero(size)
        for layer in range(depth + 1):
            for j in range(size):
                apply(sim.GateOp("ry", (j,), theta[layer * size + j]))
            for j in range(size - 1 if layer < depth else 0):
                apply(sim.GateOp("cnot", (j, j + 1)))
        return state
    inst = spec.instance
    state = sim.init_plus(size)
    for layer in range(depth):
        gamma, beta = theta[2 * layer], theta[2 * layer + 1]
        if noise is None:
            sim.apply_diagonal_phase(state, ising.energy_table(inst), -gamma)
            for j in range(size):
                sim.apply_rx(state, j, 2.0 * beta)
            continue
        for j in range(size - 1):
            apply(sim.GateOp("rzz", (j, j + 1), 2.0 * gamma * float(inst.couplings[j])))
        for j in range(size):
            apply(sim.GateOp("rz", (j,), 2.0 * gamma * float(inst.fields[j])))
        for j in range(size):
            apply(sim.GateOp("rx", (j,), 2.0 * beta))
    return state


@pytest.mark.parametrize("family", [anz.FAMILY_VQE, anz.FAMILY_QAOA])
@pytest.mark.parametrize("t1_t2", [None, (50.0, 70.0), (5.0, 7.0), (1.0, 0.5)])
def test_plan_matches_gate_by_gate_reference_bitwise(family, t1_t2):
    # the strong noise settings make decay branches fire
    noise = sim.NoiseModel(*t1_t2) if t1_t2 else None
    cases = [(size, depth, seed) for size in (2, 3, 5, 8) for depth in (1, 2, 3)
             for seed in range(3)]
    if family == anz.FAMILY_QAOA and noise is None:
        # above 14 qubits the ideal mixer and phase run chunk by chunk, and
        # the mixer's 1-3 or 5 high qubits on tiles of 2-8 or 32 rows
        cases += [(size, depth, seed) for size in (15, 16, 17) for depth in (1, 2)
                  for seed in range(2)]
        cases.append((19, 1, 0))
    for size, depth, seed in cases:
        inst = ising.make_disordered(size, seed)
        spec = anz.AnsatzSpec(family, size, depth,
                              instance=inst if family == anz.FAMILY_QAOA else None)
        theta = anz.init_random(spec, np.random.default_rng(seed))
        plan_rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        plan = anz.compile_plan(spec, noise)
        got = anz.prepare_state(spec, theta, noise, plan_rng.random(plan.draws))
        want = reference_state(spec, theta, noise, ref_rng)
        assert got.dtype == plan.dtype
        if family == anz.FAMILY_VQE:
            assert got.dtype == np.float64
            assert got.tobytes() == want.real.tobytes() and not want.imag.any()
        else:
            assert got.tobytes() == want.tobytes()
        assert plan_rng.random() == ref_rng.random()  # the same draws were made
    if t1_t2 in (None, (1.0, 0.5)):
        check_batches_bitwise(family, noise)


def check_batches_bitwise(family, noise):
    """Batches of P in {1, 3, 2 n_par} points at L 2-12: each row has the bits
    of the single-state plan, and through it of the gate-by-gate reference,
    and the generator ends where preparing the rows one by one leaves it."""
    sizes = [2, 3, 4, 6, 9, 12]
    if family == anz.FAMILY_QAOA and noise is None:
        sizes += [15, 16, 17, 19]  # each row's layers run by chunk and tile
    for size in sizes:
        depth = 2 if size < 12 else 1
        inst = ising.make_disordered(size, size)
        spec = anz.AnsatzSpec(family, size, depth,
                              instance=inst if family == anz.FAMILY_QAOA else None)
        for rows in (1, 3, 2 * spec.n_params):
            theta = np.stack([anz.init_random(spec, np.random.default_rng([size, rows, r]))
                              for r in range(rows)])
            if size % 2 == 0:
                # zero angles: a first-layer column of +0 (an RY product with
                # zero amplitudes, built by the gates) and a last column of -0
                theta[:, 0], theta[:, -1] = 0.0, -0.0
            batch_rng, row_rng = np.random.default_rng(size), np.random.default_rng(size)
            draws = anz.compile_plan(spec, noise).draws
            batch = anz.prepare_state(spec, theta, noise, batch_rng.random((rows, draws)))
            assert type(batch) is np.ndarray and batch.shape == (rows, 1 << size)
            for r in range(rows):
                ref_rng = np.random.default_rng()  # makes the row's draws again
                ref_rng.bit_generator.state = row_rng.bit_generator.state
                single = anz.prepare_state(spec, theta[r], noise, row_rng.random(draws))
                assert type(single) is np.ndarray and single.shape == (1 << size,)
                assert batch[r].tobytes() == single.tobytes()
                if r < 3:  # the reference is slow; the first rows are enough
                    want = reference_state(spec, theta[r], noise, ref_rng)
                    want = want.real if family == anz.FAMILY_VQE else want
                    assert single.tobytes() == want.tobytes()
            assert batch_rng.bit_generator.state == row_rng.bit_generator.state


def test_full_qaoa_gate_level_agreement():
    # prepared states agree between diagonal and gate-level paths, L <= 6, d <= 4
    rng = np.random.default_rng(23)
    quiet = sim.NoiseModel(t1_us=math.inf, t2_us=math.inf)
    for trial in range(8):
        size = int(rng.integers(2, 7))
        depth = int(rng.integers(1, 5))
        inst = ising.make_disordered(size, trial) if trial % 2 else ising.make_ferromagnetic(size)
        spec = anz.AnsatzSpec(anz.FAMILY_QAOA, size, depth, instance=inst)
        theta = anz.init_random(spec, rng)
        diag = anz.prepare_state(spec, theta)
        gate = anz.prepare_state(spec, theta, quiet, rng.random(anz.compile_plan(spec, quiet).draws))
        assert abs(np.vdot(diag, gate)) == pytest.approx(1.0, abs=1e-10)


def test_init_random_range_and_determinism():
    vqe, _ = make_specs()
    rng = np.random.default_rng(3)
    draws = np.concatenate([anz.init_random(vqe, rng) for _ in range(1000)])
    assert np.all(draws > -math.pi) and np.all(draws <= math.pi)
    narrow = np.concatenate(
        [anz.init_random(vqe, rng, -1.0, 1.0) for _ in range(1000)]
    )
    assert np.all(narrow > -1.0) and np.all(narrow <= 1.0)
    assert np.max(np.abs(narrow)) > 0.9  # actually fills the requested range

    a = anz.init_random(vqe, np.random.default_rng(9))
    b = anz.init_random(vqe, np.random.default_rng(9))
    assert np.array_equal(a, b)
    for low, high in ((1.0, -1.0), (math.nan, 1.0), (-1.0, math.inf), (-1e308, 1e308)):
        with pytest.raises(DomainError):
            anz.init_random(vqe, rng, low, high)


def test_linear_schedule_values():
    theta = anz.init_linear_schedule(2, 0.8)
    assert theta.tolist() == pytest.approx([0.4, 0.4, 0.8, 0.0])
    theta = anz.init_linear_schedule(1, 1.0)
    assert theta.tolist() == pytest.approx([1.0, 0.0])
    theta = anz.init_linear_schedule(4, 0.8)
    assert theta[0::2].tolist() == pytest.approx([0.2, 0.4, 0.6, 0.8])
    assert theta[1::2].tolist() == pytest.approx([0.6, 0.4, 0.2, 0.0])


def test_linear_schedule_monotone():
    for depth in (2, 3, 8):
        theta = anz.init_linear_schedule(depth, 0.8)
        problem, mixer = theta[0::2], theta[1::2]
        assert np.all(np.diff(problem) > 0)
        assert np.all(np.diff(mixer) < 0)
    with pytest.raises(DomainError):
        anz.init_linear_schedule(0, 0.8)
    for dt in (0.0, math.nan, math.inf):
        with pytest.raises(DomainError):
            anz.init_linear_schedule(2, dt)


def _signed_zero_chain(size):
    zeros = np.random.default_rng(size).choice([0.0, -0.0], 2 * size - 1)
    return ising.IsingInstance(size, zeros[:size - 1], zeros[size - 1:])


@pytest.mark.parametrize("size", [3, 12, 15, 16])
def test_linear_schedule_states_match_reference_bitwise(size):
    # the schedule's last mixer angle is 0, so that layer is skipped where no
    # real or imaginary part of the state is zero; the bits are those of running it
    for inst in (ising.make_disordered(size, size), _signed_zero_chain(size)):
        for depth in (1, 2, 4):
            spec = anz.AnsatzSpec(anz.FAMILY_QAOA, size, depth, instance=inst)
            theta = anz.init_linear_schedule(depth, 0.8)
            want = reference_state(spec, theta)
            assert anz.prepare_state(spec, theta).tobytes() == want.tobytes()
            skipped = np.stack([theta, 0.5 * theta, -theta])  # last angles 0, 0, -0
            rotated = skipped.copy()
            rotated[1, -1] = 0.25  # one row's last mixer angle is not zero
            for batch in (skipped, rotated):
                for row, angles in zip(anz.prepare_state(spec, batch), batch):
                    assert row.tobytes() == reference_state(spec, angles).tobytes()


@pytest.mark.parametrize("size, per_layer", [(12, 12), (16, 4 * 14 + 4 * 2)])
def test_zero_mixer_layer_runs_only_where_it_could_change_a_bit(monkeypatch, size, per_layer):
    # per_layer: the apply_rx calls of one mixer layer on one state (above 14
    # qubits, 14 per chunk and the high qubits per tile, row by row); up to 14
    # qubits a batch rotates as a whole
    counts = spy_on(monkeypatch, "apply_rx")
    batch_layer = per_layer if size <= 14 else 3 * per_layer
    for depth in (1, 2, 4):
        theta = anz.init_linear_schedule(depth, 0.8)
        skipped = np.stack([theta, 0.5 * theta, -theta])
        rotated = skipped.copy()
        rotated[1, -1] = 0.25  # the last mixer angles are not all zero
        disordered = anz.AnsatzSpec(anz.FAMILY_QAOA, size, depth,
                                    instance=ising.make_disordered(size, 1))
        # states with zero parts, where RX(0) may flip a zero's sign: |+> under
        # zero angles throughout, and |+> under the phase of a +-0 table, which
        # at d = 1 meets the zero mixer before any other mixer turns it
        zeros = anz.AnsatzSpec(anz.FAMILY_QAOA, size, depth, instance=_signed_zero_chain(size))
        for spec, angles, calls in ((disordered, theta, (depth - 1) * per_layer),
                                    (disordered, skipped, (depth - 1) * batch_layer),
                                    (disordered, rotated, depth * batch_layer),
                                    (disordered, np.zeros_like(theta), depth * per_layer),
                                    (zeros, -np.zeros_like(theta), depth * per_layer),
                                    (zeros, theta, (depth - 1 or 1) * per_layer)):
            counts.clear()
            anz.prepare_state(spec, angles)
            assert counts["apply_rx"] == calls, (spec.instance.seed, angles.shape)


@pytest.mark.parametrize("size", [4, 16])
def test_zero_mixer_layer_keeps_rx_bits_on_signed_zero_parts(size):
    # RX(+-0) turns a -0 part next to a nonzero one into +0 (x*0 + -0*1 = +0),
    # so a zero-angle layer on such a state must run, not be skipped
    spec = anz.AnsatzSpec(anz.FAMILY_QAOA, size, 1, instance=ising.make_disordered(size, 0))
    mixer = anz.compile_plan(spec).steps[1]  # (phase, mixer layer)
    rng = np.random.default_rng(size)
    for beta in (0.0, -0.0):
        for part in ("real", "imag"):
            state = rng.standard_normal(1 << size) * (1.0 + 0j if part == "real" else 1j)
            setattr(state, "imag" if part == "real" else "real", -0.0)
            want = state.copy()
            for j in range(size):
                sim.apply_rx(want, j, 2.0 * beta)
            assert want.tobytes() != state.tobytes()  # the signs of zeros move
            mixer(state, np.array([0.3, beta]), None)
            assert state.tobytes() == want.tobytes()
