import math

import numpy as np
import pytest

from vqopt import ansatz as anz, estimator as est, ising, optimizer as opt, simulator as sim
from vqopt.errors import DomainError

from oracles import richardson_gradient


def sample_set(energies, bitstrings=None):
    energies = np.asarray(energies, dtype=float)
    if bitstrings is None:
        bitstrings = np.arange(len(energies))
    return est.SampleSet(np.asarray(bitstrings), energies)


def test_mean_cost():
    assert est.mean_cost(sample_set([1, 2, 3, 4])) == pytest.approx(2.5)
    assert est.mean_cost(sample_set([7.5])) == pytest.approx(7.5)


def test_cvar_examples():
    assert est.cost(sample_set([4, 1, 3, 2]), est.CostKind(0.25)) == pytest.approx(1.0)
    assert est.cost(sample_set([8, 7, 6, 5, 4, 3, 2, 1]), est.CostKind(0.25)) == pytest.approx(1.5)
    samples = sample_set([4, 1, 3, 2])
    assert est.cost(samples, est.CostKind(1.0)) == est.mean_cost(samples)


def test_cvar_floor_and_validation():
    # fewer than 1/alpha samples still yields the single best value
    assert est.cost(sample_set([5.0, 2.0]), est.CostKind(0.25)) == pytest.approx(2.0)
    with pytest.raises(DomainError):
        est.cost(sample_set([1.0]), est.CostKind(0.0))
    with pytest.raises(DomainError):
        est.cost(sample_set([1.0]), est.CostKind(1.5))
    with pytest.raises(DomainError):
        est.CostKind(0.0)


def test_cvar_deterministic_tie_break():
    energies = [1.0, 1.0, 1.0, 2.0]
    a = sample_set(energies, bitstrings=[3, 1, 2, 0])
    b = sample_set(energies, bitstrings=[1, 3, 2, 0])
    assert est.cost(a, est.CostKind(0.25)) == est.cost(b, est.CostKind(0.25)) == 1.0


def test_cvar_matches_mean_at_full_alpha_random():
    rng = np.random.default_rng(31)
    for _ in range(200):
        m = int(rng.integers(1, 40))
        samples = sample_set(rng.standard_normal(m), rng.integers(0, 100, m))
        assert est.cost(samples, est.CostKind(1.0)) == pytest.approx(est.mean_cost(samples))
        assert est.cost(samples, est.MEAN) == est.mean_cost(samples)  # bit for bit
        assert est.cost(samples, est.CostKind(0.25)) <= est.mean_cost(samples) + 1e-12


def test_order_statistics_chain():
    rng = np.random.default_rng(32)
    for _ in range(1000):
        m = int(rng.integers(1, 30))
        samples = sample_set(rng.standard_normal(m), rng.integers(0, 1000, m))
        f_min = samples.energies.min()
        assert f_min <= est.cost(samples, est.CostKind(0.25)) + 1e-12
        assert est.cost(samples, est.CostKind(0.25)) <= est.mean_cost(samples) + 1e-12


def gradient(spec, theta, inst, rule, shots=None, rng=None):
    """The gradient ``optimizer.run`` measures: mean costs at ``shifted_points``
    (exact expectations when ``shots`` is None) combined by ``central_difference``."""
    shift, denominator = rule
    points = est.shifted_points(theta, shift)
    if shots is None:
        values = [est.exact_cost(spec, x, inst) for x in points]
    else:
        table = ising.energy_table(inst)
        values = [
            est.mean_cost(est.sample_round(spec, [x], table, shots, None, rng)[0]) for x in points
        ]
    return est.central_difference(values, denominator)


def finite_diff(step):
    return (step, 2.0 * step)


def test_evaluate_single_shot_and_delta_state():
    inst = ising.make_ferromagnetic(4)
    table = ising.energy_table(inst)
    spec = anz.AnsatzSpec(anz.FAMILY_VQE, 4, 1)
    rng = np.random.default_rng(33)
    samples = est.sample_round(spec, [np.zeros(8)], table, 1, None, rng)[0]
    assert len(samples) == 1
    assert est.cost(samples, est.MEAN) == pytest.approx(samples.energies[0])
    # theta = 0 prepares |0000>, every shot is x=0 with energy -2.8
    samples = est.sample_round(spec, [np.zeros(8)], table, 64, None, rng)[0]
    value = est.cost(samples, est.CVAR25)
    assert np.all(samples.bitstrings == 0)
    assert value == pytest.approx(ising.energy(inst, 0))
    assert value == pytest.approx(-2.8)
    assert len(samples) == 64


@pytest.mark.parametrize("family, size, noisy, points", [
    (anz.FAMILY_VQE, 12, False, 9),  # batches of 4, 4 and 1
    (anz.FAMILY_VQE, 5, True, 13),  # one batch
    (anz.FAMILY_QAOA, 12, False, 5),  # complex states at L = 12 go one by one
    (anz.FAMILY_QAOA, 4, True, 3),  # too few points to batch
])
def test_sample_round_matches_point_by_point(family, size, noisy, points):
    # the round's sample sets and the generator state after it are those of
    # preparing and sampling its points one after another
    inst = ising.make_disordered(size, 1)
    spec = anz.AnsatzSpec(family, size, 2, instance=inst if family == anz.FAMILY_QAOA else None)
    noise = sim.NoiseModel(2.0, 3.0) if noisy else None
    table = ising.energy_table(inst)
    theta = np.stack([anz.init_random(spec, np.random.default_rng([size, p])) for p in range(points)])
    round_rng, point_rng = np.random.default_rng(size), np.random.default_rng(size)
    sets = est.sample_round(spec, theta, table, 7, noise, round_rng)
    assert len(sets) == points
    for x, got in zip(theta, sets):
        state = anz.prepare_state(spec, x, noise,
                                  point_rng.random(anz.compile_plan(spec, noise).draws))
        bitstrings = sim.sample_shots(state, point_rng.random(7))
        assert np.array_equal(got.bitstrings, bitstrings)
        assert np.array_equal(got.energies, table[bitstrings])
    assert round_rng.bit_generator.state == point_rng.bit_generator.state


def test_evaluate_uniform_state_clt():
    inst = ising.make_ferromagnetic(6)
    table = ising.energy_table(inst)
    spec = anz.AnsatzSpec(anz.FAMILY_QAOA, 6, 1, instance=inst)
    rng = np.random.default_rng(34)
    (samples,) = est.sample_round(spec, [np.zeros(2)], table, 10**5, None, rng)
    value = est.cost(samples, est.MEAN)
    stderr = table.std() / math.sqrt(10**5)
    assert abs(value - table.mean()) < 4 * stderr


def test_param_shift_exact_mode_matches_finite_difference():
    inst = ising.make_ferromagnetic(4)
    spec = anz.AnsatzSpec(anz.FAMILY_VQE, 4, 1)
    rng = np.random.default_rng(35)
    for _ in range(5):
        theta = anz.init_random(spec, rng)
        grad = gradient(spec, theta, inst, est.PARAM_SHIFT_RULE)
        step = 1e-6
        for n in range(spec.n_params):
            up, dn = theta.copy(), theta.copy()
            up[n] += step
            dn[n] -= step
            fd = (est.exact_cost(spec, up, inst) - est.exact_cost(spec, dn, inst)) / (2 * step)
            assert grad[n] == pytest.approx(fd, abs=1e-6)


def test_param_shift_zero_variance_point():
    # both pi/2 shifts of the first angle land on computational basis states,
    # so a single shot per evaluation reproduces that component exactly
    inst = ising.make_ferromagnetic(2)
    spec = anz.AnsatzSpec(anz.FAMILY_VQE, 2, 1)
    theta = np.array([math.pi / 2, 0.0, 0.0, 0.0])
    rng = np.random.default_rng(36)
    grad = gradient(spec, theta, inst, est.PARAM_SHIFT_RULE, shots=1, rng=rng)
    expected = 0.5 * (ising.energy(inst, 0b11) - ising.energy(inst, 0b00))
    assert grad[0] == pytest.approx(expected)


def test_param_shift_shot_accounting_and_family_guard():
    inst = ising.make_ferromagnetic(4)
    ground = ising.brute_force_minimum(inst)
    spec = anz.AnsatzSpec(anz.FAMILY_VQE, 4, 1)
    config = opt.GradientDescentConfig(gradient="param-shift", shots_per_circuit=8)
    rng = np.random.default_rng(37)
    trace = opt.run(spec, inst, ground, config, est.MEAN, 16, 1, anz.init_random(spec, rng),
                    rng=rng)
    assert trace.n_calls == 2 * 8 * 8  # 2 * n_par * shots_per_circuit
    qaoa = anz.AnsatzSpec(anz.FAMILY_QAOA, 4, 1, instance=inst)
    with pytest.raises(DomainError):
        opt.run(qaoa, inst, ground, config, est.MEAN, 16, 1, np.zeros(2), rng=rng)


def test_finite_diff_exact_mode_matches_richardson():
    inst = ising.make_ferromagnetic(4)
    spec = anz.AnsatzSpec(anz.FAMILY_QAOA, 4, 2, instance=inst)
    rng = np.random.default_rng(38)
    for _ in range(5):
        theta = anz.init_random(spec, rng)
        grad = gradient(spec, theta, inst, finite_diff(1e-6))
        reference = richardson_gradient(lambda t: est.exact_cost(spec, t, inst), theta)
        assert np.allclose(grad, reference, atol=1e-5)
    with pytest.raises(DomainError):
        opt.GradientDescentConfig(gradient="finite-diff", step=0.0)


def test_finite_diff_gradients_unbiased():
    inst = ising.make_ferromagnetic(4)
    spec = anz.AnsatzSpec(anz.FAMILY_QAOA, 4, 1, instance=inst)
    rng = np.random.default_rng(39)
    theta = anz.init_random(spec, rng)
    rule = finite_diff(0.5)
    exact_fd = gradient(spec, theta, inst, rule)
    reps = 3000
    draws = np.empty((reps, spec.n_params))
    for r in range(reps):
        draws[r] = gradient(spec, theta, inst, rule, shots=4, rng=rng)
    stderr = draws.std(axis=0) / math.sqrt(reps)
    assert np.all(np.abs(draws.mean(axis=0) - exact_fd) < 4 * stderr + 1e-12)


def test_finite_diff_variance_scales_with_shots():
    inst = ising.make_ferromagnetic(6)
    spec = anz.AnsatzSpec(anz.FAMILY_QAOA, 6, 1, instance=inst)
    rng = np.random.default_rng(40)
    theta = anz.init_random(spec, rng)
    variances = {}
    for shots in (4, 8):
        draws = np.array(
            [gradient(spec, theta, inst, finite_diff(0.5), shots, rng) for _ in range(500)]
        )
        variances[shots] = draws.var(axis=0).mean()
    ratio = variances[4] / variances[8]
    assert 1.5 < ratio < 2.7  # doubling shots roughly halves the variance


def test_minimum_tracker():
    tracker = est.MinimumTracker(minimizers=[7])
    hit = tracker.observe(sample_set([3.0, 4.0], bitstrings=[1, 2]))
    assert not hit and tracker.f_min == 3.0 and tracker.first_hit_calls is None
    hit = tracker.observe(sample_set([5.0, 6.0], bitstrings=[0, 3]))
    assert not hit and tracker.f_min == 3.0
    hit = tracker.observe(sample_set([9.0, -1.0, 2.0], bitstrings=[4, 7, 7]))
    assert hit
    assert tracker.f_min == -1.0
    # 4 shots seen before, hit at the second shot of the third set
    assert tracker.first_hit_calls == 6
    assert tracker.success

    # a degenerate ground state: a shot on either minimizer is a hit, and
    # the first one, on the larger bitstring, sets the count
    for minimizers in ([5, 10], [10, 5]):
        tracker = est.MinimumTracker(minimizers)
        assert not tracker.observe(sample_set([3.0, 4.0], bitstrings=[1, 2]))
        assert tracker.observe(sample_set([2.0, -1.0, -1.0], bitstrings=[3, 10, 5]))
        assert tracker.first_hit_calls == 4
        assert tracker.observe(sample_set([-1.0], bitstrings=[5]))
        assert tracker.first_hit_calls == 4 and tracker.n_calls == 6
