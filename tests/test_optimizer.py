import hashlib
import json
import math

import numpy as np
import pytest

from vqopt import ansatz as anz, estimator as est, ising, optimizer as opt, simulator as sim
from vqopt.errors import DomainError


def test_step_hill_climb_norm():
    rng = np.random.default_rng(50)
    theta = np.zeros(6)
    for _ in range(200):
        proposal = opt.step_hill_climb(theta, 0.03, rng)
        assert np.linalg.norm(proposal - theta) == pytest.approx(0.03, abs=1e-12)
    for bad in (0.0, math.nan, math.inf):
        with pytest.raises(DomainError):
            opt.step_hill_climb(theta, bad, rng)


@pytest.mark.parametrize("make", [
    lambda v: opt.HillClimbConfig(step_norm=v),
    lambda v: opt.GradientDescentConfig(learning_rate=v),
    lambda v: opt.GradientDescentConfig(gradient="finite-diff", step=v),
    lambda v: opt.TrustRegionConfig(initial_radius=v),
], ids=["step_norm", "learning_rate", "step", "initial_radius"])
def test_configs_reject_nonfinite_angle_scales(make):
    for bad in (math.nan, math.inf, -1.0):
        with pytest.raises(DomainError):
            make(bad)


def test_step_hill_climb_isotropy():
    rng = np.random.default_rng(51)
    theta = np.zeros(4)
    total = np.zeros(4)
    n = 10**5
    for _ in range(n):
        total += opt.step_hill_climb(theta, 1.0, rng)
    assert np.linalg.norm(total / n) < 0.02


def test_step_hill_climb_one_dimensional():
    rng = np.random.default_rng(52)
    steps = [float(opt.step_hill_climb(np.zeros(1), 0.5, rng)[0]) for _ in range(100)]
    assert all(abs(abs(s) - 0.5) < 1e-12 for s in steps)
    assert any(s > 0 for s in steps) and any(s < 0 for s in steps)


def test_step_gradient_descent():
    assert np.array_equal(
        opt.step_gradient_descent(np.array([1.0, 2.0]), np.zeros(2), 0.1),
        np.array([1.0, 2.0]),
    )
    out = opt.step_gradient_descent(np.array([0.0, 0.0]), np.array([1.0, -2.0]), 0.1)
    assert out.tolist() == pytest.approx([-0.1, 0.2])
    g = np.array([0.3, -0.4])
    one = opt.step_gradient_descent(np.zeros(2), g, 0.1)
    two = opt.step_gradient_descent(one, g, 0.1)
    assert np.allclose(two, -2 * 0.1 * g)
    with pytest.raises(DomainError):
        opt.step_gradient_descent(np.zeros(2), np.zeros(3), 0.1)
    # a step that overflows gives, without a warning, an infinite angle that prepare_state refuses
    over = opt.step_gradient_descent(np.ones(2), np.array([2.0, -4.0]), 1e308)
    assert over.tolist() == [-math.inf, math.inf]


def minimize(rounds, objective):
    """Drive an energy-based round generator with a callable objective, point
    by point, the way ``opt.run`` drives it with sampled costs; returns its
    final value."""
    try:
        points = next(rounds)
        while True:
            points = rounds.send([float(objective(x)) for x in points])
    except StopIteration as done:
        return done.value


def test_hill_climb_acceptance_geometry():
    # reconstruct incumbents from the evaluation trace: every accepted move
    # has length exactly W, and only improving estimates are accepted
    rng = np.random.default_rng(53)
    seen = []

    def noisy(theta):
        seen.append(theta.copy())
        return float(np.sum(theta**2) + 0.1 * rng.standard_normal())

    w = 0.25
    minimize(opt.hill_climb_rounds(np.full(3, 2.0), 60, w, np.random.default_rng(54)), noisy)
    values = [float(np.sum(t**2)) for t in seen]  # deterministic replay not needed
    # replay acceptance with the recorded evaluations
    rng_replay = np.random.default_rng(53)
    incumbent, best = seen[0], None
    # recompute the noisy values in the same order
    rng2 = np.random.default_rng(53)
    noisy_values = [float(np.sum(t**2) + 0.1 * rng2.standard_normal()) for t in seen]
    best = noisy_values[0]
    for theta, value in zip(seen[1:], noisy_values[1:]):
        assert np.linalg.norm(theta - incumbent) == pytest.approx(w, abs=1e-12)
        if value < best:
            incumbent, best = theta, value


def test_trust_region_quadratic_convergence():
    def quadratic(x):
        return float(np.sum((x - 1.0) ** 2))

    best, value = minimize(
        opt.trust_region_rounds(np.array([3.0]), 100, 1.0, 1e-4, np.random.default_rng(55)),
        quadratic,
    )
    assert abs(best[0] - 1.0) < 1e-3

    best, value = minimize(
        opt.trust_region_rounds(
            np.array([3.0, -2.0, 0.5]), 150, 1.0, 1e-4, np.random.default_rng(56)
        ),
        quadratic,
    )
    assert np.linalg.norm(best - 1.0) < 1e-2


def test_trust_region_linear_cost_monotone():
    evals = []

    def linear(x):
        evals.append(float(2.0 * x[0] + x[1]))
        return evals[-1]

    minimize(
        opt.trust_region_rounds(np.zeros(2), 25, 1.0, 1e-4, np.random.default_rng(57)), linear
    )
    best_so_far = np.minimum.accumulate(evals)
    # after the 3-point simplex, trust-region steps march downhill every time
    tail = best_so_far[3:]
    assert np.all(np.diff(tail) < 0)


def test_trust_region_budget_exact():
    count = 0

    def counting(x):
        nonlocal count
        count += 1
        return float(np.sum(x**2))

    for budget in (1, 2, 7, 30):
        count = 0
        minimize(
            opt.trust_region_rounds(np.ones(4), budget, 1.0, 1e-4, np.random.default_rng(58)),
            counting,
        )
        assert count == budget
    with pytest.raises(DomainError):
        minimize(opt.trust_region_rounds(np.ones(2), 0, 1.0, 1e-4, np.random.default_rng(0)),
                 counting)


def _run_setup(size=4, family=anz.FAMILY_QAOA, depth=2):
    inst = ising.make_ferromagnetic(size)
    ground = ising.brute_force_minimum(inst)
    spec = anz.AnsatzSpec(
        family, size, depth, instance=inst if family == anz.FAMILY_QAOA else None
    )
    return spec, inst, ground


def test_run_zero_iterations_is_single_sample():
    spec, inst, ground = _run_setup()
    rng = np.random.default_rng(59)
    trace = opt.run(
        spec, inst, ground, opt.TrustRegionConfig(), est.CVAR25, 32, 0,
        np.zeros(spec.n_params), rng=rng,
    )
    assert len(trace.records) == 1
    assert trace.n_calls == 32
    assert trace.records[0].n_calls == 32
    assert trace.psucc_hit == trace.success


def test_run_energy_based_accounting():
    spec, inst, ground = _run_setup()
    rng = np.random.default_rng(60)
    trace = opt.run(
        spec, inst, ground, opt.HillClimbConfig(step_norm=0.03), est.CVAR25, 16, 20,
        anz.init_random(spec, rng), rng=rng,
    )
    assert len(trace.records) == 20
    assert [r.n_calls for r in trace.records] == [16 * (i + 1) for i in range(20)]
    fmins = [r.f_min for r in trace.records]
    assert all(a >= b for a, b in zip(fmins, fmins[1:]))


def test_run_gradient_accounting():
    spec, inst, ground = _run_setup(family=anz.FAMILY_QAOA)
    cfg = opt.GradientDescentConfig(
        learning_rate=0.1, gradient="finite-diff", step=0.5, shots_per_circuit=4
    )
    rng = np.random.default_rng(61)
    trace = opt.run(
        spec, inst, ground, cfg, est.MEAN, 16, 10, anz.init_random(spec, rng), rng=rng
    )
    per_iter = 2 * spec.n_params * 4
    assert [r.n_calls for r in trace.records] == [per_iter * (i + 1) for i in range(10)]
    assert trace.n_calls == 10 * per_iter


def test_run_param_shift_family_guard():
    spec, inst, ground = _run_setup(family=anz.FAMILY_QAOA)
    cfg = opt.GradientDescentConfig(gradient="param-shift", shots_per_circuit=4)
    with pytest.raises(DomainError):
        opt.run(spec, inst, ground, cfg, est.MEAN, 16, 5, np.zeros(spec.n_params),
                rng=np.random.default_rng(62))


def test_run_exact_gradient_descent_monotone():
    # the descent rounds sent exact expectations in place of sampled means:
    # the exact cost at each round's theta never rises
    spec, inst, ground = _run_setup(size=4, family=anz.FAMILY_VQE, depth=1)
    cfg = opt.GradientDescentConfig(learning_rate=0.1, gradient="param-shift")
    theta0 = anz.init_random(spec, np.random.default_rng(63), -0.5, 0.5)
    rounds = opt.gradient_descent_rounds(theta0, 50, cfg)
    costs = []
    try:
        points = next(rounds)
        while True:
            # each +-shift pair is centered on the round's theta
            costs.append(est.exact_cost(spec, points.mean(axis=0), inst))
            points = rounds.send([est.exact_cost(spec, x, inst) for x in points])
    except StopIteration as done:
        final_theta, _ = done.value
    costs.append(est.exact_cost(spec, final_theta, inst))
    assert len(costs) == 51
    assert all(b <= a + 1e-9 for a, b in zip(costs, costs[1:]))


def test_run_shot_audit_against_instrumented_sampler(monkeypatch):
    drawn = []  # running total of the shots drawn, after each sample_shots call
    real = sim.sample_shots

    def audited(state, uniforms):
        drawn.append((drawn[-1] if drawn else 0) + len(uniforms))
        return real(state, uniforms)

    monkeypatch.setattr(sim, "sample_shots", audited)

    rng = np.random.default_rng(64)
    spec, inst, ground = _run_setup()
    vqe_spec, _, _ = _run_setup(family=anz.FAMILY_VQE, depth=1)
    configs = [
        (spec, opt.TrustRegionConfig(), est.CVAR25),
        (spec, opt.HillClimbConfig(step_norm=0.06), est.CVAR25),
        (spec, opt.GradientDescentConfig(gradient="finite-diff", shots_per_circuit=2), est.MEAN),
        (vqe_spec, opt.GradientDescentConfig(gradient="param-shift", shots_per_circuit=2), est.MEAN),
    ]
    for noise in (None, sim.NoiseModel(t1_us=2.0, t2_us=3.0)):
        for probe in (False, True):
            for use_spec, cfg, kind in configs:
                for trial in range(5):
                    drawn.clear()
                    shots = int(rng.integers(1, 64))
                    iters = int(rng.integers(0, 15))
                    trace = opt.run(
                        use_spec, inst, ground, cfg, kind, shots, iters,
                        anz.init_random(use_spec, rng), noise=noise, rng=rng, final_probe=probe,
                    )
                    gradient = isinstance(cfg, opt.GradientDescentConfig) and iters > 0
                    per_round = 2 * use_spec.n_params if gradient else 1
                    probed = probe and iters > 0
                    assert len(drawn) == per_round * len(trace.records) + probed
                    # each row counts the shots drawn up to the end of its round
                    ends = drawn[per_round - 1 :: per_round]
                    assert [r.n_calls for r in trace.records] == ends[: len(trace.records)]
                    assert trace.n_calls + trace.probe_shots == drawn[-1]


def test_run_final_probe():
    spec, inst, ground = _run_setup()
    rng = np.random.default_rng(65)
    trace = opt.run(
        spec, inst, ground, opt.TrustRegionConfig(), est.CVAR25, 8, 12,
        anz.init_random(spec, rng), rng=rng, final_probe=True,
    )
    assert trace.probe_shots == 8
    assert trace.n_calls == 12 * 8  # probe shots excluded


_INTERLEAVED = [
    opt.TrustRegionConfig(initial_radius=0.5, final_radius=0.01),
    opt.HillClimbConfig(step_norm=0.2),
    opt.GradientDescentConfig(gradient="param-shift", shots_per_circuit=3),
    opt.GradientDescentConfig(gradient="finite-diff", shots_per_circuit=3),
]


@pytest.mark.parametrize("config, final_probe, noise", [
    pytest.param(config, probe, noise, id=getattr(config, "gradient", config.name)
                 + "-probe" * probe + "-noisy" * (noise is not None))
    for config in _INTERLEAVED for probe in (False, True)
    for noise in (None, sim.NoiseModel(t1_us=2.0, t2_us=3.0))])
def test_interleaved_run_traces_equal_sequential_runs(config, final_probe, noise):
    # two runs told their rounds round-robin, each sampled with its own
    # generator, as a driver of many runs would: every run's trace is the one
    # run makes alone
    spec, inst, ground = _run_setup(size=4, family=anz.FAMILY_VQE, depth=1)
    table, args = ising.energy_table(inst), (config, est.CVAR25, 6, 9)

    sequential, runs = [], []
    for seed in (67, 68):
        rng = np.random.default_rng(seed)
        sequential.append(opt.run(spec, inst, ground, *args, anz.init_random(spec, rng), noise,
                                  rng=rng, final_probe=final_probe))
        rng = np.random.default_rng(seed)
        runs.append((opt.RunTrace(spec, ground, *args, anz.init_random(spec, rng), rng=rng,
                                  final_probe=final_probe), rng, {}))
    while any(trace.points is not None for trace, _, _ in runs):
        for trace, rng, held in runs:
            if trace.points is not None:
                trace.tell(est.sample_round(spec, trace.points, table, trace.shots, noise, rng,
                                            held))

    assert any(alone.success for alone in sequential)
    fields = ("records", "first_hit_calls", "psucc_hit", "n_calls", "f_min", "probe_shots")
    for alone, (trace, _, _) in zip(sequential, runs):
        assert trace.final_theta.tobytes() == alone.final_theta.tobytes()
        assert [getattr(trace, f) for f in fields] == [getattr(alone, f) for f in fields]


# --- the held state of a repeated ideal point -------------------------------


def _stalling_setup():
    """QAOA L = 4, d = 2 under the trust region: at n_iter = 100 it reaches
    final_radius and asks for its last point again, round after round."""
    inst = ising.make_disordered(4, 3)
    spec = anz.AnsatzSpec(anz.FAMILY_QAOA, 4, 2, instance=inst)
    return spec, inst, ising.brute_force_minimum(inst), opt.TrustRegionConfig()


def _spy_rounds(monkeypatch):
    """Record each round ``run`` samples and each batch of rows it prepares."""
    rounds, prepared = [], []
    sample_round, prepare_state = est.sample_round, est.prepare_state

    def round_spy(spec, points, *args):
        rounds.append(np.array(points, dtype=float))
        return sample_round(spec, points, *args)

    def prepare_spy(spec, theta, *args):
        prepared.append(np.array(theta, dtype=float, ndmin=2))
        return prepare_state(spec, theta, *args)

    monkeypatch.setattr(opt, "sample_round", round_spy)
    monkeypatch.setattr(est, "prepare_state", prepare_spy)
    return rounds, prepared


def test_run_with_held_state_equals_rounds_sampled_without_it(tmp_path):
    spec, inst, ground, config = _stalling_setup()
    paths = []
    for memo in (True, False):
        rng = np.random.default_rng(2311)
        args = (config, est.CVAR25, 6, 100, anz.init_random(spec, rng))
        if memo:
            trace = opt.run(spec, inst, ground, *args, rng=rng, final_probe=True)
        else:  # round by round, every point prepared
            table = ising.energy_table(inst)
            trace = opt.RunTrace(spec, ground, *args, rng=rng, final_probe=True)
            while trace.points is not None:
                trace.tell(est.sample_round(spec, trace.points, table, trace.shots, None, rng))
        paths.append(tmp_path / f"trace-{memo}.jsonl")
        opt.write_trace(paths[-1], trace, {"seed": 2311})
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_run_prepares_only_points_that_differ_from_the_last_round(monkeypatch):
    spec, inst, ground, config = _stalling_setup()
    rounds, prepared = _spy_rounds(monkeypatch)
    rng = np.random.default_rng(2312)
    trace = opt.run(spec, inst, ground, config, est.MEAN, 6, 100, anz.init_random(spec, rng),
                    rng=rng, final_probe=True)
    expected = [points for last, points in zip([None] + rounds, rounds)
                if not (last is not None and len(last) == len(points) == 1
                        and last.tobytes() == points.tobytes())]
    assert len(rounds) == len(trace.records) - spec.n_params + 1  # simplex, steps, probe
    assert np.concatenate(prepared).tobytes() == np.concatenate(expected).tobytes()
    assert sum(map(len, expected)) < 0.6 * len(trace.records)  # the run did stall


def test_noisy_run_prepares_every_evaluation(monkeypatch):
    spec, inst, ground, config = _stalling_setup()
    rounds, prepared = _spy_rounds(monkeypatch)
    rng = np.random.default_rng(2313)
    trace = opt.run(spec, inst, ground, config, est.MEAN, 6, 100, anz.init_random(spec, rng),
                    noise=sim.NoiseModel(t1_us=2.0, t2_us=3.0), rng=rng, final_probe=True)
    repeats = sum(last.tobytes() == points.tobytes() for last, points in zip(rounds, rounds[1:]))
    assert repeats > 0  # the same points, each prepared with its own draws
    assert sum(map(len, prepared)) == len(trace.records) + 1


def test_held_state_is_read_only_and_kept_for_one_point():
    spec, inst, _, _ = _stalling_setup()
    table, rng, held = ising.energy_table(inst), np.random.default_rng(2314), {}
    zero = np.zeros((1, spec.n_params))
    est.sample_round(spec, zero, table, 5, None, rng, held)
    (key, state), = held.items()
    assert key == zero.tobytes() and not state.flags.writeable
    with pytest.raises(ValueError):
        state[0] = 0.0
    est.sample_round(spec, -zero, table, 5, None, rng, held)  # -0.0 is another point
    assert list(held) == [(-zero).tobytes()] and held[(-zero).tobytes()] is not state
    est.sample_round(spec, np.zeros((2, spec.n_params)), table, 5, None, rng, held)
    assert held == {}


def test_run_determinism_byte_for_byte(tmp_path):
    spec, inst, ground = _run_setup()
    paths = []
    for i in range(2):
        rng = np.random.default_rng(66)
        theta0 = anz.init_random(spec, rng)
        trace = opt.run(
            spec, inst, ground, opt.HillClimbConfig(step_norm=0.03),
            est.CVAR25, 16, 30, theta0, rng=rng,
        )
        path = tmp_path / f"trace{i}.jsonl"
        opt.write_trace(path, trace, {"seed": 66})
        paths.append(path.read_bytes())
    assert paths[0] == paths[1]


def test_trust_region_more_iterations_improve_fmin():
    inst = ising.make_ferromagnetic(6)
    spec = anz.AnsatzSpec(anz.FAMILY_VQE, 6, 1)
    ground = ising.brute_force_minimum(inst)
    fmins = {}
    hits = {}
    for n_iter in (10, 100):
        values = []
        ground_hits = 0
        for rep in range(200):
            theta0 = anz.init_random(spec, np.random.default_rng([88, 0, rep]))
            trace = opt.run(
                spec, inst, ground, opt.TrustRegionConfig(), est.CVAR25, 64,
                n_iter, theta0, rng=np.random.default_rng([88, n_iter, rep]),
            )
            values.append(trace.f_min)
            ground_hits += trace.f_min == ground.minimum_energy
        fmins[n_iter] = np.mean(values)
        hits[n_iter] = ground_hits
    assert fmins[100] < fmins[10]
    assert hits[100] > hits[10]


def test_write_trace_layout(tmp_path):
    spec, inst, ground = _run_setup()
    rng = np.random.default_rng(67)
    trace = opt.run(
        spec, inst, ground, opt.TrustRegionConfig(), est.CVAR25, 8, 5,
        np.zeros(spec.n_params), rng=rng,
    )
    path = tmp_path / "trace.jsonl"
    opt.write_trace(path, trace, {"note": "t"})
    lines = [json.loads(line) for line in path.read_text().splitlines()]
    assert lines[0]["record"] == "config" and lines[0]["schema_version"] == 1
    assert [l["record"] for l in lines[1:-1]] == ["iteration"] * 5
    assert lines[-1]["record"] == "summary"
    assert lines[-1]["n_calls"] == 40


# --- byte-identity pins ------------------------------------------------------
#
# Trace bytes of ``run`` + ``write_trace`` on fixed seeds for every optimizer
# path.  A refactor of the optimizer loop must leave every digest unchanged.

_PIN_OPTIMIZERS = {
    "tr": (anz.FAMILY_QAOA, opt.TrustRegionConfig()),
    "hc": (anz.FAMILY_VQE, opt.HillClimbConfig(step_norm=0.4)),
    "gd-ps": (anz.FAMILY_VQE, opt.GradientDescentConfig(gradient="param-shift", shots_per_circuit=2)),
    "gd-fd": (anz.FAMILY_QAOA, opt.GradientDescentConfig(gradient="finite-diff", shots_per_circuit=2)),
    "tr-vqe": (anz.FAMILY_VQE, opt.TrustRegionConfig()),
}

_PIN_DIGESTS = {
    "tr-0-noprobe-ideal-mean": "0e9f1d7496850f252274881519f004aebfda5478aa9702adcde7b8843d59a605",
    "tr-0-noprobe-ideal-cvar25": "33fd4e7f95eb9ede8e57b850cd4cb8bd440c48b948987a388ff24a20df7ccbdb",
    "tr-0-noprobe-noisy-mean": "a2a6c58ead2e03c4fc446502559ea92e520e9504c29f90aae60ad813f0337d59",
    "tr-0-noprobe-noisy-cvar25": "bcb52fd8bd05263118d5a06bba2c5229663f1599396e1a591f68dadce61ae82c",
    "tr-0-probe-ideal-mean": "cc286896ba3ca7dabb1549b6328775b4afc6aa5b83b5a9407259f400b9bcb405",
    "tr-0-probe-ideal-cvar25": "e54c98e797cf3b4eb7bc32704f0013031cbf8661f3a649f3551d050793a2a1d9",
    "tr-0-probe-noisy-mean": "6ce50988ff23487a536a3e40ac2de62cb4d4db930e65fbf0c8987490e90785bd",
    "tr-0-probe-noisy-cvar25": "d15902d5b4489aa4c962e559b2ec5add1660c012160c99600c409f32a53418e1",
    "tr-9-noprobe-ideal-mean": "7470b2780582cdb75ad078f25e574a037fdd41a1e803b5fe07d3e2e31943aed5",
    "tr-9-noprobe-ideal-cvar25": "ab2f7e70af632d6e5b8c5cb011b668c5ee0155826af2f5229b187028a94de52f",
    "tr-9-noprobe-noisy-mean": "6f602b0a8e9a4ddd85f4cbca9acae6dc041ab3793734f06181a99928843c0278",
    "tr-9-noprobe-noisy-cvar25": "48e4eb68e2e34569f02c4544da4619a77b80d5b56af38ba9a95835a7ad9fe308",
    "tr-9-probe-ideal-mean": "0b24c13a294a3491ba4c5c1076fa9ce85b42ee89a10a8966f22e1243d208d5cc",
    "tr-9-probe-ideal-cvar25": "8d61b682dc7e042287a3d3c935db69c42bd213882a73e7d9d81a96fa87cbb19f",
    "tr-9-probe-noisy-mean": "0952e58c778e212d773b5dea93ba7bf6621f58524fb7cc011ad6398023f9ccab",
    "tr-9-probe-noisy-cvar25": "4069b94d8e2115ce98a02a5c9ca7112778626cb55d995596dc0be250552f34b0",
    "hc-0-noprobe-ideal-mean": "870b16317a9faa8df808b0322ea8e6fb99532cd297f7ec72cc27674606922108",
    "hc-0-noprobe-ideal-cvar25": "da1dba43b6cf275d92657c73e03ed0a8fd076a0cfcc0bf9430f3b10bedd3c419",
    "hc-0-noprobe-noisy-mean": "eed198ac6fba0ff1f13c5cd1b9287e00ff0f6a9df08d5e74ba70437aba46dd24",
    "hc-0-noprobe-noisy-cvar25": "6f2766b64bc619050ce546c74c0d80138f3799fa7dcf322483c050643b1c2764",
    "hc-0-probe-ideal-mean": "498bc6663e0aa28a2754abfefe88d38ab438d0970ec687e546c754b89399f5dd",
    "hc-0-probe-ideal-cvar25": "94b81a814c78d6f230bf5e333028af06c366d25273068c32b0d8e77500eacfc2",
    "hc-0-probe-noisy-mean": "def788bb6929954299a86266a11f6de01d8f2fa149a1997b008c3f4b0b542f70",
    "hc-0-probe-noisy-cvar25": "8d19caa5242dbf6adac08e10031785e78215faf5ab25a52d19476b6bb2f42833",
    "hc-9-noprobe-ideal-mean": "f137102a6ff8d387a5bb47ad9221fc0870955121900d52fbe28ab6eb33149afa",
    "hc-9-noprobe-ideal-cvar25": "e97acf96d2c72d155afb53f8280e46706770295eff610bccba2b7fa7496cfbd4",
    "hc-9-noprobe-noisy-mean": "899f6f532db88a9ef6db6ceca84f97039463acc3627c773d3d6bc0bacd107c8a",
    "hc-9-noprobe-noisy-cvar25": "846290baa115ef6e676f7a75451ed02ae23f97935e27c0fa9912811a373eaed4",
    "hc-9-probe-ideal-mean": "7cb782934f7ae85d70bf1776101a7a835bb58c87c554964934bba30a2d16f1f3",
    "hc-9-probe-ideal-cvar25": "dd7b34e4e49bb4aef9006ed8ee33b0a2e12c96aa0197f32c3132108477a6c1b1",
    "hc-9-probe-noisy-mean": "1105a657db4fc33151ffc6585bced30cb128ad0b7e389d6ee650db5716a1b0e0",
    "hc-9-probe-noisy-cvar25": "4b3b33fb144ad558966e0db8a2b05da624daf9adca7f6d0d15ac9605b1bf6508",
    "gd-ps-0-noprobe-ideal-mean": "3800190f1260df49828d6f0c27e412f2b66b018bcd691fffefdd234d739fa2d3",
    "gd-ps-0-noprobe-ideal-cvar25": "69f6a4132005309a47fb4d255310b56fcd2dffd0147b9df9f2b8fabc7f109a2d",
    "gd-ps-0-noprobe-noisy-mean": "e041b1624ae2d97b18712d14b47d249abd6d73a9e5220e6facee614303a73a72",
    "gd-ps-0-noprobe-noisy-cvar25": "12fb8188a709266e604c1f068be6ce6e2bd6e09a862a0474535123f3ccbe5752",
    "gd-ps-0-probe-ideal-mean": "899cbeecb7db9c3842c3f12222bc5bf7dbbee22284df33a0acd22feba781dfa4",
    "gd-ps-0-probe-ideal-cvar25": "dc9f19466aa9e45f714f0ffdf11e5e784cb60298bdd73a6d4cd1f72a8b578254",
    "gd-ps-0-probe-noisy-mean": "7ba8fd5f337604959756d1f80ac61d75a7f9ab788154238d2ec1447000c0252a",
    "gd-ps-0-probe-noisy-cvar25": "cefe01eb4b0d4fc742a23a36078bcd9f88af5f90513a84624187e86b2fb917d8",
    "gd-ps-9-noprobe-ideal-mean": "b0078ef73857b6d1383a823a9d18e9b6a7435c120e2ebe31c9b2c082c3fab4dc",
    "gd-ps-9-noprobe-ideal-cvar25": "90365652b7687ce29e322efb62398a162f7bd19a3f8920d4fcaef6eacfb3f653",
    "gd-ps-9-noprobe-noisy-mean": "532f6818627b072fe747046006421b0341fc5220479df6de1d84fdf18e38d7bd",
    "gd-ps-9-noprobe-noisy-cvar25": "6ed48d4882d3c448f9a2d634575c43b1dc5a8e5112400cfdaf5fdcd70c9bf513",
    "gd-ps-9-probe-ideal-mean": "a79b05f0cfc26df1419e74def04675cd90df2ee996fce30e5acdd7e55e1f275f",
    "gd-ps-9-probe-ideal-cvar25": "c8124e301ddcc57b431c0ef3742ce8a28b0b480728afa387156b7d331fe8ef14",
    "gd-ps-9-probe-noisy-mean": "553420187116785c02a6db76aab7deb001247d8abe074955e89d3a7b9fc06e9b",
    "gd-ps-9-probe-noisy-cvar25": "1e387a0e1f29ab5bca3426bab55c54fc577e9c9bba8614deeafa6b680c52135a",
    "gd-fd-0-noprobe-ideal-mean": "2965d2fd43c058f85ca66c51b5d19b50371e9f0613b05002c99e218baa226c54",
    "gd-fd-0-noprobe-ideal-cvar25": "7086ec195868096cc87560862256e117e76d5242c8e87824872b7187f9652e62",
    "gd-fd-0-noprobe-noisy-mean": "951c00c0dc386cd9b357f7d7c68c8d376eb66a49af793c1133fa34a6c33e9e7d",
    "gd-fd-0-noprobe-noisy-cvar25": "b0fd22eb6ff656fd5022bd39839c6b3836c7f365e7eb06025224c500520031dd",
    "gd-fd-0-probe-ideal-mean": "db98c3d7202d3c33e5bceeb67a03553fa502c2e3906786e6847c4676b5ae12fb",
    "gd-fd-0-probe-ideal-cvar25": "0d51b044f21ea947785840a09f6ee8725a6c85446470865270d332361e20e6ab",
    "gd-fd-0-probe-noisy-mean": "e58a5c78cf16393501d82b688c998dbd4c6e67d72c81cf7102905c2cf6f55c8f",
    "gd-fd-0-probe-noisy-cvar25": "b3083dbaf6ea534c7a2b953161f38d953c2a5adbfef3a36452f25948d919331a",
    "gd-fd-9-noprobe-ideal-mean": "96379f3850b75f733845b800a219f628cc14f8bd8a3d3889010f662958e25178",
    "gd-fd-9-noprobe-ideal-cvar25": "3719922226f81216239634358025019d98471d867846f79ba9484527fc88b798",
    "gd-fd-9-noprobe-noisy-mean": "92597f90c2884362ff268da94dfc46e78a0581f3469cd621f6ddaa8e7a86e3a9",
    "gd-fd-9-noprobe-noisy-cvar25": "5b1cf3ec714fa83893e43669820c5cbd804ae6760b6f8ec5df528525e92a2ff6",
    "gd-fd-9-probe-ideal-mean": "e6546abfe7da8384e0699dc0aae54d25e4db940813136990fffc1c10583f45dc",
    "gd-fd-9-probe-ideal-cvar25": "f78aff3e50440325b9c1a6a12b42d1900beaa77e51d43febffadce78fac63564",
    "gd-fd-9-probe-noisy-mean": "1a7c1e244fd193b7b3185be46a1efc8d01895b0638a07e22c2361f694f6921c4",
    "gd-fd-9-probe-noisy-cvar25": "cabf43f20ed5265b614f0382d5793c5ef152698e4d3b0c9f898bbccea198dcfd",
    "tr-40-noprobe-ideal-mean": "fa95d8b600529aa48829e9101e43422b2f9b76b84a7ede5c0e7d22efe3620f5b",
    "tr-40-noprobe-ideal-cvar25": "4156f0a4702cb3ffea41ad0cde4cbfa4be77cfc0b7329650e596bd174a928673",
    "tr-40-noprobe-noisy-mean": "7ce052e9b3b8726ef9f8574ce0dd39862140344fc1aa9210ffcfe362e2ee0e0a",
    "tr-40-noprobe-noisy-cvar25": "7fd033471997b4191d5c9d50574782d332b49cced058270d52ecacc88ba72cfa",
    "tr-40-probe-ideal-mean": "a8fc66aacf44ff02cf07e01fa6e8fa85e2b8b871de32e9443fe4c488557bf671",
    "tr-40-probe-ideal-cvar25": "b59d8f549898ff25a218b668cc3dd7ab9e0c4b4f91adbeed23567a8c13d77220",
    "tr-40-probe-noisy-mean": "6666da91f2d4147bcdc77a76d0636554dfeb48c77c9a566dde6ac40b8b980fe7",
    "tr-40-probe-noisy-cvar25": "6dcb6334e2492efdb4073fa47d9165ec64c284bc1082b255ac46a1322341e33d",
    "tr-vqe-40-noprobe-ideal-mean": "69a0ed9eda401f26761111722f24a9b025e167c529a5a55042416059b89631e2",
    "tr-vqe-40-noprobe-ideal-cvar25": "2b27833ea0864adf59d5a87ccc43f41b126643eabd9252b3656a6ee93334af9f",
    "tr-vqe-40-noprobe-noisy-mean": "60160b625b5a5d577ce60d90ce255d24e31821a9df48736c976d1f53cdd4875c",
    "tr-vqe-40-noprobe-noisy-cvar25": "f74e784476b86735fe2f6d769a12913701721553e5b3458a7bfc41eb7dcfbcfb",
    "tr-vqe-40-probe-ideal-mean": "ee25f00e9dd57a902ea92023d69d5ab52c8637ee2408a3e7fc9c0ee90242fb64",
    "tr-vqe-40-probe-ideal-cvar25": "5be57344f2ed356c70a2575e173014f1906e030b4a14bdc1c80d3a4845dfd326",
    "tr-vqe-40-probe-noisy-mean": "ee9ad1750d8311df4ba2e766d6fc9e8dd76a5cd703fece9b083f004c838fb414",
    "tr-vqe-40-probe-noisy-cvar25": "2f55abbcb8fed30b3a0ccf4f3cabf8c40e5b2c9f029985abbc2564b3f30bd222",
    "hc-40-noprobe-ideal-mean": "605f72947321bfb9e2d4cb0a4026d4414cbe96632bbc4a39e14d17d43770e3d4",
    "hc-40-noprobe-ideal-cvar25": "a385c8c55a1c48148354785958768f1ae681bb5570bb27a52e18cbd30d79fc53",
    "hc-40-noprobe-noisy-mean": "14c963a5c18efe45e6c3264a924428974d9e12eb172cd83ec879dc9ecbf8dbe8",
    "hc-40-noprobe-noisy-cvar25": "3620ae56b25d6a0cd1af8806171d3978de3e9f7dd7b8b177157583e9f83a6097",
    "hc-40-probe-ideal-mean": "248d88250a671417e513059b1845549213b5db51a7d49edef23b6e8f8d69056e",
    "hc-40-probe-ideal-cvar25": "ccc803fcf4e738ed5303372018131d5de5734eff945cf21685ec3453022c0169",
    "hc-40-probe-noisy-mean": "2f4d1d5baeea118d159c51579cb4446545a8872cf4100acdc0814f9de6234314",
    "hc-40-probe-noisy-cvar25": "648233cbd783d7e70ada58ab5b350f98f1a81c35b17691765cb49c46dca66079",
    "tr-100-noprobe-ideal-mean": "d2eb5b83abd7c7c45dd2383cedad8ee6c8d427efd5ba12e3ecfdcd91640a78f1",
    "tr-100-noprobe-ideal-cvar25": "ab2a916ad4be892d66ff3364391824418142df486588f8284b595e56a90e33f1",
    "tr-100-probe-ideal-mean": "d43eb8b68964fbc1c274b4077b5c36f8156811d57a90ed18f3cec809c94befe8",
    "tr-100-probe-ideal-cvar25": "3391f8112ce226d3d5bd3a29d4d90652fa60a216566274e20ef940cc7178e0dc",
    "tr-vqe-100-noprobe-ideal-mean": "8242703107dba3e6c824ef7a928f4e77cbbe88ddb7825a353da3013548555511",
    "tr-vqe-100-noprobe-ideal-cvar25": "dc62fad2b7fc36dfd98dca00440c813e17162a0985ba640d2f0990ed63b03e0c",
    "tr-vqe-100-probe-ideal-mean": "2081a768017fcc8c9bbdff6a71437709f77fb41cc60f3ed3a4ab0cfa9338a7a9",
    "tr-vqe-100-probe-ideal-cvar25": "b8110c65fcce777553e0c3016ce3ed61a6ab5ab47e7ac2a68b2c004d0e6669bc",
}


def _pinned_trace_bytes(tmp_path, name, n_iter, probe, noisy, cost_name):
    family, config = _PIN_OPTIMIZERS[name]
    inst = ising.make_disordered(4, 3)
    spec = anz.AnsatzSpec(family, 4, 2 if family == anz.FAMILY_QAOA else 1,
                          instance=inst if family == anz.FAMILY_QAOA else None)
    kind = est.MEAN if cost_name == "mean" else est.CVAR25
    noise = sim.NoiseModel(t1_us=2.0, t2_us=3.0) if noisy else None
    rng = np.random.default_rng([2308, n_iter, probe, noisy])
    trace = opt.run(
        spec, inst, ising.brute_force_minimum(inst), config, kind, 6, n_iter,
        anz.init_random(spec, rng), noise=noise, rng=rng, final_probe=probe,
    )
    path = tmp_path / "trace.jsonl"
    opt.write_trace(path, trace, {"optimizer": config.to_json(), "cost": cost_name})
    return path.read_bytes()


_PIN_CASES = [
    (name, n_iter, probe, noisy, cost_name)
    for name in ("tr", "hc", "gd-ps", "gd-fd")
    for n_iter in (0, 9)
    for probe in (False, True)
    for noisy in (False, True)
    for cost_name in ("mean", "cvar25")
] + [
    # past the simplex: VQE L=4 d=1 asks 9 points first, QAOA L=4 d=2 five
    (name, 40, probe, noisy, cost_name)
    for name in ("tr", "tr-vqe", "hc")
    for probe in (False, True)
    for noisy in (False, True)
    for cost_name in ("mean", "cvar25")
] + [
    # stalled at final_radius, the trust region asks for its last point again,
    # whose ideal state the run samples without preparing it anew
    (name, 100, probe, False, cost_name)
    for name in ("tr", "tr-vqe")
    for probe in (False, True)
    for cost_name in ("mean", "cvar25")
]


def _pin_id(case):
    name, n_iter, probe, noisy, cost_name = case
    return f"{name}-{n_iter}-{'probe' if probe else 'noprobe'}-{'noisy' if noisy else 'ideal'}-{cost_name}"


@pytest.mark.parametrize("case", _PIN_CASES, ids=_pin_id)
def test_trace_bytes_pinned(tmp_path, case):
    digest = hashlib.sha256(_pinned_trace_bytes(tmp_path, *case)).hexdigest()
    assert digest == _PIN_DIGESTS[_pin_id(case)]
