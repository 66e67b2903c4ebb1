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
    with pytest.raises(DomainError):
        opt.step_hill_climb(theta, 0.0, rng)


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


def minimize(rounds, objective):
    """Drive a one-point-per-round generator with a callable objective, the
    way ``opt.run`` drives it with sampled costs; returns its final value."""
    try:
        x = next(rounds)
        while True:
            x = rounds.send(float(objective(x)))
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
    spec, inst, ground = _run_setup(size=4, family=anz.FAMILY_VQE, depth=1)
    cfg = opt.GradientDescentConfig(
        learning_rate=0.1, gradient="param-shift", shots_per_circuit=None
    )
    rng = np.random.default_rng(63)
    theta0 = anz.init_random(spec, rng, -0.5, 0.5)
    trace = opt.run(spec, inst, ground, cfg, est.MEAN, 16, 50, theta0, rng=rng)
    costs = [r.cost for r in trace.records]
    assert all(b <= a + 1e-9 for a, b in zip(costs, costs[1:]))
    assert trace.n_calls == 0  # exact mode stays out of shot accounting


def test_run_shot_audit_against_instrumented_sampler(monkeypatch):
    drawn = {"count": 0}
    real = sim.sample_shots

    def audited(state, shots, rng):
        drawn["count"] += shots
        return real(state, shots, rng)

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
    for use_spec, cfg, kind in configs:
        for trial in range(5):
            drawn["count"] = 0
            shots = int(rng.integers(1, 64))
            iters = int(rng.integers(0, 15))
            trace = opt.run(
                use_spec, inst, ground, cfg, kind, shots, iters,
                anz.init_random(use_spec, rng), rng=rng,
            )
            assert trace.n_calls == drawn["count"]


def test_run_final_probe():
    spec, inst, ground = _run_setup()
    rng = np.random.default_rng(65)
    trace = opt.run(
        spec, inst, ground, opt.TrustRegionConfig(), est.CVAR25, 8, 12,
        anz.init_random(spec, rng), rng=rng, final_probe=True,
    )
    assert trace.probe_shots == 8
    assert trace.n_calls == 12 * 8  # probe shots excluded


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
    "gd-exact": (anz.FAMILY_VQE, opt.GradientDescentConfig(shots_per_circuit=None)),
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
    "gd-exact-0-noprobe-ideal-mean": "6ab20a9f409226b3e11e4c6827d2637498b8e8682509c23c7c1196b0941b0a73",
    "gd-exact-0-noprobe-ideal-cvar25": "cc51af43466ee0a1c072a1305afad81362220ca96068f48207d32e81dcb36cd7",
    "gd-exact-0-noprobe-noisy-mean": "86a0b4f684d2447db85238af2ca83a379d58dee70b71cc79ee09513a7199da8e",
    "gd-exact-0-noprobe-noisy-cvar25": "7f84f92d2f6476aa03ab1fa71b8f8040318ca289b7599b37a5bd86f8e2576d97",
    "gd-exact-0-probe-ideal-mean": "0076c257de9f970e354ff4792f217712b2c0ecbe18799af54102b7f5ad849b46",
    "gd-exact-0-probe-ideal-cvar25": "490a8a81ff95fc6e97a32496a630e060f02ca54025027cb762b70de35c5f70a0",
    "gd-exact-0-probe-noisy-mean": "618f9d9a21bef0c8967336226021b09f6fbb11ef7e81aea5f967fe9845c6b0fc",
    "gd-exact-0-probe-noisy-cvar25": "f949a606eb49ef812aef6aae2742402a18345ffa085c3da40c8d865845eceaee",
    "gd-exact-9-noprobe-ideal-mean": "5c8d7c76ad4390cb677fed0fd82d0742ff8a5f0d4975a34c4440ae52bc466c2e",
    "gd-exact-9-noprobe-ideal-cvar25": "d8d251115c6111b600ab8ea3dd68964bc1994268485b7f5d6ac758a08ee9e6f9",
    "gd-exact-9-noprobe-noisy-mean": "c12ca354a337eab091ac93a02158298d827c170d016f18159a6532d1859a9ab1",
    "gd-exact-9-noprobe-noisy-cvar25": "8da9161b6b1cd4e4151a0aec203268a2f988e4e45c620efa59a524d77ce7848f",
    "gd-exact-9-probe-ideal-mean": "1457570d989ced6f9537569c4fd1e80e6d01fc5a6c80503c108e673d1fa1338b",
    "gd-exact-9-probe-ideal-cvar25": "cfb3464673c3fa15d1d29ee72118f8cd6a969a6de47f7d9ff544cf2af4dc5fc2",
    "gd-exact-9-probe-noisy-mean": "5d6c50ac690378856a6234bc8ed005df6db86b09e0aba9e3181e7ca6db88d893",
    "gd-exact-9-probe-noisy-cvar25": "98b55e3d06b10dfa9c93ba76e94f89fa1f54169316876ce2b0ba9d0c9b2750a8",
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
    for name in _PIN_OPTIMIZERS
    for n_iter in (0, 9)
    for probe in (False, True)
    for noisy in (False, True)
    for cost_name in ("mean", "cvar25")
]


def _pin_id(case):
    name, n_iter, probe, noisy, cost_name = case
    return f"{name}-{n_iter}-{'probe' if probe else 'noprobe'}-{'noisy' if noisy else 'ideal'}-{cost_name}"


@pytest.mark.parametrize("case", _PIN_CASES, ids=_pin_id)
def test_trace_bytes_pinned(tmp_path, case):
    digest = hashlib.sha256(_pinned_trace_bytes(tmp_path, *case)).hexdigest()
    assert digest == _PIN_DIGESTS[_pin_id(case)]
