"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s``.  The scaling-exponent
study (criterion 9) takes tens of minutes on one core and is marked
``nightly``; include it with ``-m nightly`` (or ``-m ''``).
"""

import math

import numpy as np
import pytest

from vqopt import (
    ansatz as anz,
    estimator as est,
    experiment as exp,
    ising,
    optimizer as opt,
    simulator as sim,
)


def record(criterion: int, ok: bool, detail: str) -> None:
    print(f"[criterion {criterion:2d}] {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"criterion {criterion}: {detail}"


# 1 ---------------------------------------------------------------------------


def test_criterion_1_gate_level_vs_diagonal_phase():
    rng = np.random.default_rng(1001)
    quiet = sim.NoiseModel(t1_us=math.inf, t2_us=math.inf)
    worst = 1.0
    for case in range(20):
        size = int(rng.integers(2, 7))
        depth = int(rng.integers(1, 5))
        inst = (
            ising.make_ferromagnetic(size)
            if case % 2 == 0
            else ising.make_disordered(size, case)
        )
        spec = anz.AnsatzSpec(anz.FAMILY_QAOA, size, depth, instance=inst)
        theta = anz.init_random(spec, rng)
        diag = anz.prepare_state(spec, theta)
        gates = anz.prepare_state(spec, theta, noise=quiet, rng=rng)
        overlap = abs(np.vdot(diag.amplitudes, gates.amplitudes))
        worst = min(worst, overlap)
    record(1, abs(worst - 1.0) < 1e-10, f"min |overlap| = {worst:.15f} over 20 cases")


# 2 ---------------------------------------------------------------------------


def test_criterion_2_param_shift_gradient_oracle():
    inst = ising.make_ferromagnetic(4)
    spec = anz.AnsatzSpec(anz.FAMILY_VQE, 4, 1)
    rng = np.random.default_rng(1002)
    shift, denominator = est.PARAM_SHIFT_RULE
    step = 1e-6
    worst = 0.0
    for _ in range(20):
        theta = anz.init_random(spec, rng)
        values = [est.exact_cost(spec, x, inst) for x in est.shifted_points(theta, shift)]
        grad = est.central_difference(values, denominator)
        for n in range(spec.n_params):
            up, dn = theta.copy(), theta.copy()
            up[n] += step
            dn[n] -= step
            fd = (est.exact_cost(spec, up, inst) - est.exact_cost(spec, dn, inst)) / (2 * step)
            worst = max(worst, abs(grad[n] - fd))
    record(2, worst < 1e-6, f"max |param-shift - central difference| = {worst:.2e}")


# 3 ---------------------------------------------------------------------------


def test_criterion_3_cvar_unit_semantics():
    def samples(energies, bits=None):
        energies = np.asarray(energies, dtype=float)
        bits = np.arange(len(energies)) if bits is None else np.asarray(bits)
        return est.SampleSet(bits, energies, len(energies))

    exact = (
        est.cvar_cost(samples([4, 1, 3, 2]), 0.25) == 1.0
        and est.cvar_cost(samples([8, 7, 6, 5, 4, 3, 2, 1]), 0.25) == 1.5
        and est.cvar_cost(samples([4, 1, 3, 2]), 1.0) == est.mean_cost(samples([4, 1, 3, 2]))
    )
    rng = np.random.default_rng(1003)
    agree = True
    for _ in range(1000):
        m = int(rng.integers(1, 50))
        s = samples(rng.standard_normal(m), rng.integers(0, 4096, m))
        agree &= est.cvar_cost(s, 1.0) == pytest.approx(est.mean_cost(s), rel=1e-12)
    record(3, exact and agree, "hand values exact; CVaR(1.0) == mean on 1000 random sets")


# 4 ---------------------------------------------------------------------------


def test_criterion_4_uniform_sampling_identity():
    problem = exp.ProblemSpec("qaoa", 6, 2, init=exp.InitSpec("zeros"))
    sweep = exp.success_sweep(
        problem, opt.TrustRegionConfig(), est.CVAR25, [(16, 0)],
        repetitions=1000, master_seed=1004,
    )
    measured = sweep.cells[0].fsucc()
    expected = 1.0 - (1.0 - 2.0**-6) ** 16
    record(
        4,
        abs(measured - expected) < 0.04,
        f"F_succ = {measured:.4f} vs closed form {expected:.4f} (tolerance 0.04)",
    )


# 5 ---------------------------------------------------------------------------


def test_criterion_5_finite_difference_error_minimized_near_half():
    inst = ising.make_ferromagnetic(8)
    spec = anz.AnsatzSpec(anz.FAMILY_QAOA, 8, 2, instance=inst)
    rng = np.random.default_rng(1005)
    table = ising.energy_table(inst)
    thetas = [anz.init_random(spec, rng) for _ in range(100)]
    step = 1e-6
    exact = [
        est.central_difference(
            [est.exact_cost(spec, x, inst) for x in est.shifted_points(th, step)], 2.0 * step
        )
        for th in thetas
    ]

    ok = True
    lines = []
    for shots in (2, 16):
        errors = {}
        for eps in (0.01, 0.5, 2.0):
            total = 0.0
            for th, ref in zip(thetas, exact):
                means = [
                    est.mean_cost(est.sample(spec, x, table, shots, None, rng))
                    for x in est.shifted_points(th, eps)
                ]
                grad = est.central_difference(means, 2.0 * eps)
                total += float(np.abs(grad - ref).mean())
            errors[eps] = total / len(thetas)
        ok &= errors[0.5] < errors[0.01] and errors[0.5] < errors[2.0]
        lines.append(
            f"Mtilde={shots}: err(0.01)={errors[0.01]:.2f} "
            f"err(0.5)={errors[0.5]:.2f} err(2.0)={errors[2.0]:.2f}"
        )
    record(5, ok, "; ".join(lines))


# 6 ---------------------------------------------------------------------------


def test_criterion_6_linear_init_depth_monotonicity():
    reps = 400
    result = exp.depth_sweep(
        sizes=[6, 8, 10, 12], depths=[2, 4, 8], dt=0.8, shots=16,
        repetitions=reps, master_seed=1006,
    )
    ok = True
    details = []
    for size in (6, 8, 10, 12):
        pgs = [result.cell(size, d).p_gs_median() for d in (2, 4, 8)]
        fs = [result.cell(size, d).fsucc_median() for d in (2, 4, 8)]
        strict = pgs[0] < pgs[1] < pgs[2]
        sampled = True
        for lo, hi in zip(fs, fs[1:]):
            sigma = math.sqrt(max(lo * (1 - lo), hi * (1 - hi), 1e-9) / reps)
            sampled &= hi >= lo - 3 * sigma
        ok &= strict and sampled
        details.append(f"L={size}: p_gs {pgs[0]:.3f}<{pgs[1]:.3f}<{pgs[2]:.3f}")
    record(6, ok, "; ".join(details))


# 7 ---------------------------------------------------------------------------


def test_criterion_7_qaoa_beats_vqe_at_random_parameters():
    reps = 1000
    ok = True
    details = []
    for size in (8, 10, 12):
        rates = {}
        for family in ("qaoa", "vqe-ry-cnot"):
            problem = exp.ProblemSpec(family, size, 2, init=exp.InitSpec("random"))
            sweep = exp.success_sweep(
                problem, opt.TrustRegionConfig(), est.CVAR25, [(16, 0)],
                repetitions=reps, master_seed=1007,
            )
            hits = len(sweep.cells[0].hit_calls[0])
            rates[family] = (hits / reps, exp.wilson_interval(hits, reps))
        (q, (q_lo, _)), (v, (_, v_hi)) = rates["qaoa"], rates["vqe-ry-cnot"]
        ok &= q > v and q_lo > v_hi
        details.append(f"L={size}: qaoa {q:.3f} > vqe {v:.3f} (intervals disjoint: {q_lo:.3f} > {v_hi:.3f})")
    record(7, ok, "; ".join(details))


# 8 ---------------------------------------------------------------------------


def test_criterion_8_linear_init_beats_optimized_random_init():
    ok = True
    details = []
    reps_for = {8: 300, 9: 300, 10: 300, 11: 400, 12: 500}
    for size in (8, 9, 10, 11, 12):
        inst = ising.make_ferromagnetic(size)
        ground = ising.brute_force_minimum(inst)
        spec = anz.AnsatzSpec(anz.FAMILY_QAOA, size, 2, instance=inst)
        reps = reps_for[size]
        for shots in (16, 32):
            linear_theta = anz.init_linear_schedule(2, 0.8)
            linear_hits = 0
            for rep in range(reps):
                rng = np.random.default_rng([101, size, shots, rep])
                trace = opt.run(
                    spec, inst, ground, opt.TrustRegionConfig(), est.CVAR25,
                    shots, 0, linear_theta, rng=rng,
                )
                linear_hits += trace.psucc_hit
            random_hits = 0
            for rep in range(reps):
                rng = np.random.default_rng([102, size, shots, rep])
                theta0 = anz.init_random(spec, rng)
                trace = opt.run(
                    spec, inst, ground, opt.TrustRegionConfig(), est.CVAR25,
                    shots, 20, theta0, rng=rng, final_probe=True,
                )
                random_hits += trace.psucc_hit
            ok &= linear_hits >= random_hits
            details.append(
                f"L={size},M={shots}: {linear_hits / reps:.3f} >= {random_hits / reps:.3f}"
            )
    record(8, ok, "; ".join(details))


# 9 (nightly) ------------------------------------------------------------------


@pytest.mark.nightly
def test_criterion_9_scaling_exponents():
    points_vqe = []
    for size in range(6, 12):
        problem = exp.ProblemSpec("vqe-ry-cnot", size, 1, init=exp.InitSpec("random"))
        grid = [(m, n) for m in (8, 32, 128, 512) for n in (10, 30, 90, 270)]
        sweep = exp.success_sweep(
            problem, opt.TrustRegionConfig(), est.CVAR25, grid,
            repetitions=200, master_seed=900,
        )
        best = exp.optimal_calls(sweep, 0.25)
        assert best.reached, f"target 0.25 unreached at L={size}"
        points_vqe.append((size, float(best.n_calls)))
    fit_vqe = exp.fit_scaling(points_vqe, l_min=8, target=0.25)

    points_qaoa = []
    for size in range(6, 13):
        problem = exp.ProblemSpec("qaoa", size, 2, init=exp.InitSpec("random"))
        grid = [(m, n) for m in (4, 16, 64, 256) for n in (10, 30, 90, 270)]
        sweep = exp.success_sweep(
            problem, opt.TrustRegionConfig(), est.CVAR25, grid,
            repetitions=200, master_seed=901,
        )
        best = exp.optimal_calls(sweep, 0.25)
        assert best.reached, f"target 0.25 unreached at L={size}"
        points_qaoa.append((size, float(best.n_calls)))
    fit_qaoa = exp.fit_scaling(points_qaoa, l_min=8, target=0.25)

    ok_vqe = 0.8 <= fit_vqe.exponent <= 1.2
    ok_qaoa = 0.25 <= fit_qaoa.exponent <= 0.55
    record(
        9,
        ok_vqe and ok_qaoa,
        f"VQE k = {fit_vqe.exponent:.3f} (want 0.8..1.2), "
        f"QAOA k = {fit_qaoa.exponent:.3f} (want 0.25..0.55); "
        f"points VQE {points_vqe}, QAOA {points_qaoa}",
    )


# 10 ----------------------------------------------------------------------------


def test_criterion_10a_noise_channel_decay_laws():
    model = sim.NoiseModel(t1_us=50.0, t2_us=70.0)
    trials = 10**4
    rng = np.random.default_rng(1010)

    idle_t1 = 40_000.0  # 0.8 T1
    population = 0.0
    for _ in range(trials):
        state = sim.init_zero(1)
        sim.apply_ry(state, 0, math.pi)
        for _ in range(4):
            sim.apply_noisy_gate(
                state, sim.GateOp("idle", (0,), duration_ns=idle_t1 / 4), model, rng
            )
        population += state.probabilities()[1]
    population /= trials
    expected_pop = math.exp(-idle_t1 * 1e-3 / model.t1_us)

    idle_t2 = 35_000.0  # 0.5 T2
    coherence = 0.0
    for _ in range(trials):
        state = sim.init_plus(1)
        for _ in range(4):
            sim.apply_noisy_gate(
                state, sim.GateOp("idle", (0,), duration_ns=idle_t2 / 4), model, rng
            )
        coherence += (state.amplitudes[0] * state.amplitudes[1].conjugate()).real
    coherence /= trials * 0.5
    expected_coh = math.exp(-idle_t2 * 1e-3 / model.t2_us)

    pop_ok = abs(population - expected_pop) < 0.05 * expected_pop
    coh_ok = abs(coherence - expected_coh) < 0.05 * expected_coh
    record(
        10,
        pop_ok and coh_ok,
        f"population {population:.4f} vs e^-t/T1 {expected_pop:.4f}; "
        f"coherence {coherence:.4f} vs e^-t/T2 {expected_coh:.4f} (10^4 trajectories, 5%)",
    )


def test_criterion_10b_noise_barely_moves_optimal_calls():
    noise = sim.NoiseModel(t1_us=50.0, t2_us=70.0)
    grid = [(m, n) for m in (16, 64, 256) for n in (10, 30, 90)]
    ok = True
    details = []
    for size in (6, 8):
        calls = {}
        for label, model in (("ideal", None), ("noisy", noise)):
            problem = exp.ProblemSpec("vqe-ry-cnot", size, 2, init=exp.InitSpec("random"))
            sweep = exp.success_sweep(
                problem, opt.TrustRegionConfig(), est.CVAR25, grid,
                repetitions=150, master_seed=1011, noise=model,
            )
            best = exp.optimal_calls(sweep, 0.25)
            assert best.reached
            calls[label] = best.n_calls
        ratio = max(calls.values()) / min(calls.values())
        ok &= ratio < 4.0
        details.append(
            f"L={size}: ideal {calls['ideal']}, noisy {calls['noisy']} (ratio {ratio:.2f})"
        )
    record(10, ok, "; ".join(details) + " — factor-4 bound")


# 11 ----------------------------------------------------------------------------


def test_criterion_11_shot_accounting_audit(monkeypatch):
    drawn = {"count": 0}
    real = sim.sample_shots

    def audited(state, shots, rng):
        drawn["count"] += shots
        return real(state, shots, rng)

    monkeypatch.setattr(sim, "sample_shots", audited)

    inst = ising.make_ferromagnetic(4)
    ground = ising.brute_force_minimum(inst)
    qaoa = anz.AnsatzSpec(anz.FAMILY_QAOA, 4, 2, instance=inst)
    vqe = anz.AnsatzSpec(anz.FAMILY_VQE, 4, 1)
    configs = [
        (qaoa, opt.TrustRegionConfig(), est.CVAR25),
        (qaoa, opt.HillClimbConfig(step_norm=0.03), est.CVAR25),
        (qaoa, opt.GradientDescentConfig(gradient="finite-diff", shots_per_circuit=3), est.MEAN),
        (vqe, opt.GradientDescentConfig(gradient="param-shift", shots_per_circuit=2), est.MEAN),
    ]
    rng = np.random.default_rng(1012)
    checked = 0
    for spec, config, kind in configs:
        for _ in range(25):
            drawn["count"] = 0
            shots = int(rng.integers(1, 128))
            iters = int(rng.integers(0, 20))
            trace = opt.run(
                spec, inst, ground, config, kind, shots, iters,
                anz.init_random(spec, rng), rng=rng,
            )
            assert trace.n_calls == drawn["count"], (
                f"audit mismatch: trace {trace.n_calls} vs drawn {drawn['count']}"
            )
            expected_per_iter = (
                2 * spec.n_params * config.shots_per_circuit
                if isinstance(config, opt.GradientDescentConfig)
                else shots
            )
            if iters > 0:
                assert trace.n_calls == iters * expected_per_iter
            checked += 1
    record(11, checked == 100, f"{checked} runs audited, draws == n_calls in every trace")
