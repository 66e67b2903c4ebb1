import hashlib
import json
import math
from pathlib import Path

import numpy as np
import pytest

from vqopt import ansatz as anz, estimator as est, experiment as exp, ising, optimizer as opt
from vqopt import simulator as sim
from vqopt.errors import DomainError, SchemaError, VqoptError


def small_sweep(**kw):
    problem = kw.pop(
        "problem",
        exp.ProblemSpec("qaoa", 6, 2, "ferromagnetic", init=exp.InitSpec("random")),
    )
    defaults = dict(
        config=opt.TrustRegionConfig(),
        cost_kind=est.CVAR25,
        grid=[(8, 6), (16, 0)],
        repetitions=40,
        master_seed=5,
    )
    defaults.update(kw)
    return exp.success_sweep(problem, **defaults)


def test_problem_spec_validation():
    with pytest.raises(DomainError):
        exp.ProblemSpec("qaoa", 6, 2, "unknown-kind")
    with pytest.raises(DomainError):
        exp.ProblemSpec("vqe-ry-cnot", 6, 2, init=exp.InitSpec("linear"))
    with pytest.raises(DomainError):
        exp.InitSpec("bogus")
    with pytest.raises(DomainError, match="seeds must differ"):
        exp.ProblemSpec("qaoa", 4, 1, "disordered", instance_seeds=(3, 3))
    spec = exp.ProblemSpec("qaoa", 6, 2, "disordered", instance_seeds=(1, 2))
    assert len(spec.instances()) == 2


def test_wilson_interval():
    lo, hi = exp.wilson_interval(0, 100)
    assert lo == 0.0 and hi < 0.05
    lo, hi = exp.wilson_interval(50, 100)
    assert lo < 0.5 < hi
    lo, hi = exp.wilson_interval(100, 100)
    assert lo > 0.95 and hi > 0.999


def test_uniform_sampling_identity_small():
    # theta = 0 QAOA samples the uniform distribution; one cell of n_iter=0
    problem = exp.ProblemSpec("qaoa", 6, 2, init=exp.InitSpec("zeros"))
    sweep = exp.success_sweep(
        problem, opt.TrustRegionConfig(), est.CVAR25, [(16, 0)],
        repetitions=300, master_seed=9,
    )
    expected = 1.0 - (1.0 - 2.0**-6) ** 16
    sigma = math.sqrt(expected * (1 - expected) / 300)
    assert abs(sweep.cells[0].fsucc() - expected) < 3 * sigma
    # n_iter = 0 cells always carry the terminal-sample statistic
    assert sweep.cells[0].psucc() == sweep.cells[0].fsucc()


def test_uniform_sampling_matches_baseline_across_sizes():
    reps = 250
    for size in (4, 6, 8, 10):
        problem = exp.ProblemSpec("qaoa", size, 2, init=exp.InitSpec("zeros"))
        sweep = exp.success_sweep(
            problem, opt.TrustRegionConfig(), est.CVAR25, [(16, 0)],
            repetitions=reps, master_seed=12,
        )
        degeneracy = ising.brute_force_minimum(ising.make_ferromagnetic(size)).degeneracy
        expected = exp.random_search_baseline(size, degeneracy, 16)
        sigma = math.sqrt(max(expected * (1 - expected), 1e-9) / reps)
        assert abs(sweep.cells[0].fsucc() - expected) <= 3 * sigma


def test_vqe_zero_state_never_succeeds():
    problem = exp.ProblemSpec("vqe-ry-cnot", 6, 1, init=exp.InitSpec("zeros"))
    sweep = exp.success_sweep(
        problem, opt.TrustRegionConfig(), est.CVAR25, [(32, 0)],
        repetitions=100, master_seed=1,
    )
    assert sweep.cells[0].fsucc() == 0.0


def test_fsucc_curve_monotone():
    sweep = small_sweep()
    for cell in sweep.cells:
        curve = [cell.fsucc(c) for c in cell.checkpoints()]
        assert all(b >= a for a, b in zip(curve, curve[1:]))
        assert cell.fsucc(cell.budget_calls) == cell.fsucc()


def test_sweep_threaded_matches_serial():
    serial = small_sweep(repetitions=20)
    threaded = small_sweep(repetitions=20, threads=2)
    assert serial == threaded
    # a product grid, whose cells at one M are cut from one run
    serial = _sharing_sweep("hill-climb", _SHARING_GRID, noisy=True)
    assert _sharing_sweep("hill-climb", _SHARING_GRID, noisy=True, threads=2) == serial


def test_sweep_pool_has_no_more_workers_than_tasks(monkeypatch):
    # a fork pool starts every worker at its first submit; this stand-in
    # records the pool's size and runs the tasks in this process
    sizes = []

    class RecordingPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return None

        def map(self, fn, tasks, chunksize=1):
            return map(fn, tasks)

    monkeypatch.setattr(exp, "ProcessPoolExecutor", RecordingPool)
    # one instance and one M: at 64 threads each of the 3 repetitions is a task
    pooled = small_sweep(grid=[(8, 2)], repetitions=3, threads=64)
    assert sizes == [3]
    assert pooled == small_sweep(grid=[(8, 2)], repetitions=3)


def test_sweep_spec_from_json():
    spec = {"family": "qaoa", "size": 4, "depth": 1, "init": {"mode": "linear"},
            "noise": {"t1_us": 50, "t2_us": 70}}
    problem, config, kind, noise = exp.sweep_spec_from_json(spec)
    assert problem == exp.ProblemSpec("qaoa", 4, 1, init=exp.InitSpec("linear"))
    assert config == opt.TrustRegionConfig() and kind == est.CVAR25
    # absent gate durations take the NoiseModel defaults, 50 and 300 ns
    assert noise == sim.NoiseModel(t1_us=50.0, t2_us=70.0, t1q_ns=50.0, t2q_ns=300.0)
    for bad in ({**spec, "noise": {"t1_us": 50, "t2_us": 70, "t3_us": 1}},
                {**spec, "init": {"mode": "linear", "steps": 3}},
                {**spec, "init": {"mode": "linear", "low": 0.0, "high": 0.1}},
                {**spec, "optimizer": {"name": "hill-climb", "step_norm": "small"}},
                {**spec, "cost_alpha": True},
                {k: v for k, v in spec.items() if k != "depth"}):
        with pytest.raises(SchemaError):
            exp.sweep_spec_from_json(bad)


def test_sweep_rejects_bad_arguments():
    problem = exp.ProblemSpec("qaoa", 4, 1)
    with pytest.raises(DomainError):
        exp.success_sweep(problem, opt.TrustRegionConfig(), est.CVAR25, [], 10, 0)
    with pytest.raises(DomainError):
        exp.success_sweep(problem, opt.TrustRegionConfig(), est.CVAR25, [(8, 5)], 0, 0)
    for threads in (0, -5):
        with pytest.raises(DomainError):
            exp.success_sweep(problem, opt.TrustRegionConfig(), est.CVAR25, [(8, 5)], 2, 0,
                              threads=threads)
    # a negative n_iter is rejected even where a longer cell at its M could cover it
    with pytest.raises(DomainError):
        exp.success_sweep(problem, opt.TrustRegionConfig(), est.CVAR25, [(8, 5), (8, -1)], 2, 0)
    # a repeated cell would be run twice
    with pytest.raises(DomainError, match=r"must differ, got \[\(8, 5\), \(4, 2\), \(8, 5\)\]"):
        exp.success_sweep(problem, opt.TrustRegionConfig(), est.CVAR25, [(8, 5), (4, 2), (8, 5)],
                          2, 0)
    for shots in (1 << 63, 10**400):  # an array length numpy cannot hold
        with pytest.raises(DomainError, match=r"shots must be in \[1, 2\^63\)"):
            exp.success_sweep(problem, opt.TrustRegionConfig(), est.CVAR25, [(shots, 1)], 2, 0)


@pytest.mark.parametrize("shots", [0, 1 << 63, 10**400], ids=["0", "2^63", "10^400"])
def test_sweep_refuses_bad_input_before_any_work(monkeypatch, shots):
    # the bad M follows a valid (64, 270) cell, whose 40 runs would take seconds
    monkeypatch.setattr(opt, "run", lambda *args, **kwargs: pytest.fail("a run was made"))
    with pytest.raises(DomainError, match=r"shots must be in \[1, 2\^63\)"):
        exp.success_sweep(exp.ProblemSpec("vqe-ry-cnot", 8, 2), opt.TrustRegionConfig(),
                          est.CVAR25, [(64, 270), (shots, 270)], 40, 0)


def geometric_quantile_cell(size: int, repetitions: int, budget_iters: int) -> exp.CellResult:
    """Cell whose empirical curve is the R-step staircase of the closed-form
    uniform-sampling success probability (M = 1 per iteration)."""
    p = 2.0**-size
    hits = []
    for i in range(1, repetitions + 1):
        c = math.ceil(math.log(1 - i / repetitions) / math.log(1 - p)) if i < repetitions else None
        if c is not None and c <= budget_iters:
            hits.append(int(c))
    return exp.CellResult(
        shots=1,
        iters=budget_iters,
        repetitions=repetitions,
        budget_calls=budget_iters,
        calls_per_iter=1,
        hit_calls=[sorted(hits)],
        psucc_hits=None,
    )


def synthetic_sweep(cells) -> exp.SweepResult:
    return exp.SweepResult(
        problem=exp.ProblemSpec("qaoa", 4, 1),
        optimizer=opt.TrustRegionConfig().to_json(),
        cost_alpha=0.25,
        repetitions=cells[0].repetitions,
        master_seed=0,
        final_probe=False,
        cells=cells,
    )


def test_optimal_calls_matches_geometric_closed_form():
    # at L = 10, R = 100 the products 0.07 * R and 0.14 * R round to just above
    # 7 and 14, yet 7 and 14 hits reach those targets: n_calls* is 75 and 155
    for size, repetitions, targets in ((4, 1000, (0.25, 0.5, 0.9)), (10, 100, (0.07, 0.14))):
        sweep = synthetic_sweep([geometric_quantile_cell(size, repetitions, 10**5)])
        p = 2.0**-size
        for target in targets:
            best = exp.optimal_calls(sweep, target)
            expected = math.ceil(math.log(1 - target) / math.log(1 - p))
            assert best.reached
            assert best.n_calls == expected


def test_optimal_calls_is_the_first_checkpoint_reaching_the_target():
    # the definition, scanned checkpoint by checkpoint, on random cells of one to
    # four instances; R = 50 and 100 put target * R just above an integer
    rng = np.random.default_rng(12)
    for _ in range(300):
        reps, iters, step = int(rng.choice([1, 7, 50, 100])), int(rng.integers(0, 30)), 3
        budget = step * max(1, iters)
        hit_calls = [sorted(int(h) for h in rng.integers(1, budget + 1, rng.integers(0, reps + 1)))
                     for _ in range(rng.integers(1, 5))]
        cell = exp.CellResult(1, iters, reps, budget, step, hit_calls, None)
        for target in (0.0, 0.07, 0.14, 0.25, 0.5, float(rng.random())):
            scan = next((c for c in cell.checkpoints() if cell.fsucc(c) >= target), None)
            best = exp.optimal_calls(synthetic_sweep([cell]), target)
            assert best.n_calls == scan and best.reached == (scan is not None)


def test_optimal_calls_monotone_in_target():
    sweep = small_sweep(grid=[(8, 8), (16, 4), (4, 16)], repetitions=60)
    previous = 0
    for target in (0.0, 0.1, 0.3, 0.5, 0.7):
        best = exp.optimal_calls(sweep, target)
        if not best.reached:
            break
        assert best.n_calls >= previous
        previous = best.n_calls


def test_optimal_calls_grid_order_invariance():
    grid = [(8, 8), (16, 4), (4, 16)]
    sweep = small_sweep(grid=grid, repetitions=60)
    shuffled_sweep = small_sweep(grid=list(reversed(grid)), repetitions=60)
    for target in (0.0, 0.2, 0.4):
        assert exp.optimal_calls(sweep, target) == exp.optimal_calls(shuffled_sweep, target)
    # the per-cell outcomes themselves are order-independent
    for shots, iters in grid:
        assert sweep.cell(shots, iters) == shuffled_sweep.cell(shots, iters)


def test_same_shots_cells_share_run_prefixes():
    # success is cumulative: a longer run at the same M extends the shorter
    # one, so their F_succ curves agree exactly on the common checkpoints
    sweep = small_sweep(grid=[(8, 5), (8, 15)], repetitions=50)
    short, long = sweep.cell(8, 5), sweep.cell(8, 15)
    for calls in short.checkpoints():
        assert short.fsucc(calls) == long.fsucc(calls)
    assert long.fsucc() >= short.fsucc()


_SHARING_OPTIMIZERS = {
    "trust-region": opt.TrustRegionConfig(),
    "hill-climb": opt.HillClimbConfig(step_norm=0.3),
    "gd-param-shift": opt.GradientDescentConfig(gradient="param-shift", shots_per_circuit=3),
    "gd-finite-diff": opt.GradientDescentConfig(gradient="finite-diff", shots_per_circuit=2),
}
_SHARING_GRID = [(m, n) for m in (4, 16) for n in (0, 1, 3, 7)]
_NOISE = sim.NoiseModel(t1_us=2.0, t2_us=3.0)


def _sharing_sweep(name, grid, noisy=False, probe=False, threads=1):
    problem = exp.ProblemSpec("vqe-ry-cnot", 4, 1, "disordered", instance_seeds=(3, 8))
    return exp.success_sweep(
        problem, _SHARING_OPTIMIZERS[name], est.CVAR25, grid, 3, 17, threads=threads,
        noise=_NOISE if noisy else None, final_probe=probe,
    )


@pytest.mark.parametrize("probe", [False, True], ids=["noprobe", "probe"])
@pytest.mark.parametrize("noisy", [False, True], ids=["ideal", "noisy"])
@pytest.mark.parametrize("name", list(_SHARING_OPTIMIZERS))
def test_multi_cell_sweep_equals_one_cell_sweeps(name, noisy, probe):
    # cells at one M are cut from that M's longest run; each must come out
    # exactly as a sweep whose grid is that cell alone
    sweep = _sharing_sweep(name, _SHARING_GRID, noisy, probe)
    for index, (shots, iters) in enumerate(_SHARING_GRID):
        alone = _sharing_sweep(name, [(shots, iters)], noisy, probe)
        assert sweep.cells[index] == alone.cells[0], (shots, iters)


@pytest.mark.parametrize("name", list(_SHARING_OPTIMIZERS))
def test_saved_sweep_reads_back_its_optimizer_config(tmp_path, name):
    # the file holds the config's own object, and reading it picks the config by its name
    config = _SHARING_OPTIMIZERS[name]
    path = tmp_path / "sweep.json"
    exp.save_result(_sharing_sweep(name, [(4, 1)]), path)
    assert json.loads(path.read_text())["optimizer"] == config.to_json()
    assert exp.load_result(path).optimizer == config


@pytest.mark.parametrize("name, extra_runs", [("trust-region", 0), ("gd-finite-diff", 1)])
def test_sweep_runs_each_m_once_at_its_longest_n_iter(monkeypatch, name, extra_runs):
    # per (instance, M, repetition): one run at the longest n_iter, plus, for
    # gradient descent, the n_iter = 0 cell's own one-round run
    runs = []
    real_run = opt.run

    def counting_run(*args, **kwargs):
        trace = real_run(*args, **kwargs)
        runs.append(len(trace.records))
        return trace

    monkeypatch.setattr(opt, "run", counting_run)
    grid = [(m, n) for m in (4, 16) for n in (0, 2, 5)]
    _sharing_sweep(name, grid)
    units = 2 * 3 * 2  # M values x repetitions x instances
    assert len(runs) == units * (1 + extra_runs)
    assert sum(runs) == units * (5 + extra_runs)


def _pinned_sweep_bytes(tmp_path, name, family, kind, alpha, noisy, probe):
    problem = exp.ProblemSpec(family, 4, 1, kind, instance_seeds=(3, 8))
    sweep = exp.success_sweep(
        problem, _SHARING_OPTIMIZERS[name], est.CostKind(alpha), _SHARING_GRID, 3, 17,
        noise=_NOISE if noisy else None, final_probe=probe,
    )
    path = tmp_path / "sweep.json"
    exp.save_result(sweep, path)
    return path.read_bytes()


# sha256 of save_result output, computed with the per-cell run loop that ran
# every cell from scratch; prefix sharing must not move a byte.  The grid once
# listed (16, 3) twice; these digests of the grid without the repeat were taken
# with the last code that accepted it, which still gave the old grid's digests.
_SWEEP_PINS = {
    ("trust-region", "vqe-ry-cnot", "ferromagnetic", 0.25, False, False):
        "958c0fed1f1ca00457ee2c36c03de71de8cb845facc9b6f7da9bb12330806706",
    ("hill-climb", "qaoa", "disordered", 1.0, True, False):
        "72c2616b5cfd25a0c8038499746277fd3950fa5f13ed01a817e0d48248a0db9d",
    ("gd-param-shift", "vqe-ry-cnot", "disordered", 0.25, False, True):
        "78ca11be4787931e135e9357733bae96a9badfd4ef504c34d198673efbfd19f1",
    ("gd-finite-diff", "qaoa", "disordered", 1.0, True, False):
        "1708ad82796bb8c5a249dcbd6d08921451e42f3a8fca296afbe921218381348a",
    ("trust-region", "qaoa", "ferromagnetic", 0.25, True, True):
        "dcbbee34200876e63baee619de99a4fe5abd2d783c204cbfacc944d87506e401",
}


@pytest.mark.parametrize("case", list(_SWEEP_PINS), ids=lambda c: "-".join(map(str, c)))
def test_sweep_bytes_pinned(tmp_path, case):
    digest = hashlib.sha256(_pinned_sweep_bytes(tmp_path, *case)).hexdigest()
    assert digest == _SWEEP_PINS[case]


# sha256 of save_result output, computed with the hand-written to_json methods
# that the codec replaced
_RESULT_PINS = {
    "fit.json": "11b2e6bde1eb7433a43a2edce5d78fa5c9f2eb8ff6eb2b585aa50e4a4d39fad9",
    "depth_sweep.json": "3a700c1412b9a7208863fd6c89568a3bb78a51586e3f99a5ed043ccb529b95ef",
    # tables of several chunks, blocked mixers and the skipped zero-angle layer
    "depth_sweep_blocked.json":
        "26d023457697599263854f419ef708fa31cc86bdda7afb5f31290d486ffea126",
}


@pytest.mark.parametrize("name", list(_RESULT_PINS))
def test_result_bytes_pinned(tmp_path, name):
    if name == "fit.json":
        result = exp.fit_scaling([(L, 3.0 * 2.0 ** (0.4 * L)) for L in range(5, 12)],
                                 l_min=6, target=0.25)
    else:
        sizes = [4, 5] if name == "depth_sweep.json" else [13, 15, 16]
        depths = [1, 3] if name == "depth_sweep.json" else [1, 2, 4]
        result = exp.depth_sweep(sizes=sizes, depths=depths, dt=0.8, shots=8, repetitions=20,
                                 master_seed=3, kind="disordered", instance_seeds=(2, 7))
    exp.save_result(result, tmp_path / name)
    assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == _RESULT_PINS[name]


def test_optimal_calls_unreached_is_explicit():
    cell = geometric_quantile_cell(12, 50, budget_iters=3)
    best = exp.optimal_calls(synthetic_sweep([cell]), 0.9)
    assert best == exp.OptimalCalls(target=0.9, reached=False)
    with pytest.raises(DomainError):
        exp.optimal_calls(synthetic_sweep([cell]), 1.0)


def test_target_zero_returns_smallest_checkpoint():
    sweep = small_sweep(grid=[(8, 6), (16, 0)], repetitions=10)
    best = exp.optimal_calls(sweep, 0.0)
    assert best.reached and best.n_calls == 8


def test_fit_scaling_exact_law():
    points = [(L, 3.0 * 2.0 ** (0.5 * L)) for L in range(6, 13)]
    fit = exp.fit_scaling(points, l_min=8)
    assert fit.amplitude == pytest.approx(3.0, abs=1e-10)
    assert fit.exponent == pytest.approx(0.5, abs=1e-10)
    assert np.allclose(fit.residuals, 0.0, atol=1e-12)
    with pytest.raises(DomainError):
        exp.fit_scaling(points[:1], l_min=6)
    with pytest.raises(DomainError):
        exp.fit_scaling(points, l_min=12)


def test_random_search_baseline():
    assert exp.random_search_baseline(8, 1, 0) == 0.0
    assert exp.random_search_baseline(3, 8, 1) == 1.0
    value = exp.random_search_baseline(8, 1, 256)
    assert value == pytest.approx(1.0 - (255 / 256) ** 256)
    # Monte-Carlo cross-check
    rng = np.random.default_rng(70)
    trials = 10**5
    draws = rng.integers(0, 256, size=(trials, 256))
    hit = (draws == 255).any(axis=1).mean()
    assert abs(hit - value) < 4 * math.sqrt(value * (1 - value) / trials)
    with pytest.raises(DomainError):
        exp.random_search_baseline(3, 9, 1)
    with pytest.raises(DomainError):
        exp.random_search_baseline(3, 0, 1)


def test_runtime_bound():
    assert exp.runtime_bound(2**31, 2, 10e-9) == pytest.approx(42.9497, abs=1e-3)
    assert exp.runtime_bound(0, 4, 1e-8) == 0.0
    assert exp.runtime_bound(100, 4, 1e-8) == 2 * exp.runtime_bound(100, 2, 1e-8)
    with pytest.raises(DomainError):
        exp.runtime_bound(10, 0, 1e-8)


def test_depth_sweep_ferromagnetic():
    result = exp.depth_sweep(
        sizes=[6, 8], depths=[2, 4], dt=0.8, shots=16, repetitions=150, master_seed=4
    )
    for size in (6, 8):
        shallow = result.cell(size, 2)
        deep = result.cell(size, 4)
        assert deep.p_gs_median() > shallow.p_gs_median()
        assert deep.fsucc_median() >= shallow.fsucc_median()


def test_depth_sweep_rejects_bad_arguments():
    args = dict(sizes=[4], depths=[1], dt=0.8, shots=4, repetitions=2, master_seed=0)
    for bad in ({"repetitions": 0}, {"shots": 0}, {"shots": 1 << 63}, {"kind": "bogus"},
                {"kind": "disordered", "instance_seeds": ()}, {"sizes": []}, {"depths": []}):
        with pytest.raises(DomainError):
            exp.depth_sweep(**{**args, **bad})


@pytest.mark.parametrize("bad", [{"sizes": [20, 25]}, {"sizes": [20, 1]}, {"depths": [8, 0]},
                                 {"dt": math.nan}, {"dt": 2.0**62}, {"shots": 0},
                                 {"shots": 1 << 63}, {"repetitions": 1 << 58}],
                         ids=lambda bad: ",".join(f"{k}={v}" for k, v in bad.items()))
def test_depth_sweep_refuses_bad_input_before_any_work(monkeypatch, bad):
    # each bad value follows a valid first size and depth, whose L = 20 table
    # and d = 8 preparation would take about a second
    def work(*args, **kwargs):
        raise AssertionError("an energy table or state was built before the input check")

    monkeypatch.setattr(ising, "energy_table", work)
    monkeypatch.setattr(anz, "prepare_state", work)
    args = dict(sizes=[20], depths=[8], dt=0.8, shots=4, repetitions=2, master_seed=0)
    with pytest.raises(VqoptError):
        exp.depth_sweep(**{**args, **bad})


def test_depth_sweep_disordered_percentiles():
    result = exp.depth_sweep(
        sizes=[6], depths=[2, 8], dt=0.8, shots=16, repetitions=100,
        master_seed=4, kind="disordered", instance_seeds=tuple(range(10)),
    )
    shallow, deep = result.cell(6, 2), result.cell(6, 8)
    assert len(shallow.p_gs) == 10
    assert deep.p_gs_median() > shallow.p_gs_median()
    q25, q50, q75 = np.percentile(deep.fsucc, [25, 50, 75])
    assert q25 <= q50 <= q75


def test_ensemble_sweep_bands():
    problem = exp.ProblemSpec(
        "qaoa", 5, 2, "disordered", instance_seeds=tuple(range(6)),
        init=exp.InitSpec("linear", dt=0.8),
    )
    sweep = small_sweep(problem=problem, grid=[(8, 4)], repetitions=30)
    cell = sweep.cells[0]
    lo, hi, band = cell.fsucc_band()
    assert band == "percentile"
    assert lo <= cell.fsucc() <= hi


def test_persistence_round_trips(tmp_path):
    sweep = small_sweep(repetitions=15)
    path = tmp_path / "sweep_L6.json"
    exp.save_result(sweep, path)
    assert exp.load_result(path) == sweep

    fit = exp.fit_scaling([(L, 2.0**L) for L in range(6, 11)], l_min=8, target=0.5)
    fit_path = tmp_path / "fit.json"
    exp.save_result(fit, fit_path)
    assert exp.load_result(fit_path) == fit

    depth = exp.depth_sweep(
        sizes=[4], depths=[2], dt=0.8, shots=8, repetitions=20, master_seed=2
    )
    depth_path = tmp_path / "depth.json"
    exp.save_result(depth, depth_path)
    assert exp.load_result(depth_path) == depth


def test_persistence_schema_errors(tmp_path):
    sweep = small_sweep(repetitions=5)
    obj = sweep.to_json()
    obj["schema_version"] = 999
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(obj))
    with pytest.raises(SchemaError):
        exp.load_result(path)
    path.write_text(json.dumps({"result_type": "mystery"}))
    with pytest.raises(SchemaError):
        exp.load_result(path)

    good = json.dumps(sweep.to_json(), sort_keys=True)
    cells = sweep.to_json()["cells"]
    noise = sim.NoiseModel(t1_us=50.0, t2_us=70.0).to_json()
    mutations = [
        json.dumps({**sweep.to_json(), "comment": "unknown top-level key"}),
        json.dumps({**sweep.to_json(), "cells": [{**cells[0], "note": 1}, *cells[1:]]}),
        json.dumps({**sweep.to_json(), "noise": {**noise, "t3_us": 1.0}}),
        good[: len(good) // 2],  # truncated file
        "[]",
        json.dumps({k: v for k, v in sweep.to_json().items() if k != "cells"}),
        good.replace('"hit_calls"', '"hit_cals"'),
        good.replace('"repetitions": 5', '"repetitions": "five"'),
        # a cell holds one hit list per instance of the problem, and as many psucc counts
        json.dumps({**sweep.to_json(), "cells": [{**cells[0], "hit_calls": []}, *cells[1:]]}),
        json.dumps({**sweep.to_json(), "cells": [{**cells[0], "hit_calls": [[8], [16]]},
                                                 *cells[1:]]}),
        json.dumps({**sweep.to_json(), "cells": [cells[0], {**cells[1], "psucc_hits": [1, 2]}]}),
        # F_succ and n_calls* divide by R and step through the budget's checkpoints
        *(json.dumps({**sweep.to_json(), "cells": [{**cells[0], **change}, *cells[1:]]})
          for change in ({"repetitions": 0}, {"shots": 0}, {"iters": -1}, {"calls_per_iter": 0},
                         {"budget_calls": cells[0]["budget_calls"] + 1},
                         {"hit_calls": [[16, 8]]}, {"hit_calls": [[0]]},
                         {"hit_calls": [[cells[0]["budget_calls"] + 1]]},
                         {"hit_calls": [[8] * 6]})),
        *(json.dumps({**sweep.to_json(), "cells": [cells[0], {**cells[1], "psucc_hits": psucc}]})
          for psucc in ([-1], [6])),
    ]
    for text in mutations:
        path.write_text(text)
        with pytest.raises(SchemaError):
            exp.load_result(path)
    without_cells = {k: v for k, v in sweep.to_json().items() if k != "cells"}
    with pytest.raises(SchemaError):
        exp.SweepResult.from_json(without_cells)

    # a fit is drawn on a log2 axis, with one residual per point at L >= l_min
    fit = exp.fit_scaling([(L, 2.0**L) for L in range(6, 11)], l_min=8).to_json()
    for change in ({"points": [[L, 0.0 if L == 8 else n] for L, n in fit["points"]]},
                   {"amplitude": 0.0}, {"residuals": fit["residuals"][1:]}):
        path.write_text(json.dumps({**fit, **change}))
        with pytest.raises(SchemaError):
            exp.load_result(path)

    depth = exp.depth_sweep(sizes=[4], depths=[1], dt=0.8, shots=4, repetitions=2,
                            master_seed=0).to_json()
    for p_gs, fsucc in (([], []), ([0.5], []), ([0.5], [0.5, 0.5])):
        cell = {**depth["cells"][0], "p_gs": p_gs, "fsucc": fsucc}
        path.write_text(json.dumps({**depth, "cells": [cell]}))
        with pytest.raises(SchemaError):
            exp.load_result(path)


@pytest.mark.parametrize("writer", ["save_result", "write_trace"])
def test_result_writes_are_atomic(tmp_path, monkeypatch, writer):
    if writer == "save_result":
        sweep = small_sweep(repetitions=5)
        write = lambda path: exp.save_result(sweep, path)  # noqa: E731
        expected = json.dumps(sweep.to_json(), sort_keys=True) + "\n"
    else:
        inst = ising.make_ferromagnetic(4)
        spec = anz.AnsatzSpec(anz.FAMILY_QAOA, 4, 1, instance=inst)
        trace = opt.run(spec, inst, ising.brute_force_minimum(inst), opt.HillClimbConfig(),
                        est.CVAR25, 8, 3, np.zeros(2), rng=np.random.default_rng(1))
        write = lambda path: opt.write_trace(path, trace, {"seed": 1})  # noqa: E731
        expected = None  # trace bytes are pinned by test_optimizer's digests

    out = tmp_path / "out"
    out.mkdir()
    target = out / "result.json"
    write(target)
    assert expected is None or target.read_text() == expected
    assert [p.name for p in out.iterdir()] == ["result.json"]

    target.write_text("previous contents\n")

    def interrupted(self, text, *args, **kwargs):
        with open(self, "w") as handle:
            handle.write(text[:10])
        raise KeyboardInterrupt

    monkeypatch.setattr(Path, "write_text", interrupted)
    with pytest.raises(KeyboardInterrupt):
        write(target)
    assert target.read_text() == "previous contents\n"
    assert [p.name for p in out.iterdir()] == ["result.json"]


def test_report_renders(tmp_path):
    from vqopt import report as rpt

    sweep = small_sweep(repetitions=15)
    files = rpt.report_sweep(sweep, tmp_path)
    names = {f.name for f in files}
    assert names == {"sweep_L6_cells.csv", "sweep_L6_curves.csv", "sweep_L6.svg"}
    svg = (tmp_path / "sweep_L6.svg").read_text()
    assert svg.startswith("<svg") and "polyline" in svg


def test_report_fit_straight_line(tmp_path):
    import re
    from vqopt import report as rpt

    fit = exp.fit_scaling([(L, 3.0 * 2.0 ** (0.5 * L)) for L in range(6, 13)], l_min=6)
    rpt.report_fit(fit, tmp_path)
    svg = (tmp_path / "fit.svg").read_text()
    polylines = re.findall(r'<polyline points="([^"]+)"', svg)
    assert len(polylines) == 2
    for poly in polylines:
        pts = np.array([[float(v) for v in pair.split(",")] for pair in poly.split()])
        # exact-law data renders collinear on the log2 axis (coords carry
        # two decimals, so straightness holds at sub-pixel resolution)
        slope, intercept = np.polyfit(pts[:, 0], pts[:, 1], 1)
        assert np.allclose(pts[:, 1], slope * pts[:, 0] + intercept, atol=0.02)
