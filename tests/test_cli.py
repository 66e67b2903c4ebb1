import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from vqopt.cli import dispatch


def run_cli(*argv):
    return dispatch(list(argv))


def test_gen_instance_and_run_smoke(tmp_path):
    inst = tmp_path / "inst.json"
    trace = tmp_path / "trace.jsonl"
    assert run_cli("gen-instance", "--kind", "ferro", "--size", "8", "--out", str(inst)) == 0
    payload = json.loads(inst.read_text())
    assert payload["L"] == 8 and payload["kind"] == "ferromagnetic"
    assert payload["couplings"] == [1.0] * 7

    assert run_cli(
        "run", "--instance", str(inst), "--optimizer", "cobyla",
        "--shots", "64", "--iters", "40", "--seed", "3", "--out", str(trace),
    ) == 0
    lines = [json.loads(line) for line in trace.read_text().splitlines()]
    assert lines[0]["record"] == "config"
    assert len([l for l in lines if l["record"] == "iteration"]) == 40
    assert lines[-1]["n_calls"] == 64 * 40


def test_run_idempotent_outputs(tmp_path):
    inst = tmp_path / "inst.json"
    run_cli("gen-instance", "--kind", "disordered", "--size", "6", "--seed", "11",
            "--out", str(inst))
    blobs = []
    for name in ("a.jsonl", "b.jsonl"):
        out = tmp_path / name
        run_cli("run", "--instance", str(inst), "--family", "qaoa", "--depth", "2",
                "--optimizer", "hillclimb", "--shots", "16", "--iters", "25",
                "--seed", "7", "--out", str(out))
        blobs.append(out.read_bytes())
    assert blobs[0] == blobs[1]


def test_baseline_prints_probability(capsys):
    assert run_cli("baseline", "--size", "8", "--g", "1", "--calls", "256") == 0
    printed = float(capsys.readouterr().out.strip())
    assert printed == pytest.approx(1.0 - (255 / 256) ** 256, abs=5e-5)


def test_usage_errors_exit_2(tmp_path):
    with pytest.raises(SystemExit) as exc:
        run_cli("sweep", "--spec", "x.json", "--grid", "g.json", "--reps", "0",
                "--out", str(tmp_path))
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        run_cli("baseline", "--size", "8", "--unknown-flag", "1")
    assert exc.value.code == 2
    with pytest.raises(SystemExit):
        run_cli()  # missing subcommand


def test_domain_errors_exit_1(tmp_path):
    inst = tmp_path / "inst.json"
    run_cli("gen-instance", "--kind", "ferro", "--size", "4", "--out", str(inst))
    rc = run_cli("run", "--instance", str(inst), "--family", "qaoa", "--depth", "2",
                 "--optimizer", "gd-paramshift", "--shots", "8", "--iters", "5",
                 "--out", str(tmp_path / "t.jsonl"))
    assert rc == 1  # parameter-shift never applies to qaoa


def _write_sweep_inputs(tmp_path, size=5):
    spec = {
        "family": "qaoa",
        "size": size,
        "depth": 2,
        "kind": "ferromagnetic",
        "init": {"mode": "random", "low": -math.pi, "high": math.pi},
        "optimizer": {"name": "trust-region-dfo"},
        "cost_alpha": 0.25,
    }
    grid = {"shots": [8, 16], "iters": [6]}
    spec_path = tmp_path / f"spec{size}.json"
    grid_path = tmp_path / "grid.json"
    spec_path.write_text(json.dumps(spec))
    grid_path.write_text(json.dumps(grid))
    return spec_path, grid_path


def test_sweep_fit_report_pipeline(tmp_path):
    out = tmp_path / "results"
    for size in (5, 6, 7):
        spec_path, grid_path = _write_sweep_inputs(tmp_path, size)
        assert run_cli(
            "sweep", "--spec", str(spec_path), "--grid", str(grid_path),
            "--reps", "40", "--seed", "2", "--out", str(out),
        ) == 0
        assert (out / f"sweep_L{size}.json").exists()

    fit_dir = tmp_path / "fit"
    assert run_cli("fit", "--in", str(out), "--lmin", "5", "--target", "0.2",
                   "--out", str(fit_dir)) == 0
    fit = json.loads((fit_dir / "fit.json").read_text())
    assert fit["result_type"] == "fit" and len(fit["points"]) == 3

    report_dir = tmp_path / "report"
    (out / "grid.json").write_text(grid_path.read_text())  # not a result: skipped
    assert run_cli("report", "--in", str(out), "--format", "csv,svg",
                   "--out", str(report_dir)) == 0
    names = {p.name for p in report_dir.iterdir()}
    assert "sweep_L5.svg" in names and "sweep_L6_cells.csv" in names


def test_depth_sweep_command(tmp_path):
    out = tmp_path / "depth"
    assert run_cli(
        "depth-sweep", "--dt", "0.8", "--depths", "2,4", "--sizes", "5,6",
        "--shots", "16", "--reps", "50", "--seed", "1", "--out", str(out),
    ) == 0
    payload = json.loads((out / "depth_sweep.json").read_text())
    assert payload["result_type"] == "depth-sweep"
    assert len(payload["cells"]) == 4
    report_dir = tmp_path / "rep"
    assert run_cli("report", "--in", str(out), "--out", str(report_dir)) == 0
    assert (report_dir / "depth_sweep.svg").exists()


def test_report_without_results_fails(tmp_path):
    empty = tmp_path / "empty"
    empty.mkdir()
    assert run_cli("report", "--in", str(empty), "--out", str(tmp_path / "r")) == 1


def test_config_file_defaults(tmp_path):
    config = tmp_path / "defaults.json"
    config.write_text(json.dumps({"size": 9, "kind": "ferro"}))
    out = tmp_path / "inst.json"
    assert dispatch(["--config", str(config), "gen-instance", "--kind", "ferro",
                     "--size", "9", "--out", str(out)]) == 0
    # config value used when flag omitted entirely is exercised via seed
    config.write_text(json.dumps({"seed": 21}))
    out2 = tmp_path / "inst2.json"
    assert dispatch(["--config", str(config), "gen-instance", "--kind", "disordered",
                     "--size", "6", "--out", str(out2)]) == 0
    assert json.loads(out2.read_text())["seed"] == 21


def test_config_file_goes_through_argparse(tmp_path):
    config = tmp_path / "config.json"
    # a string value is converted by the flag's type
    config.write_text(json.dumps({"reps": "3", "instance_seeds": [4, 5]}))
    out = tmp_path / "depth"
    assert dispatch(["--config", str(config), "depth-sweep", "--depths", "1", "--sizes", "4",
                     "--kind", "disordered", "--out", str(out)]) == 0
    payload = json.loads((out / "depth_sweep.json").read_text())
    assert payload["repetitions"] == 3 and payload["instance_seeds"] == [4, 5]

    # a required flag can come from the file; store_true keys take true/false;
    # the command line wins over the file
    spec_path, grid_path = _write_sweep_inputs(tmp_path, size=4)
    config.write_text(json.dumps({"reps": 2, "seed": 9, "final_probe": True}))
    out = tmp_path / "sweep"
    assert dispatch(["--config", str(config), "sweep", "--spec", str(spec_path),
                     "--grid", str(grid_path), "--seed", "4", "--out", str(out)]) == 0
    payload = json.loads((out / "sweep_L4.json").read_text())
    assert payload["repetitions"] == 2 and payload["final_probe"] is True
    assert payload["master_seed"] == 4

    # a value argparse rejects, or a key no flag matches, is a usage error
    for bad in ({"reps": "two"}, {"final_probe": "yes"}, {"reps": True}, {"bogus": 1}):
        config.write_text(json.dumps(bad))
        with pytest.raises(SystemExit) as exc:
            dispatch(["--config", str(config), "sweep", "--spec", str(spec_path),
                      "--grid", str(grid_path), "--out", str(out)])
        assert exc.value.code == 2, bad


def _bad_sweep_spec(**changes):
    spec = {"family": "qaoa", "size": 4, "depth": 1, "optimizer": {"name": "hill-climb"},
            "cost_alpha": 0.25}
    spec.update(changes)
    return spec


def _bad_sweep_result(**cell_changes):
    cell = {"shots": 4, "iters": 2, "repetitions": 2, "budget_calls": 8, "calls_per_iter": 4,
            "hit_calls": [[]], "psucc_hits": None}
    return {"schema_version": 1, "result_type": "sweep",
            "problem": {"family": "qaoa", "size": 4, "depth": 1},
            "optimizer": {"name": "hill-climb"}, "cost_alpha": 0.25, "repetitions": 2,
            "master_seed": 0, "final_probe": False, "noise": None,
            "cells": [{**cell, **cell_changes}]}


_RUN_NOISY = ["run", "--instance", "inst.json", "--noise", "noise.json", "--shots", "4",
              "--iters", "2", "--out", "t.jsonl"]

# (case, files to write into the working directory, argv, exit code)
_BAD_INPUTS = [
    ("unknown cost kind", {}, ["run", "--instance", "inst.json", "--cost", "cvarxx",
                               "--shots", "4", "--iters", "2", "--out", "t.jsonl"], 2),
    ("misspelled spec field", {"spec.json": _bad_sweep_spec(cost_alfa=0.5)},
     ["sweep", "--spec", "spec.json", "--grid", "grid.json", "--reps", "2", "--out", "o"], 1),
    ("misspelled optimizer field",
     {"spec.json": _bad_sweep_spec(optimizer={"name": "hill-climb", "step_nrom": 0.1})},
     ["sweep", "--spec", "spec.json", "--grid", "grid.json", "--reps", "2", "--out", "o"], 1),
    ("exact-mode gradient sweep",
     {"spec.json": _bad_sweep_spec(optimizer={"name": "gradient-descent",
                                              "gradient": "finite-diff",
                                              "shots_per_circuit": None})},
     ["sweep", "--spec", "spec.json", "--grid", "grid.json", "--reps", "2", "--out", "o"], 1),
    ("missing spec file", {},
     ["sweep", "--spec", "nope.json", "--grid", "grid.json", "--reps", "2", "--out", "o"], 1),
    ("sweep result without cells",
     {"sweep.json": {"schema_version": 1, "result_type": "sweep",
                     "problem": {"family": "qaoa", "size": 4, "depth": 1},
                     "optimizer": {"name": "hill-climb"}, "cost_alpha": 0.25, "repetitions": 2,
                     "master_seed": 0, "final_probe": False, "noise": None}},
     ["report", "--in", "sweep.json", "--out", "r"], 1),
    ("grid without iters", {"spec.json": _bad_sweep_spec(), "grid.json": {"shots": [4]}},
     ["sweep", "--spec", "spec.json", "--grid", "grid.json", "--reps", "2", "--out", "o"], 1),
    ("grid without shots", {"spec.json": _bad_sweep_spec(), "grid.json": {"iters": [2]}},
     ["sweep", "--spec", "spec.json", "--grid", "grid.json", "--reps", "2", "--out", "o"], 1),
    ("spec not JSON", {"spec.json": '{"family": "qaoa",'},
     ["sweep", "--spec", "spec.json", "--grid", "grid.json", "--reps", "2", "--out", "o"], 1),
    ("grid not JSON", {"spec.json": _bad_sweep_spec(), "grid.json": '{"shots": [4], "iters"'},
     ["sweep", "--spec", "spec.json", "--grid", "grid.json", "--reps", "2", "--out", "o"], 1),
    ("instance not JSON", {"inst.json": '{"L": 4, "coup'},
     ["run", "--instance", "inst.json", "--shots", "4", "--iters", "2", "--out", "t.jsonl"], 1),
    ("noise not JSON", {"noise.json": "t1_us = 50"},
     ["run", "--instance", "inst.json", "--noise", "noise.json", "--shots", "4", "--iters", "2",
      "--out", "t.jsonl"], 1),
    ("config not JSON", {"config.json": '{"seed": '},
     ["--config", "config.json", "baseline", "--size", "4", "--calls", "2"], 1),
    ("config value of the wrong type", {"config.json": {"reps": "three"}},
     ["--config", "config.json", "depth-sweep", "--depths", "1", "--sizes", "4", "--out", "o"], 2),
    ("unknown config key", {"config.json": {"repetitions": 3}},
     ["--config", "config.json", "baseline", "--size", "4", "--calls", "2"], 2),
    ("config key abbreviating a flag", {"spec.json": _bad_sweep_spec(), "config.json": {"rep": 2}},
     ["--config", "config.json", "sweep", "--spec", "spec.json", "--grid", "grid.json",
      "--out", "o"], 2),
    ("noise without t2_us", {"noise.json": {"t1_us": 5.0}}, _RUN_NOISY, 1),
    ("noise with a mistyped t1_us", {"noise.json": {"t1_us": "50", "t2_us": 70.0}},
     _RUN_NOISY, 1),
    ("noise with an unknown key", {"noise.json": {"t1_us": 50.0, "t2_us": 70.0, "t3_us": 1.0}},
     _RUN_NOISY, 1),
    ("spec noise with an unknown key",
     {"spec.json": _bad_sweep_spec(noise={"t1_us": 50.0, "t2_us": 70.0, "t1q_ns": 50.0,
                                          "t2q_ns": 300.0, "gate_ns": 20.0})},
     ["sweep", "--spec", "spec.json", "--grid", "grid.json", "--reps", "2", "--out", "o"], 1),
    ("instance with a mistyped L",
     {"inst.json": {"L": "abc", "couplings": [1.0], "fields": [0.0, 0.0]}},
     ["run", "--instance", "inst.json", "--shots", "4", "--iters", "2", "--out", "t.jsonl"], 1),
    ("instance with an unknown key",
     {"inst.json": {"L": 2, "couplings": [1.0], "fields": [0.0, 0.0], "size": 2}},
     ["run", "--instance", "inst.json", "--shots", "4", "--iters", "2", "--out", "t.jsonl"], 1),
    ("instance of an unknown kind",
     {"inst.json": {"L": 2, "couplings": [1.0], "fields": [0.0, 0.0], "kind": "bogus"}},
     ["run", "--instance", "inst.json", "--shots", "4", "--iters", "2", "--out", "t.jsonl"], 1),
    ("depth sweep with zero repetitions", {},
     ["depth-sweep", "--depths", "1", "--sizes", "4", "--reps", "0", "--out", "o"], 1),
    ("depth sweep with zero shots", {},
     ["depth-sweep", "--depths", "1", "--sizes", "4", "--shots", "0", "--out", "o"], 1),
    ("disordered depth sweep without seeds", {},
     ["depth-sweep", "--depths", "1", "--sizes", "4", "--kind", "disordered",
      "--instance-seeds=", "--out", "o"], 1),
    ("depth sweep result with an empty cell",
     {"depth.json": {"schema_version": 1, "result_type": "depth-sweep", "kind": "disordered",
                     "dt": 0.8, "shots": 4, "repetitions": 2, "master_seed": 0,
                     "instance_seeds": [], "cells": [{"size": 4, "depth": 1, "p_gs": [],
                                                      "fsucc": []}]}},
     ["report", "--in", "depth.json", "--out", "r"], 1),
    ("sweep result with a cell of no instances", {"sweep.json": _bad_sweep_result(hit_calls=[])},
     ["report", "--in", "sweep.json", "--out", "r"], 1),
    ("depth sweep with no sizes", {},
     ["depth-sweep", "--depths", "1", "--sizes=", "--out", "o"], 1),
    ("depth sweep with no depths", {},
     ["depth-sweep", "--depths=", "--sizes", "4", "--out", "o"], 1),
    ("linear init for vqe", {},
     ["run", "--family", "vqe", "--init", "linear", "--instance", "inst.json", "--shots", "4",
      "--iters", "2", "--out", "t.jsonl"], 1),
    ("init field its mode does not use",
     {"spec.json": _bad_sweep_spec(init={"mode": "linear", "low": 0.0, "high": 0.1})},
     ["sweep", "--spec", "spec.json", "--grid", "grid.json", "--reps", "2", "--out", "o"], 1),
    ("zero threads", {"spec.json": _bad_sweep_spec()},
     ["sweep", "--spec", "spec.json", "--grid", "grid.json", "--reps", "2", "--threads", "0",
      "--out", "o"], 2),
    ("negative threads", {"spec.json": _bad_sweep_spec()},
     ["sweep", "--spec", "spec.json", "--grid", "grid.json", "--reps", "2", "--threads=-5",
      "--out", "o"], 2),
    ("fit over a missing directory", {}, ["fit", "--in", "nowhere", "--out", "o"], 1),
    ("fit over a directory without sweeps", {"sweeps/notes.json": {}},
     ["fit", "--in", "sweeps", "--out", "o"], 1),
    ("report on a sweep cell of zero repetitions",
     {"sweep.json": _bad_sweep_result(repetitions=0)},
     ["report", "--in", "sweep.json", "--out", "r"], 1),
    ("fit on a sweep cell of zero repetitions",
     {"sweeps/sweep_L4.json": _bad_sweep_result(repetitions=0)},
     ["fit", "--in", "sweeps", "--out", "o"], 1),
    ("report over a directory with a sweep cell of zero repetitions",
     {"sweeps/sweep_bad.json": _bad_sweep_result(repetitions=0),
      "sweeps/sweep_L4.json": _bad_sweep_result(), "sweeps/spec.json": _bad_sweep_spec()},
     ["report", "--in", "sweeps", "--out", "r"], 1),
    ("report on a sweep cell of zero calls per iteration",
     {"sweep.json": _bad_sweep_result(calls_per_iter=0)},
     ["report", "--in", "sweep.json", "--out", "r"], 1),
    ("report on a fit with a zero point",
     {"fit.json": {"schema_version": 1, "result_type": "fit", "points": [[8, 0.0], [10, 4.0]],
                   "amplitude": 1.0, "exponent": 0.5, "l_min": 8, "residuals": [0.0, 0.0],
                   "target": 0.25}},
     ["report", "--in", "fit.json", "--out", "r"], 1),
    ("linear init with a NaN dt", {},
     ["run", "--family", "qaoa", "--init", "linear", "--dt", "nan", "--instance", "inst.json",
      "--shots", "4", "--iters", "2", "--out", "t.jsonl"], 1),
    ("linear init with an infinite dt", {},
     ["run", "--family", "qaoa", "--init", "linear", "--dt", "inf", "--instance", "inst.json",
      "--shots", "4", "--iters", "2", "--out", "t.jsonl"], 1),
    ("random init with an infinite upper bound", {},
     ["run", "--init-high", "inf", "--instance", "inst.json", "--shots", "4", "--iters", "2",
      "--out", "t.jsonl"], 1),
    ("gradient descent with a NaN learning rate", {},
     ["run", "--optimizer", "gd-paramshift", "--eta", "nan", "--instance", "inst.json",
      "--shots", "4", "--iters", "2", "--out", "t.jsonl"], 1),
    ("hill climb with an infinite step norm", {},
     ["run", "--optimizer", "hillclimb", "--step-norm", "inf", "--instance", "inst.json",
      "--shots", "4", "--iters", "2", "--out", "t.jsonl"], 1),
    ("depth sweep with a NaN dt", {},
     ["depth-sweep", "--dt", "nan", "--depths", "1", "--sizes", "4", "--out", "o"], 1),
    ("noise with a NaN T1", {"noise.json": '{"t1_us": NaN, "t2_us": 70}'}, _RUN_NOISY, 1),
    ("baseline of a negative size", {}, ["baseline", "--size", "-1", "--calls", "2"], 1),
    ("report in an unknown format", {"sweeps/sweep_L4.json": _bad_sweep_result()},
     ["report", "--in", "sweeps", "--format", "pdf", "--out", "r"], 2),
    ("report in csv and an unknown format", {"sweeps/sweep_L4.json": _bad_sweep_result()},
     ["report", "--in", "sweeps", "--format", "csv,pdf", "--out", "r"], 2),
    ("run with a negative seed", {},
     ["run", "--instance", "inst.json", "--shots", "4", "--iters", "2", "--seed", "-1",
      "--out", "t.jsonl"], 2),
    ("sweep with a negative seed", {"spec.json": _bad_sweep_spec()},
     ["sweep", "--spec", "spec.json", "--grid", "grid.json", "--reps", "2", "--seed", "-1",
      "--out", "o"], 2),
    ("depth sweep with a negative seed", {},
     ["depth-sweep", "--depths", "1", "--sizes", "4", "--seed", "-3", "--out", "o"], 2),
    ("disordered instance with a negative seed", {},
     ["gen-instance", "--kind", "disordered", "--size", "4", "--seed", "-1", "--out", "i.json"],
     2),
    ("disordered instance with a seed of 2^128", {},
     ["gen-instance", "--kind", "disordered", "--size", "4", "--seed", str(1 << 128),
      "--out", "i.json"], 1),
    ("disordered depth sweep with a negative instance seed", {},
     ["depth-sweep", "--depths", "1", "--sizes", "4", "--kind", "disordered",
      "--instance-seeds", "-2", "--out", "o"], 1),
    ("sweep spec with a negative instance seed",
     {"spec.json": _bad_sweep_spec(kind="disordered", instance_seeds=[-5])},
     ["sweep", "--spec", "spec.json", "--grid", "grid.json", "--reps", "2", "--out", "o"], 1),
    ("disordered depth sweep with a repeated instance seed", {},
     ["depth-sweep", "--depths", "1", "--sizes", "4", "--kind", "disordered",
      "--instance-seeds", "3,3", "--out", "o"], 1),
    ("sweep spec with a repeated instance seed",
     {"spec.json": _bad_sweep_spec(kind="disordered", instance_seeds=[2, 5, 2])},
     ["sweep", "--spec", "spec.json", "--grid", "grid.json", "--reps", "2", "--out", "o"], 1),
    ("grid with a repeated cell",
     {"spec.json": _bad_sweep_spec(), "grid.json": {"shots": [16, 16], "iters": [2]}},
     ["sweep", "--spec", "spec.json", "--grid", "grid.json", "--reps", "2", "--out", "o"], 1),
    ("grid with a repeated n_iter",
     {"spec.json": _bad_sweep_spec(), "grid.json": {"shots": [4], "iters": [2, 0, 2]}},
     ["sweep", "--spec", "spec.json", "--grid", "grid.json", "--reps", "2", "--out", "o"], 1),
    ("depth sweep with a repeated size", {},
     ["depth-sweep", "--depths", "1", "--sizes", "4,4", "--out", "o"], 1),
    ("depth sweep with a repeated depth", {},
     ["depth-sweep", "--depths", "1,2,1", "--sizes", "4", "--out", "o"], 1),
]


# the stderr line of these cases must name the rule that was broken
_BAD_INPUT_MESSAGES = {
    "linear init for vqe": "the linear schedule only applies to qaoa",
    "zero threads": "--threads must be >= 1",
    "negative threads": "--threads must be >= 1",
    "fit over a missing directory": "no sweep_*.json files in nowhere",
    "fit over a directory without sweeps": "no sweep_*.json files in sweeps",
    "report on a sweep cell of zero repetitions": "repetitions must be >= 1",
    "fit on a sweep cell of zero repetitions": "repetitions must be >= 1",
    "report over a directory with a sweep cell of zero repetitions":
        "sweeps/sweep_bad.json.cells[0]: repetitions must be >= 1",
    "report on a sweep cell of zero calls per iteration": "calls_per_iter must be >= 1",
    "report on a fit with a zero point": "every n_calls* in points must be positive",
    "linear init with a NaN dt": "dt must be positive and finite, got nan",
    "depth sweep with a NaN dt": "dt must be positive and finite, got nan",
    "noise with a NaN T1": "T1 and T2 must be positive",
    "baseline of a negative size": "size must be >= 1",
    "report in an unknown format": "unknown format 'pdf'",
    "report in csv and an unknown format": "unknown format 'pdf'",
    "run with a negative seed": "seed must be >= 0, got -1",
    "sweep with a negative seed": "seed must be >= 0, got -1",
    "depth sweep with a negative seed": "seed must be >= 0, got -3",
    "disordered instance with a negative seed": "seed must be >= 0, got -1",
    "disordered instance with a seed of 2^128": "seeds must be in [0, 2^128)",
    "disordered depth sweep with a negative instance seed":
        "seeds must be in [0, 2^128), got -2",
    "sweep spec with a negative instance seed": "seeds must be in [0, 2^128), got -5",
    "disordered depth sweep with a repeated instance seed":
        "instance seeds must differ, got [3, 3]",
    "sweep spec with a repeated instance seed": "instance seeds must differ, got [2, 5, 2]",
    "grid with a repeated cell": "grid shots must differ, got [16, 16]",
    "grid with a repeated n_iter": "grid iters must differ, got [2, 0, 2]",
    "depth sweep with a repeated size": "depth sweep sizes must differ, got [4, 4]",
    "depth sweep with a repeated depth": "depth sweep depths must differ, got [1, 2, 1]",
}


@pytest.mark.parametrize("case, files, argv, code", _BAD_INPUTS,
                         ids=[row[0] for row in _BAD_INPUTS])
def test_bad_input_exits_with_one_stderr_line(tmp_path, case, files, argv, code):
    run_cli("gen-instance", "--kind", "ferro", "--size", "4", "--out", str(tmp_path / "inst.json"))
    (tmp_path / "grid.json").write_text(json.dumps({"shots": [4], "iters": [2]}))
    for name, content in files.items():  # a string is written as is, so it may be bad JSON
        (tmp_path / name).parent.mkdir(exist_ok=True)
        (tmp_path / name).write_text(content if isinstance(content, str) else json.dumps(content))

    src = str(Path(__file__).resolve().parents[1] / "src")
    proc_env = {**os.environ,
                "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run([sys.executable, "-m", "vqopt", *argv], cwd=tmp_path, env=proc_env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == code, proc.stderr
    assert "Traceback" not in proc.stderr
    assert len(proc.stderr.strip().splitlines()) == 1, proc.stderr
    assert _BAD_INPUT_MESSAGES.get(case, "") in proc.stderr
