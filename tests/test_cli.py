import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from vqopt.cli import build_parser, dispatch


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


def test_threads_env_fallback(monkeypatch):
    monkeypatch.setenv("VQOPT_THREADS", "3")
    parser = build_parser()
    args = parser.parse_args(["sweep", "--spec", "s", "--grid", "g", "--reps", "1",
                              "--out", "o"])
    assert args.threads == 3


def _bad_sweep_spec(**changes):
    spec = {"family": "qaoa", "size": 4, "depth": 1, "optimizer": {"name": "hill-climb"},
            "cost_alpha": 0.25}
    spec.update(changes)
    return spec


_RUN_NOISY = ["run", "--instance", "inst.json", "--noise", "noise.json", "--shots", "4",
              "--iters", "2", "--out", "t.jsonl"]

# (case, files to write into the working directory, argv, extra env, exit code)
_BAD_INPUTS = [
    ("unknown cost kind", {}, ["run", "--instance", "inst.json", "--cost", "cvarxx",
                               "--shots", "4", "--iters", "2", "--out", "t.jsonl"], {}, 2),
    ("non-integer VQOPT_THREADS", {"spec.json": _bad_sweep_spec()},
     ["sweep", "--spec", "spec.json", "--grid", "grid.json", "--reps", "2", "--out", "o"],
     {"VQOPT_THREADS": "abc"}, 2),
    ("misspelled spec field", {"spec.json": _bad_sweep_spec(cost_alfa=0.5)},
     ["sweep", "--spec", "spec.json", "--grid", "grid.json", "--reps", "2", "--out", "o"], {}, 1),
    ("misspelled optimizer field",
     {"spec.json": _bad_sweep_spec(optimizer={"name": "hill-climb", "step_nrom": 0.1})},
     ["sweep", "--spec", "spec.json", "--grid", "grid.json", "--reps", "2", "--out", "o"], {}, 1),
    ("exact-mode gradient sweep",
     {"spec.json": _bad_sweep_spec(optimizer={"name": "gradient-descent",
                                              "gradient": "finite-diff",
                                              "shots_per_circuit": None})},
     ["sweep", "--spec", "spec.json", "--grid", "grid.json", "--reps", "2", "--out", "o"], {}, 1),
    ("missing spec file", {},
     ["sweep", "--spec", "nope.json", "--grid", "grid.json", "--reps", "2", "--out", "o"], {}, 1),
    ("sweep result without cells",
     {"sweep.json": {"schema_version": 1, "result_type": "sweep",
                     "problem": {"family": "qaoa", "size": 4, "depth": 1},
                     "optimizer": {"name": "hill-climb"}, "cost_alpha": 0.25, "repetitions": 2,
                     "master_seed": 0, "final_probe": False, "noise": None}},
     ["report", "--in", "sweep.json", "--out", "r"], {}, 1),
    ("grid without iters", {"spec.json": _bad_sweep_spec(), "grid.json": {"shots": [4]}},
     ["sweep", "--spec", "spec.json", "--grid", "grid.json", "--reps", "2", "--out", "o"], {}, 1),
    ("grid without shots", {"spec.json": _bad_sweep_spec(), "grid.json": {"iters": [2]}},
     ["sweep", "--spec", "spec.json", "--grid", "grid.json", "--reps", "2", "--out", "o"], {}, 1),
    ("spec not JSON", {"spec.json": '{"family": "qaoa",'},
     ["sweep", "--spec", "spec.json", "--grid", "grid.json", "--reps", "2", "--out", "o"], {}, 1),
    ("grid not JSON", {"spec.json": _bad_sweep_spec(), "grid.json": '{"shots": [4], "iters"'},
     ["sweep", "--spec", "spec.json", "--grid", "grid.json", "--reps", "2", "--out", "o"], {}, 1),
    ("instance not JSON", {"inst.json": '{"L": 4, "coup'},
     ["run", "--instance", "inst.json", "--shots", "4", "--iters", "2", "--out", "t.jsonl"], {}, 1),
    ("noise not JSON", {"noise.json": "t1_us = 50"},
     ["run", "--instance", "inst.json", "--noise", "noise.json", "--shots", "4", "--iters", "2",
      "--out", "t.jsonl"], {}, 1),
    ("config not JSON", {"config.json": '{"seed": '},
     ["--config", "config.json", "baseline", "--size", "4", "--calls", "2"], {}, 1),
    ("config value of the wrong type", {"config.json": {"reps": "three"}},
     ["--config", "config.json", "depth-sweep", "--depths", "1", "--sizes", "4", "--out", "o"],
     {}, 2),
    ("unknown config key", {"config.json": {"repetitions": 3}},
     ["--config", "config.json", "baseline", "--size", "4", "--calls", "2"], {}, 2),
    ("config key abbreviating a flag", {"spec.json": _bad_sweep_spec(), "config.json": {"rep": 2}},
     ["--config", "config.json", "sweep", "--spec", "spec.json", "--grid", "grid.json",
      "--out", "o"], {}, 2),
    ("noise without t2_us", {"noise.json": {"t1_us": 5.0}}, _RUN_NOISY, {}, 1),
    ("noise with a mistyped t1_us", {"noise.json": {"t1_us": "50", "t2_us": 70.0}},
     _RUN_NOISY, {}, 1),
    ("noise with an unknown key", {"noise.json": {"t1_us": 50.0, "t2_us": 70.0, "t3_us": 1.0}},
     _RUN_NOISY, {}, 1),
    ("spec noise with an unknown key",
     {"spec.json": _bad_sweep_spec(noise={"t1_us": 50.0, "t2_us": 70.0, "t1q_ns": 50.0,
                                          "t2q_ns": 300.0, "gate_ns": 20.0})},
     ["sweep", "--spec", "spec.json", "--grid", "grid.json", "--reps", "2", "--out", "o"], {}, 1),
    ("instance with a mistyped L",
     {"inst.json": {"L": "abc", "couplings": [1.0], "fields": [0.0, 0.0]}},
     ["run", "--instance", "inst.json", "--shots", "4", "--iters", "2", "--out", "t.jsonl"], {}, 1),
    ("instance with an unknown key",
     {"inst.json": {"L": 2, "couplings": [1.0], "fields": [0.0, 0.0], "size": 2}},
     ["run", "--instance", "inst.json", "--shots", "4", "--iters", "2", "--out", "t.jsonl"], {}, 1),
    ("instance of an unknown kind",
     {"inst.json": {"L": 2, "couplings": [1.0], "fields": [0.0, 0.0], "kind": "bogus"}},
     ["run", "--instance", "inst.json", "--shots", "4", "--iters", "2", "--out", "t.jsonl"], {}, 1),
    ("depth sweep with zero repetitions", {},
     ["depth-sweep", "--depths", "1", "--sizes", "4", "--reps", "0", "--out", "o"], {}, 1),
    ("depth sweep with zero shots", {},
     ["depth-sweep", "--depths", "1", "--sizes", "4", "--shots", "0", "--out", "o"], {}, 1),
    ("disordered depth sweep without seeds", {},
     ["depth-sweep", "--depths", "1", "--sizes", "4", "--kind", "disordered",
      "--instance-seeds=", "--out", "o"], {}, 1),
    ("depth sweep result with an empty cell",
     {"depth.json": {"schema_version": 1, "result_type": "depth-sweep", "kind": "disordered",
                     "dt": 0.8, "shots": 4, "repetitions": 2, "master_seed": 0,
                     "instance_seeds": [], "cells": [{"size": 4, "depth": 1, "p_gs": [],
                                                      "fsucc": []}]}},
     ["report", "--in", "depth.json", "--out", "r"], {}, 1),
    ("init field its mode does not use",
     {"spec.json": _bad_sweep_spec(init={"mode": "linear", "low": 0.0, "high": 0.1})},
     ["sweep", "--spec", "spec.json", "--grid", "grid.json", "--reps", "2", "--out", "o"], {}, 1),
]


@pytest.mark.parametrize("case, files, argv, env, code", _BAD_INPUTS,
                         ids=[row[0] for row in _BAD_INPUTS])
def test_bad_input_exits_with_one_stderr_line(tmp_path, case, files, argv, env, code):
    run_cli("gen-instance", "--kind", "ferro", "--size", "4", "--out", str(tmp_path / "inst.json"))
    (tmp_path / "grid.json").write_text(json.dumps({"shots": [4], "iters": [2]}))
    for name, content in files.items():  # a string is written as is, so it may be bad JSON
        (tmp_path / name).write_text(content if isinstance(content, str) else json.dumps(content))

    src = str(Path(__file__).resolve().parents[1] / "src")
    proc_env = {**os.environ, **env,
                "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run([sys.executable, "-m", "vqopt", *argv], cwd=tmp_path, env=proc_env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == code, proc.stderr
    assert "Traceback" not in proc.stderr
    assert len(proc.stderr.strip().splitlines()) == 1, proc.stderr
