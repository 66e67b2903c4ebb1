"""Smoke tests of the scripts under ``bench/``, run as part of the unit suite.

The bench scripts reach into the package (plan steps, gate names,
constructors, the sweep entry and its counters' targets) to build their
rows.  An internal rename breaks them without failing any other test, so
every kind of row ``bench/prepare_state.py`` times is built and called
once here, at a small size and with no timing, and ``bench/sweeps.py``
measures one small sweep against this tree.
"""

import importlib.util
from pathlib import Path

import vqopt

BENCH = Path(__file__).resolve().parents[1] / "bench"


def load_bench(script="prepare_state"):
    spec = importlib.util.spec_from_file_location(f"{script}_bench", BENCH / f"{script}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_bench_row_kind_runs_at_small_size():
    bench = load_bench()
    kinds = {}  # (layer, family, noise, batch points) -> depth
    for layer, family, noisy, _size, depth, *points in bench.table_rows():
        kinds.setdefault((layer, family, noisy, *points), depth)
    assert {kind[0] for kind in kinds} == {"prepare_state", "linear", "prepare_batch", "ry_layer",
                                           "rotation", "mixer_layer", "phase", "energy_table"}
    for (layer, family, noisy, *points), depth in kinds.items():
        case = bench.make_case(vqopt, layer, family, noisy, 5, depth and min(depth, 2), *points)
        case()


def test_sweep_bench_row_runs_and_compares_bytes():
    bench = load_bench("sweeps")
    row = bench.Row("tiny", "qaoa", 4, 1, (4, 16), False, 1)
    (entry,) = bench.measure({"parent": vqopt, "change": vqopt}, [row], repetitions=2, repeats=1)
    assert entry["bytes_equal"]
    assert entry["parent_states"] == entry["change_states"]
    # 2 M x 2 repetitions x 270 evaluations; the stalled trust region repeats points
    assert entry["change_sets"] == 2 * 2 * 270
    assert 0 < entry["change_states"] < entry["change_sets"]
    assert entry["change_s_p50"] > 0 and "change_over_parent" in entry
