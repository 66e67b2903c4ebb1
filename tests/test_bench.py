"""Smoke test of ``bench/prepare_state.py``, run as part of the unit suite.

The bench script reaches into the package (plan steps, gate names,
constructors) to build its rows.  An internal rename breaks it without
failing any other test, so every kind of row it times is built and called
once here, at a small size and with no timing.
"""

import importlib.util
from pathlib import Path

import vqopt

SCRIPT = Path(__file__).resolve().parents[1] / "bench" / "prepare_state.py"


def load_bench():
    spec = importlib.util.spec_from_file_location("prepare_state_bench", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_bench_row_kind_runs_at_small_size():
    bench = load_bench()
    kinds = {}  # (layer, family, noise, batch points) -> depth
    for layer, family, noisy, _size, depth, *points in bench.table_rows():
        kinds.setdefault((layer, family, noisy, *points), depth)
    assert {kind[0] for kind in kinds} == {"prepare_state", "prepare_batch", "ry_layer",
                                           "rotation", "mixer_layer", "phase", "energy_table"}
    for (layer, family, noisy, *points), depth in kinds.items():
        case = bench.make_case(vqopt, layer, family, noisy, 5, depth and min(depth, 2), *points)
        case()
