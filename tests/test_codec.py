import json

import pytest

from vqopt import experiment as exp, optimizer as opt, simulator as sim
from vqopt.codec import Record, check_fields
from vqopt.errors import SchemaError

_NOISE = sim.NoiseModel(t1_us=50.0, t2_us=70.0, t1q_ns=40.0)
_CELL = exp.CellResult(shots=8, iters=3, repetitions=4, budget_calls=24, calls_per_iter=8,
                       hit_calls=[[8, 16], [24]], psucc_hits=[1, 0])
_SWEEP = exp.SweepResult(exp.ProblemSpec("vqe-ry-cnot", 4, 1, "disordered", (3, 5)),
                         opt.HillClimbConfig(), 0.25, 4, 7, True, [_CELL], noise=_NOISE)
_CONFIGS = [opt.TrustRegionConfig(initial_radius=0.5), opt.HillClimbConfig(step_norm=0.05),
            opt.GradientDescentConfig(gradient="finite-diff", shots_per_circuit=5)]
_DEPTH_CELL = exp.DepthCell(size=4, depth=2, p_gs=[0.25, 0.5], fsucc=[0.75, 1.0])

# (record, a required field, a mistyped field and its bad value, a constant tag and a wrong value)
_RECORDS = [
    (_NOISE, "t2_us", ("t1_us", "50"), None),
    (opt.IterationRecord(3, -1.25, -2.5, 24), "f_min", ("n_calls", 24.0), ("record", "summary")),
    (_CONFIGS[0], None, ("final_radius", True), ("name", "hill-climb")),
    (_CONFIGS[1], None, ("step_norm", [0.05]), ("name", "trust-region-dfo")),
    (_CONFIGS[2], None, ("shots_per_circuit", 1.5), ("name", "gd")),
    (exp.InitSpec("linear", dt=0.6), None, ("dt", None), None),
    (exp.ProblemSpec("qaoa", 6, 2, "disordered", (3, 5), exp.InitSpec("zeros")), "family",
     ("instance_seeds", ["3"]), None),
    (_CELL, "hit_calls", ("hit_calls", [[8.0]]), None),
    (_SWEEP, "cells", ("final_probe", 1), ("schema_version", 2)),
    (exp.ScalingFit(points=[(6, 10.0), (8, 40.0)], amplitude=0.5, exponent=0.4, l_min=6,
                    residuals=[0.0, -0.0], target=0.25),
     "points", ("points", [[6, 10.0, 1.0]]), ("result_type", "sweep")),
    (_DEPTH_CELL, "p_gs", ("size", 4.0), None),
    (exp.DepthSweepResult(kind="disordered", dt=0.8, shots=8, repetitions=20, master_seed=3,
                          instance_seeds=(2, 7), cells=[_DEPTH_CELL]),
     "cells", ("instance_seeds", 2), ("result_type", "fit")),
]
_IDS = [type(row[0]).__name__ for row in _RECORDS]


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def test_table_covers_every_record():
    assert set(_IDS) == {cls.__name__ for cls in _subclasses(Record)}


@pytest.mark.parametrize("record, required, mistyped, tag", _RECORDS, ids=_IDS)
def test_record_codec(record, required, mistyped, tag):
    cls = type(record)
    obj = json.loads(json.dumps(record.to_json()))
    assert cls.from_json(obj) == record

    with pytest.raises(SchemaError, match="unknown"):
        cls.from_json({**obj, "comment": "x"})
    if required is not None:
        with pytest.raises(SchemaError, match=required):
            cls.from_json({k: v for k, v in obj.items() if k != required})
    name, bad = mistyped
    with pytest.raises(SchemaError, match=name):
        cls.from_json({**obj, name: bad})
    if tag is not None:
        name, bad = tag
        with pytest.raises(SchemaError, match=name):
            cls.from_json({**obj, name: bad})
        with pytest.raises(SchemaError, match=name):
            cls.from_json({k: v for k, v in obj.items() if k != name})
    with pytest.raises(SchemaError, match="JSON object"):
        cls.from_json([obj])


def test_absent_fields_take_defaults_and_ints_read_as_floats():
    noise = sim.NoiseModel.from_json({"t1_us": 50, "t2_us": 70})
    assert noise == sim.NoiseModel(t1_us=50.0, t2_us=70.0, t1q_ns=50.0, t2q_ns=300.0)
    assert all(type(v) is float for v in noise.to_json().values())
    assert opt.TrustRegionConfig.from_json({"name": "trust-region-dfo"}) == opt.TrustRegionConfig()


def test_nested_errors_name_their_path():
    with pytest.raises(SchemaError, match=r"spec\.init\.dt must be float, got str"):
        check_fields({"init": {"mode": "linear", "dt": "fast"}},
                     {"init": exp.InitSpec}, "spec")
    with pytest.raises(SchemaError, match=r"x\.hit_calls\[1\]\[0\] must be int, got bool"):
        exp.CellResult.from_json({**_CELL.to_json(), "hit_calls": [[8], [True]]}, "x")


@pytest.mark.parametrize("config", _CONFIGS, ids=[config.name for config in _CONFIGS])
def test_union_of_records_reads_the_record_its_tag_names(config):
    obj = json.loads(json.dumps(config.to_json()))
    hints = {"optimizer": opt.OptimizerConfig}
    assert check_fields({"optimizer": obj}, hints, "spec") == {"optimizer": config}


# (value of a field declared as a union of records, the SchemaError it raises)
_BAD_UNION_VALUES = [
    ({"name": "gd"}, r"unknown spec\.optimizer name 'gd'"),
    ({"name": ["hill-climb"]}, r"unknown spec\.optimizer name \['hill-climb'\]"),
    ({"step_norm": 0.1}, r"unknown spec\.optimizer name None"),
    (["hill-climb"], r"spec\.optimizer must be a JSON object, got list"),
    ("hill-climb", r"spec\.optimizer must be a JSON object, got str"),
    ({"name": "hill-climb", "learning_rate": 0.1},
     r"unknown spec\.optimizer field\(s\): learning_rate"),
]


@pytest.mark.parametrize("value, message", _BAD_UNION_VALUES,
                         ids=[json.dumps(row[0]) for row in _BAD_UNION_VALUES])
def test_union_of_records_refuses_what_no_record_tags(value, message):
    with pytest.raises(SchemaError, match=message):
        check_fields({"optimizer": value}, {"optimizer": opt.OptimizerConfig}, "spec")


def test_a_value_the_record_refuses_is_a_schema_error_naming_its_path():
    bad = {"name": "trust-region-dfo", "initial_radius": 1e-5}
    with pytest.raises(SchemaError, match=r"spec\.optimizer: radii must satisfy"):
        check_fields({"optimizer": bad}, {"optimizer": opt.OptimizerConfig}, "spec")
    with pytest.raises(SchemaError, match=r"x: alpha must be in \(0, 1\], got 7\.5"):
        exp.SweepResult.from_json({**_SWEEP.to_json(), "cost_alpha": 7.5}, "x")
