"""Command-line entry point.

One binary with subcommands; structured logs go to stderr, data goes to
files under ``--out`` (the ``baseline`` probability is the only result
printed to stdout).  Exit codes: 0 success, 1 domain error, 2 usage error.
"""

from __future__ import annotations

import argparse
import logging
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import ansatz as anz
from . import experiment as exp
from . import ising
from . import optimizer as opt
from . import report as rpt
from .codec import read_json
from .errors import DomainError, SchemaError, VqoptError
from .estimator import CostKind
from .simulator import NoiseModel

LOGGER = logging.getLogger("vqopt")

_KINDS = {"ferro": ising.FERROMAGNETIC, "ferromagnetic": ising.FERROMAGNETIC,
          "disordered": ising.DISORDERED}


def _int_list(text: str) -> list[int]:
    return [int(part) for part in text.split(",") if part]


def _optimizer_config(name: str, args) -> opt.OptimizerConfig:
    if name == "cobyla":
        return opt.TrustRegionConfig()
    if name == "hillclimb":
        return opt.HillClimbConfig(step_norm=args.step_norm)
    if name in ("gd-paramshift", "gd-finitediff"):
        return opt.GradientDescentConfig(
            learning_rate=args.eta,
            gradient="param-shift" if name == "gd-paramshift" else "finite-diff",
            step=args.eps,
            shots_per_circuit=args.grad_shots,
        )
    raise VqoptError(f"unknown optimizer {name!r}")


def _cost_kind(text: str) -> CostKind:
    if text == "mean":
        return CostKind(1.0)
    if text.startswith("cvar"):
        return CostKind(float(text[4:]) / 100.0)
    raise DomainError("use mean or cvarNN")


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as one stderr line and exit code 2, and takes a
    long flag only when spelled in full (so does a ``--config`` key)."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, allow_abbrev=False, **kwargs)

    def error(self, message: str):
        self.exit(2, f"{self.prog}: error: {message}\n")


def _cmd_gen_instance(args) -> int:
    kind = _KINDS[args.kind]
    (instance,) = ising.make_instances(args.size, kind, (args.seed,))
    ising.save_instance(instance, args.out)
    LOGGER.info("wrote %s instance L=%d to %s", kind, args.size, args.out)
    return 0


def _cmd_run(args, parser) -> int:
    try:
        kind = _cost_kind(args.cost)
    except ValueError as exc:  # a DomainError, or a cvar suffix that is not a number
        parser.error(f"argument --cost: invalid value {args.cost!r} ({exc})")
    instance = ising.load_instance(args.instance)
    ground = ising.brute_force_minimum(instance)
    family = {"vqe": anz.FAMILY_VQE, "qaoa": anz.FAMILY_QAOA}[args.family]
    spec = anz.AnsatzSpec(
        family, instance.size, args.depth,
        instance=instance if family == anz.FAMILY_QAOA else None,
    )
    config = _optimizer_config(args.optimizer, args)
    noise = None if args.noise is None else NoiseModel.from_json(read_json(args.noise), "noise")
    rng = np.random.default_rng(args.seed)
    if args.init == "linear":
        theta0 = anz.init_linear_schedule(args.depth, args.dt)
    else:
        theta0 = anz.init_random(spec, rng, args.init_low, args.init_high)
    trace = opt.run(
        spec, instance, ground, config, kind, args.shots, args.iters, theta0,
        noise=noise, rng=rng, final_probe=args.final_probe,
    )
    echo = {
        "instance": ising.to_json(instance),
        "ansatz": spec.to_json(),
        "optimizer": config.to_json(),
        "cost": args.cost,
        "shots": args.shots,
        "iters": args.iters,
        "seed": args.seed,
        "init": args.init,
        "noise": None if noise is None else noise.to_json(),
    }
    opt.write_trace(args.out, trace, echo)
    LOGGER.info(
        "run finished: success=%s f_min=%s n_calls=%d -> %s",
        trace.success, trace.f_min, trace.n_calls, args.out,
    )
    return 0


def _cmd_sweep(args, parser) -> int:
    if args.reps < 1:
        parser.error("--reps must be >= 1")
    problem, config, kind, noise = exp.sweep_spec_from_json(read_json(args.spec))
    grid = exp.grid_from_json(read_json(args.grid))
    sweep = exp.success_sweep(
        problem, config, kind, grid, args.reps, args.seed,
        threads=args.threads, noise=noise, final_probe=args.final_probe,
    )
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    path = out / f"sweep_L{problem.size}.json"
    exp.save_result(sweep, path)
    LOGGER.info("sweep with %d cells written to %s", len(sweep.cells), path)
    return 0


def _cmd_fit(args) -> int:
    in_dir = Path(getattr(args, "in"))
    points = []
    for path in sorted(in_dir.glob("sweep_*.json")):
        sweep = exp.load_result(path)
        best = exp.optimal_calls(sweep, args.target)
        if best.reached:
            points.append((sweep.problem.size, float(best.n_calls)))
        else:
            LOGGER.warning("target %.3g unreached at L=%d", args.target, sweep.problem.size)
    fit = exp.fit_scaling(points, l_min=args.lmin, target=args.target)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    exp.save_result(fit, out / "fit.json")
    LOGGER.info("fit: a=%.4g k=%.4g over %d points", fit.amplitude, fit.exponent, len(points))
    return 0


def _cmd_baseline(args) -> int:
    prob = exp.random_search_baseline(args.size, args.g, args.calls)
    print(f"{prob:.4f}")
    return 0


def _cmd_depth_sweep(args) -> int:
    kind = _KINDS[args.kind]
    seeds = tuple(args.instance_seeds)
    result = exp.depth_sweep(
        sizes=args.sizes, depths=args.depths, dt=args.dt, shots=args.shots,
        repetitions=args.reps, master_seed=args.seed, kind=kind, instance_seeds=seeds,
    )
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    exp.save_result(result, out / "depth_sweep.json")
    LOGGER.info("depth sweep with %d cells written to %s", len(result.cells), args.out)
    return 0


def _cmd_report(args) -> int:
    in_path = Path(getattr(args, "in"))
    formats = tuple(args.format.split(","))
    paths = sorted(in_path.glob("*.json")) if in_path.is_dir() else [in_path]
    written = []
    for path in paths:
        try:
            result = exp.load_result(path)
        except VqoptError:
            LOGGER.debug("skipping %s (not a result file)", path)
            continue
        written += rpt.report_any(result, args.out, formats)
    if not written:
        raise VqoptError(f"no reportable results under {in_path}")
    for path in written:
        LOGGER.info("wrote %s", path)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="vqopt",
        description="Shot-noise-aware benchmarks for variational quantum optimization",
    )
    parser.add_argument("--config", help="JSON file with default flag values")
    parser.add_argument("-v", "--verbose", action="store_true")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-instance", help="write an Ising instance JSON")
    p.add_argument("--kind", choices=sorted(_KINDS), required=True)
    p.add_argument("--size", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)

    p = sub.add_parser("run", help="one optimization run, JSON-lines trace")
    p.add_argument("--instance", required=True)
    p.add_argument("--family", choices=["vqe", "qaoa"], default="vqe")
    p.add_argument("--depth", type=int, default=1)
    p.add_argument("--optimizer",
                   choices=["cobyla", "hillclimb", "gd-paramshift", "gd-finitediff"],
                   default="cobyla")
    p.add_argument("--cost", default="cvar25", help="mean or cvarNN (percent)")
    p.add_argument("--shots", type=int, required=True)
    p.add_argument("--iters", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--init", choices=["random", "linear"], default="random")
    p.add_argument("--init-low", type=float, default=-math.pi)
    p.add_argument("--init-high", type=float, default=math.pi)
    p.add_argument("--dt", type=float, default=0.8)
    p.add_argument("--step-norm", type=float, default=0.03)
    p.add_argument("--eta", type=float, default=0.1)
    p.add_argument("--eps", type=float, default=0.5)
    p.add_argument("--grad-shots", type=int, default=8)
    p.add_argument("--noise", help="NoiseModel JSON file")
    p.add_argument("--final-probe", action="store_true")
    p.add_argument("--out", required=True)

    p = sub.add_parser("sweep", help="(M, n_iter) success-probability grid")
    p.add_argument("--spec", required=True, help="problem+optimizer JSON")
    p.add_argument("--grid", required=True, help='JSON {"shots": [...], "iters": [...]}')
    p.add_argument("--reps", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--threads", type=int, default=os.environ.get("VQOPT_THREADS", "1"))
    p.add_argument("--final-probe", action="store_true")
    p.add_argument("--out", required=True)

    p = sub.add_parser("fit", help="fit n_calls* = a 2^(kL) over sweep files")
    p.add_argument("--in", dest="in", required=True)
    p.add_argument("--lmin", type=int, default=8)
    p.add_argument("--target", type=float, default=0.25)
    p.add_argument("--out", required=True)

    p = sub.add_parser("baseline", help="random-search success probability")
    p.add_argument("--size", type=int, required=True)
    p.add_argument("--g", type=int, default=1)
    p.add_argument("--calls", type=int, required=True)

    p = sub.add_parser("depth-sweep", help="linear-init F_succ over (L, d)")
    p.add_argument("--dt", type=float, default=0.8)
    p.add_argument("--depths", type=_int_list, required=True)
    p.add_argument("--sizes", type=_int_list, required=True)
    p.add_argument("--shots", type=int, default=16)
    p.add_argument("--reps", type=int, default=200)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--kind", choices=sorted(_KINDS), default="ferro")
    p.add_argument("--instance-seeds", type=_int_list, default=[0])
    p.add_argument("--out", required=True)

    p = sub.add_parser("report", help="CSV tables and SVG figures from results")
    p.add_argument("--in", dest="in", required=True)
    p.add_argument("--format", default="csv,svg")
    p.add_argument("--out", required=True)

    return parser


def _with_config(argv: list[str]) -> list[str]:
    """Splice the ``--config`` file in as flags right after the subcommand.

    Each key becomes ``--key=value`` (a list joins with commas; a
    ``store_true`` flag takes true or false), so argparse converts and
    checks it like a typed flag and can meet a required flag with it.  The
    command line's own flags come later and so win.  An unknown key is a
    usage error.
    """
    pre = argparse.ArgumentParser(add_help=False, allow_abbrev=False)
    pre.add_argument("--config")
    known, _ = pre.parse_known_args(argv)
    if not known.config:
        return argv
    values = read_json(known.config)
    if not isinstance(values, dict):
        raise SchemaError(f"{known.config} must hold a JSON object")
    tokens = []
    for key, value in values.items():
        flag = "--" + key.replace("_", "-")
        if value is True:
            tokens.append(flag)
        elif isinstance(value, list):
            tokens.append(f"{flag}={','.join(str(v) for v in value)}")
        elif value is not False and value is not None:
            tokens.append(f"{flag}={value}")
    command = next(
        (k for k, a in enumerate(argv) if not a.startswith("-") and a != known.config), len(argv)
    )
    return argv[: command + 1] + tokens + argv[command + 1 :]


def dispatch(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    logging.basicConfig(
        stream=sys.stderr, level=logging.INFO, format="%(levelname)s %(name)s: %(message)s"
    )
    parser = build_parser()
    try:
        args = parser.parse_args(_with_config(argv))
        if args.verbose:
            logging.getLogger().setLevel(logging.DEBUG)
        if args.command == "gen-instance":
            return _cmd_gen_instance(args)
        if args.command == "run":
            return _cmd_run(args, parser)
        if args.command == "sweep":
            return _cmd_sweep(args, parser)
        if args.command == "fit":
            return _cmd_fit(args)
        if args.command == "baseline":
            return _cmd_baseline(args)
        if args.command == "depth-sweep":
            return _cmd_depth_sweep(args)
        if args.command == "report":
            return _cmd_report(args)
        parser.error(f"unknown command {args.command!r}")
    except KeyboardInterrupt:
        LOGGER.error("interrupted; no partial result files were written")
        return 130
    except (VqoptError, OSError) as exc:
        LOGGER.error("%s", exc)
        return 1
    return 2


def main() -> None:
    sys.exit(dispatch())
