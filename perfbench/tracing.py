"""Per-layer spans around the calls into each vqopt module, from outside the package.

A span wraps one public function at the place its caller looks the name
up: functions imported by name (``estimator.prepare_state``,
``optimizer.cost``, ``ansatz.energy_table``, ...) are replaced in the
importing module, and functions reached through a module attribute
(``simulator.apply_ry``, ``optimizer.run``, ...) in their own module.
Gate-level calls run at ~1e5 per second, so spans are not stored: each
name aggregates its call count, busy time and self time (busy time minus
the time its child spans cover).  Per-call durations are kept only for
``prepare_state`` and ``optimizer.run``, whose percentiles are reported.
"""

from __future__ import annotations

import time
import weakref
from collections import Counter

import numpy as np

from vqopt import ansatz, cli, estimator, experiment, ising, optimizer, report, simulator
from vqopt.ansatz import FAMILY_QAOA, FAMILY_VQE

GATES = ("ry", "rx", "cnot", "diagonal")


class Tracer:
    """Aggregated spans and counts of one or more traced executions."""

    def __init__(self) -> None:
        self.calls: Counter = Counter()
        self.busy: Counter = Counter()
        self.self_time: Counter = Counter()
        self.durations: dict[str, list[float]] = {"ansatz.prepare_state": [], "optimizer.run": []}
        self.preps: Counter = Counter()  # (family, L, d, noisy) -> state preparations
        self.shots_drawn = 0  # bitstrings returned by simulator.sample_shots
        self.shots_accounted = 0  # sum of n_calls + probe_shots over optimizer.run traces
        self.evals = 0  # cost evaluations recorded by optimizer.run traces
        self.report_bytes = 0
        self.table_builds = 0
        self._tabled: dict[int, weakref.ref] = {}  # instances are unhashable, so key by id
        self._stack: list[float] = []
        self._installed: list[tuple[object, str, object]] = []

    def span(self, name: str, fn, after=None):
        calls, busy, self_time, stack = self.calls, self.busy, self.self_time, self._stack
        durations = self.durations.get(name)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                children = stack.pop()
                if stack:
                    stack[-1] += elapsed
                calls[name] += 1
                busy[name] += elapsed
                self_time[name] += elapsed - children
                if durations is not None:
                    durations.append(elapsed)
            if after is not None:
                after(out, *args, **kwargs)
            return out

        return traced

    # --- counts taken at the span boundaries --------------------------------

    def _on_prepare(self, state, spec, theta, noise=None, rng=None) -> None:
        self.preps[(spec.family, spec.size, spec.depth, noise is not None)] += 1

    def _on_sample(self, bitstrings, *args, **kwargs) -> None:
        self.shots_drawn += len(bitstrings)

    def _on_run(self, trace, *args, **kwargs) -> None:
        self.shots_accounted += trace.n_calls + trace.probe_shots
        self.evals += len(trace.records)

    def _on_table(self, table, instance) -> None:
        # the table is cached on the instance object, so a build is a first sight
        seen = self._tabled.get(id(instance))
        if seen is None or seen() is not instance:
            self._tabled[id(instance)] = weakref.ref(instance)
            self.table_builds += 1

    def _on_report(self, paths, *args, **kwargs) -> None:
        self.report_bytes += sum(p.stat().st_size for p in paths)

    # --- installation ---------------------------------------------------------

    def _targets(self):
        """(span name, owners to patch, attribute, after-hook)."""
        return [
            ("ising.energy_table", (ising, ansatz, estimator, optimizer), "energy_table",
             self._on_table),
            ("ising.brute_force", (ising, experiment, report), "brute_force_minimum", None),
            ("ansatz.prepare_state", (ansatz, estimator), "prepare_state", self._on_prepare),
            ("simulator.gate.ry", (simulator,), "apply_ry", None),
            ("simulator.gate.rx", (simulator,), "apply_rx", None),
            ("simulator.gate.cnot", (simulator,), "apply_cnot", None),
            ("simulator.gate.diagonal", (simulator,), "apply_diagonal_phase", None),
            ("simulator.apply_gate", (simulator,), "apply_gate", None),
            ("simulator.noise", (simulator,), "apply_noisy_gate", None),
            ("simulator.sample_shots", (simulator,), "sample_shots", self._on_sample),
            ("estimator.cost", (estimator, optimizer), "cost", None),
            ("estimator.observe", (estimator.MinimumTracker,), "observe", None),
            ("optimizer.run", (optimizer,), "run", self._on_run),
            ("experiment.success_sweep", (experiment,), "success_sweep", None),
            ("experiment.depth_sweep", (experiment,), "depth_sweep", None),
            ("experiment.save_result", (experiment,), "save_result", None),
            ("report", (report,), "report_sweep", self._on_report),
            ("report", (report,), "report_depth_sweep", self._on_report),
            ("cli.dispatch", (cli,), "dispatch", None),
        ]

    def install(self) -> None:
        for name, owners, attr, after in self._targets():
            # one wrapper per original function, shared by every owner that imported it
            wrapped: dict[int, object] = {}
            for owner in owners:
                original = getattr(owner, attr)
                if id(original) not in wrapped:
                    wrapped[id(original)] = self.span(name, original, after)
                self._installed.append((owner, attr, original))
                setattr(owner, attr, wrapped[id(original)])

    def uninstall(self) -> None:
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()


def computed_kernels(preps: Counter) -> dict[str, int]:
    """Logical gates, noisy relaxations and amplitude updates from circuit structure.

    Counted per state preparation from the ansatz definitions, so they stay
    fixed when a kernel change fuses or skips calls.  A one-qubit rotation
    or a diagonal phase updates 2^L amplitudes, a CNOT 2^(L-1).
    """
    out = Counter()
    for (family, size, depth, noisy), n in preps.items():
        dim = 1 << size
        if family == FAMILY_VQE:
            ry, cnot = size * (depth + 1), depth * (size - 1)
            gates = {"ry": ry, "cnot": cnot}
            relax = ry + 2 * cnot
            amps = ry * dim + cnot * dim // 2
        elif family == FAMILY_QAOA and not noisy:
            gates = {"rx": depth * size, "diagonal": depth}
            relax = 0
            amps = (depth * size + depth) * dim
        else:  # noisy QAOA: RZZ/RZ phase decomposition plus the RX mixer
            rzz, rz, rx = depth * (size - 1), depth * size, depth * size
            gates = {"rx": rx, "rz": rz, "rzz": rzz}
            relax = 2 * rzz + rz + rx
            amps = (rzz + rz + rx) * dim
        for kind, count in gates.items():
            out[f"gates.{kind}"] += n * count
        out["relaxations"] += n * relax if noisy else 0
        out["amp_updates"] += n * amps
    return out


def _pct(values: list[float], q: float, scale: float) -> float:
    return float(np.percentile(values, q)) * scale if values else 0.0


def layer_metrics(tr: Tracer, executions: int, runs_per_execution: int) -> dict[str, float]:
    """Per-layer metrics of one execution (totals divided by ``executions``)."""
    n = executions
    c = {k: v / n for k, v in tr.calls.items()}
    s = {k: v / n for k, v in tr.busy.items()}
    own = {k: v / n for k, v in tr.self_time.items()}
    comp = computed_kernels(tr.preps)
    gate_s = sum(s.get(f"simulator.gate.{g}", 0.0) for g in GATES)
    evals = tr.evals / n
    m = {
        "ising.energy_table.calls": c.get("ising.energy_table", 0),
        "ising.energy_table.builds": tr.table_builds / n,
        "ising.energy_table.s": s.get("ising.energy_table", 0.0),
        "ising.brute_force.s": own.get("ising.brute_force", 0.0),
        "ansatz.prepare_state.calls": c.get("ansatz.prepare_state", 0),
        "ansatz.prepare_state.s": s.get("ansatz.prepare_state", 0.0),
        "ansatz.prepare_state.self_s": own.get("ansatz.prepare_state", 0.0),
        "ansatz.prepare_state.us_p50": _pct(tr.durations["ansatz.prepare_state"], 50, 1e6),
        "ansatz.prepare_state.us_p99": _pct(tr.durations["ansatz.prepare_state"], 99, 1e6),
        "simulator.noise.calls": c.get("simulator.noise", 0),
        "simulator.noise.s": own.get("simulator.noise", 0.0),
        "simulator.sample_shots.calls": c.get("simulator.sample_shots", 0),
        "simulator.sample_shots.s": s.get("simulator.sample_shots", 0.0),
        "simulator.shots_drawn": tr.shots_drawn / n,
        "simulator.computed.relaxations": comp["relaxations"] / n,
        "simulator.computed.amp_updates": comp["amp_updates"] / n,
        "simulator.computed.amp_updates_per_s": comp["amp_updates"] / n / gate_s if gate_s else 0.0,
        "estimator.cost.calls": c.get("estimator.cost", 0),
        "estimator.cost.s": s.get("estimator.cost", 0.0),
        "estimator.observe.s": s.get("estimator.observe", 0.0),
        "optimizer.run.calls": c.get("optimizer.run", 0),
        "optimizer.run_ms.p50": _pct(tr.durations["optimizer.run"], 50, 1e3),
        "optimizer.run_ms.p99": _pct(tr.durations["optimizer.run"], 99, 1e3),
        "optimizer.evals": evals,
        "optimizer.self_s": own.get("optimizer.run", 0.0),
        "optimizer.self_us_per_eval": own.get("optimizer.run", 0.0) / evals * 1e6 if evals else 0.0,
        "experiment.success_sweep.s": s.get("experiment.success_sweep", 0.0),
        "experiment.depth_sweep.s": s.get("experiment.depth_sweep", 0.0),
        "experiment.self_s": own.get("experiment.success_sweep", 0.0)
        + own.get("experiment.depth_sweep", 0.0),
        "experiment.evals_per_run": evals / runs_per_execution if evals else 0.0,
        "experiment.save_result.s": s.get("experiment.save_result", 0.0),
        "report.s": s.get("report", 0.0),
        "report.bytes": tr.report_bytes / n,
        "cli.self_s": own.get("cli.dispatch", 0.0),
    }
    for g in GATES:
        m[f"simulator.gate.{g}.calls"] = c.get(f"simulator.gate.{g}", 0)
        m[f"simulator.gate.{g}.s"] = s.get(f"simulator.gate.{g}", 0.0)
        m[f"simulator.computed.gates.{g}"] = comp[f"gates.{g}"] / n
    return m
