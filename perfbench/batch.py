"""Batch workloads: ``date-batch`` and ``imc2-auction``.

One caller runs a closed loop: it solves each of the run's seeded
worlds in turn, in whole rounds, until ``--seconds`` have passed.  A
solve is one public-API call on a ``Dataset`` (``DATE().run`` or
``IMC2(requirement_cap=0.8).run``); each builds its own index.

Solves are timed in CPU seconds of this process, which steal time on a
busy host does not inflate; wall-clock solve times are printed as
well.  Worlds differ in how many DATE iterations they take, so one
sample is a whole round: ``cpu_s_per_op`` is the median over rounds of
the mean CPU seconds per solve, and ``claims_per_cpu_s`` the median
over rounds of claims solved per CPU second.  At least two rounds
run, so every world is solved at least twice.
"""

from __future__ import annotations

import statistics
import time
import traceback
from dataclasses import dataclass, field

from . import layers
from .common import (
    Report,
    cpu_timed,
    derive_seeds,
    freeze_inputs,
    host_steal_s,
    make_world,
    self_peak_rss_mb,
)
from .stats import ErrorCount, Timing
from .tracing import Tracer


def _date_solve(world):
    from repro import DATE

    return DATE().run(world)


def _imc2_solve(world):
    from repro.mechanism.imc2 import IMC2

    return IMC2(requirement_cap=0.8).run(world)


def _imc2_checks(outcome, errors: ErrorCount) -> None:
    from repro.auction.properties import verify_individual_rationality

    errors.check(
        outcome.instance.is_covering(outcome.auction.winner_indexes),
        "imc2: winners cover every capped requirement",
    )
    errors.check(
        verify_individual_rationality(outcome.instance, outcome.auction),
        "imc2: individual rationality",
    )


@dataclass(frozen=True)
class BatchSpec:
    """One batch workload: its worlds and how a solve is run and checked."""

    name: str
    world: dict
    n_worlds: int
    salt: int
    solve: object
    output: object
    checks: object
    truth_of: object


DATE_BATCH = BatchSpec(
    name="date-batch",
    # 3x paper scale (Sec. VII-A): 900 tasks, 360 workers, 27k claims, 36 copiers.
    world=dict(n_tasks=900, n_workers=360, n_copiers=36, target_claims=27000),
    # Worlds take 3 to 7 DATE iterations, so solve costs differ between
    # worlds; ten of them keep a run's mean cost close across seeds.
    n_worlds=10,
    salt=1,
    solve=_date_solve,
    output=lambda result: result.truths,
    checks=None,  # precision is recorded, not gated
    truth_of=lambda result: result,
)

IMC2_AUCTION = BatchSpec(
    name="imc2-auction",
    # 2x paper scale: 600 tasks, 240 workers, 18k claims, 24 copiers.
    world=dict(n_tasks=600, n_workers=240, n_copiers=24, target_claims=18000),
    n_worlds=5,
    salt=2,
    solve=_imc2_solve,
    output=lambda outcome: (outcome.auction.winner_ids, outcome.auction.payments),
    checks=_imc2_checks,
    truth_of=lambda outcome: outcome.truth,
)


#: Every world is solved at least this often, so output identity is checked.
MIN_ROUNDS = 2


@dataclass
class _Pass:
    samples: list
    outputs: dict
    #: World index -> (precision vs ground truth, DATE iterations), first solve.
    firsts: dict
    rounds: int = 0
    #: Per round: mean CPU seconds per solve, claims per CPU second.
    round_cpu_s: list = field(default_factory=list)
    round_claims_per_cpu_s: list = field(default_factory=list)


def _measure(spec: BatchSpec, worlds, seconds: float, errors: ErrorCount,
             info: list, rounds: int | None = None) -> _Pass:
    """Solve every world in turn, in whole rounds, until time (or ``rounds``) is up.

    After :data:`MIN_ROUNDS`, another round starts only if it is
    expected to end within ``seconds``.
    """
    run = _Pass(samples=[], outputs={}, firsts={})
    start = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        solved, claims, cpu = 0, 0, 0.0
        for k, world in enumerate(worlds):
            try:
                result, seconds_taken, cpu_taken = cpu_timed(spec.solve, world)
            except Exception:  # a failed solve is counted, the loop goes on
                errors.op(False)
                info.append(f"# {spec.name}: solve of world {k} failed:\n"
                            + traceback.format_exc())
                continue
            errors.op(True)
            run.samples.append(seconds_taken)
            solved += 1
            claims += len(world.claims)
            cpu += cpu_taken
            if spec.checks is not None:
                spec.checks(result, errors)
            output = spec.output(result)
            if k in run.outputs:
                errors.check(output == run.outputs[k],
                             f"{spec.name}: world {k} gives the same output on every solve")
            else:
                run.outputs[k] = output
                truth = spec.truth_of(result)
                run.firsts[k] = (truth.precision(), truth.iterations)
        run.rounds += 1
        if solved:
            run.round_cpu_s.append(cpu / solved)
            run.round_claims_per_cpu_s.append(claims / cpu)
        now = time.perf_counter()
        if rounds is not None:
            if run.rounds >= rounds:
                return run
        elif run.rounds >= MIN_ROUNDS and now - start + (now - round_start) > seconds:
            return run


def run(spec: BatchSpec, seed: int, seconds: float, trace: bool) -> Report:
    errors = ErrorCount()
    report = Report(errors)
    worlds, gen_cpu = [], []
    for world_seed in derive_seeds(seed, spec.salt, spec.n_worlds):
        world, _, cpu_taken = cpu_timed(make_world, world_seed, spec.world)
        worlds.append(world)
        gen_cpu.append(cpu_taken)
    setup = Timing("setup CPU s per world generated", "s", gen_cpu)
    freeze_inputs()

    steal = host_steal_s()
    plain = _measure(spec, worlds, seconds, errors, report.info)
    steal = host_steal_s() - steal
    solve = Timing("solve_s (wall)", "s", plain.samples)
    per_round = Timing("mean solve CPU s, per round", "s", plain.round_cpu_s)
    firsts = [plain.firsts[k] for k in sorted(plain.firsts)]
    report.info += [
        f"# worlds: {len(worlds)} x {spec.world}, claims "
        f"{min(len(w.claims) for w in worlds)}..{max(len(w.claims) for w in worlds)}",
        "# " + setup.describe(),
        "# " + solve.describe() + f" over {plain.rounds} round(s)",
        "# " + per_round.describe(),
        f"# host steal while measuring: {steal:.2f} CPU s",
        "# precision vs ground truth per world: "
        + ", ".join(f"{precision:.4f}" for precision, _ in firsts),
        "# DATE iterations per world: "
        + ", ".join(str(iterations) for _, iterations in firsts),
    ]
    if spec is IMC2_AUCTION:
        report.info.append(
            "# winners per world: "
            + ", ".join(str(len(plain.outputs[k][0])) for k in sorted(plain.outputs))
        )
    report.e2e = {
        "setup_s": setup.median,
        "cpu_s_per_op": per_round.median,
        "claims_per_cpu_s": statistics.median(plain.round_claims_per_cpu_s),
        "peak_rss_mb": self_peak_rss_mb(),
    }
    if trace:
        _traced_pass(spec, worlds, plain, errors, report)
    report.info.append("# " + errors.describe())
    report.e2e["success_rate"] = max(0.0, 1.0 - errors.error_rate)
    return report


def _traced_pass(spec: BatchSpec, worlds, plain: _Pass, errors: ErrorCount,
                 report: Report) -> None:
    tracer = Tracer()
    patch = layers.install(tracer)
    try:
        # One round solves every world once, enough to compare outputs.
        traced = _measure(spec, worlds, 0.0, errors, report.info, rounds=1)
    finally:
        patch.restore()
    for k, output in plain.outputs.items():
        if traced.outputs.get(k) != output:
            report.problems.append(f"{spec.name}: traced output differs on world {k}")
    overhead = (statistics.median(traced.round_cpu_s)
                / statistics.median(plain.round_cpu_s) - 1.0)
    layers.report_traced(report, tracer.spans, tracer.counts, op_kinds=("solve",),
                         overhead=overhead)
