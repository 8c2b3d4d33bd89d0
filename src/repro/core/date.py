"""DATE — Dependence and Accuracy based Truth Estimation (Alg. 1).

The driver wires the three steps together and iterates until the truth
estimate stabilizes or the iteration cap ``φ`` is reached.  Every step
is a kernel of :mod:`repro.core.engine`:

1. :func:`~repro.core.engine.pairwise_dependence_arrays` — copier
   posteriors from the current truths and accuracies (Eqs. 7-15);
2. :func:`~repro.core.engine.independence_flat` — per-claim
   independence scores via the greedy ordering (Eq. 16);
3. :func:`~repro.core.engine.discounted_posterior_groups` /
   :func:`~repro.core.engine.accuracy_flat` — Bayesian value
   posteriors and refreshed accuracies (Eqs. 17-20), then
   :func:`~repro.core.engine.support_flat` — truth selection by the
   largest dependence-discounted support (line 28, optionally
   similarity-adjusted per Eq. 21).

The initial truth estimate is majority voting and the initial accuracy
matrix is the constant ε (Sec. III-A).
"""

from __future__ import annotations

import time
import warnings
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from ..errors import ConvergenceWarning
from ..types import Dataset
from .config import DateConfig
from .dependence import DependencePosterior
from .engine import (
    DependenceArrays,
    accuracy_flat,
    dense_accuracy,
    dependence_table,
    discounted_posterior_groups,
    independence_flat,
    pairwise_dependence_arrays,
    plain_posterior_groups,
    posterior_table,  # noqa: F401 - perfbench/layers.py traces it here by name
    select_truth_codes,
    support_flat,
    support_table,
)
from .indexing import ClaimArrays, DatasetIndex, pair_tables

__all__ = ["DATE", "TruthDiscoveryResult", "discover_truth", "iterate_truths"]


#: Histogram bounds for iterations-to-convergence (Fibonacci-ish).
_ITERATION_BUCKETS = (1.0, 2.0, 3.0, 5.0, 8.0, 13.0, 21.0, 34.0, 55.0)

#: Kernel phases of one DATE iteration, in execution order.
_PHASES = ("dependence", "independence", "posterior", "support")


class _RunTelemetry:
    """Per-run convergence recorder for DATE (DESIGN.md §13).

    Constructed by :func:`_run_telemetry` only when telemetry is live,
    so the disabled hot loop pays a single ``is None`` check per phase.
    Instruments are bound once here — never looked up inside the
    iteration — and everything recorded is *read* from loop state after
    the kernels have produced it: observation cannot perturb the fixed
    point, which is what keeps instrumented runs bit-identical.
    """

    def __init__(self, registry, writer):
        self._writer = writer
        self._iteration = 0
        self.run_seconds = registry.timer(
            "date_run_seconds", "Wall time of one DATE run."
        )
        self.runs_total = registry.counter("date_runs_total", "DATE runs executed.")
        self.converged_total = registry.counter(
            "date_converged_runs_total",
            "DATE runs whose truth estimate stabilized before the cap.",
        )
        self.iterations_hist = registry.histogram(
            "date_iterations",
            "Iterations to convergence per DATE run.",
            buckets=_ITERATION_BUCKETS,
        )
        self.iteration_seconds = registry.timer(
            "date_iteration_seconds",
            "Wall time of one DATE fixed-point iteration.",
        )
        self.phase_seconds = {
            name: registry.timer(
                "date_phase_seconds",
                "Wall time per kernel phase of a DATE iteration.",
                labels={"phase": name},
            )
            for name in _PHASES
        }
        self.flips_total = registry.counter(
            "date_truth_flips_total",
            "Per-task truth estimate changes across iterations.",
        )
        self.delta_hist = registry.histogram(
            "date_posterior_delta",
            "Max |change| of per-claim accuracy per iteration.",
        )

    def iteration(
        self,
        *,
        seconds: float,
        phases: dict[str, float] | None,
        flips: int,
        delta: float,
    ) -> None:
        self._iteration += 1
        self.iteration_seconds.observe(seconds)
        if phases:
            for name, elapsed in phases.items():
                self.phase_seconds[name].observe(elapsed)
        self.flips_total.inc(flips)
        self.delta_hist.observe(delta)
        if self._writer is not None:
            fields = {
                "iteration": self._iteration,
                "seconds": round(seconds, 9),
                "flips": flips,
                "posterior_delta": delta,
            }
            if phases:
                fields["phases"] = {k: round(v, 9) for k, v in phases.items()}
            self._writer.emit("date_iteration", **fields)

    def finish(self, *, iterations: int, converged: bool, seconds: float) -> None:
        self.runs_total.inc()
        if converged:
            self.converged_total.inc()
        self.iterations_hist.observe(iterations)
        self.run_seconds.observe(seconds)
        if self._writer is not None:
            self._writer.emit(
                "date_run",
                iterations=iterations,
                converged=converged,
                seconds=round(seconds, 9),
            )


def _run_telemetry() -> _RunTelemetry | None:
    """A bound recorder when telemetry is live, else ``None``.

    Lazy imports keep the core import-light and cycle-free; the ``None``
    return is the entire disabled-mode cost signature of the loop.
    """
    from ..obs import trace as obs_trace
    from ..obs.metrics import get_registry

    registry = get_registry()
    writer = obs_trace.active()
    if not registry.enabled and writer is None:
        return None
    return _RunTelemetry(registry, writer)


def iterate_truths(initial, step, *, max_iterations, state_key, label):
    """Alg. 1's outer loop, shared by DATE and NC.

    Calls ``step(truths) -> new_truths`` until the estimate stabilizes,
    enters a cycle (period >= 2 — keep the current member
    deterministically), or hits the iteration cap ``max_iterations``
    (then warn).  ``state_key`` maps a truth estimate to a hashable
    snapshot (``tuple`` for string lists, ``ndarray.tobytes`` for code
    arrays).  Returns ``(truths, iterations, converged)``.
    """
    truths = initial
    key = state_key(initial)
    seen_states = {key}
    iterations = 0
    converged = False
    cycled = False
    while iterations < max_iterations:
        iterations += 1
        truths = step(truths)
        new_key = state_key(truths)
        if new_key == key:
            converged = True
            break
        key = new_key
        if key in seen_states:
            cycled = True
            break
        seen_states.add(key)
    if not converged and not cycled:
        warnings.warn(
            f"{label} stopped at the iteration cap ({max_iterations}) "
            "without the truth estimate stabilizing",
            ConvergenceWarning,
            # Attribute the warning to the caller of run(), four frames
            # up: iterate_truths -> _run -> run -> caller.
            stacklevel=4,
        )
    return truths, iterations, converged


@dataclass(frozen=True, eq=False)
class TruthDiscoveryResult:
    """Output of a truth-discovery run, held as the run's arrays.

    Built only by :func:`build_result`.  Besides the arrays below it
    keeps references (not copies) to the index arrays that decode them,
    never the :class:`DatasetIndex` itself.  ``truths``, ``confidence``,
    ``accuracy_matrix``, ``worker_accuracy``, ``support`` and
    ``dependence`` are read-only views, decoded on first access and
    cached; callers share the cached objects and must not mutate them.

    ``truth_codes`` holds one value code per task (-1: no claims),
    ``claim_acc`` one accuracy per claim in index order,
    ``group_post``/``group_support`` the final iteration's posterior and
    support per value group, and ``p_ab``/``p_ba`` the directional
    dependence posteriors per co-answering pair; a method without such
    a table stores ``None``.
    """

    truth_codes: np.ndarray
    claim_acc: np.ndarray
    group_post: np.ndarray | None
    group_support: np.ndarray | None
    p_ab: np.ndarray | None
    p_ba: np.ndarray | None
    iterations: int
    converged: bool
    method: str
    worker_ids: tuple[str, ...]
    task_ids: tuple[str, ...]
    # References into the index the arrays are laid out in.
    _claim_worker: np.ndarray = field(repr=False)
    _claim_task: np.ndarray = field(repr=False)
    _task_ptr: np.ndarray = field(repr=False)
    _task_group_ptr: np.ndarray = field(repr=False)
    _group_values: tuple[str, ...] = field(repr=False)
    #: ``(pair_a, pair_b)`` when the index had built its pair tables;
    #: otherwise :attr:`dependence` rebuilds them from the claim arrays.
    _pairs: tuple[np.ndarray, np.ndarray] | None = field(repr=False)
    _claims_by_worker: list[dict[int, str]] = field(repr=False)
    _ground_truths: dict[str, str] = field(repr=False)

    @cached_property
    def _answered(self) -> tuple[list[int], np.ndarray]:
        """Tasks with a truth, and the value group of each one's truth."""
        answered = np.flatnonzero(self.truth_codes >= 0)
        groups = self._task_group_ptr[answered] + self.truth_codes[answered]
        return answered.tolist(), groups

    @cached_property
    def truths(self) -> dict[str, str]:
        """``task_id -> estimated truth`` (tasks with no claims omitted)."""
        answered, groups = self._answered
        task_ids, values = self.task_ids, self._group_values
        return {
            task_ids[j]: values[g] for j, g in zip(answered, groups.tolist())
        }

    @cached_property
    def confidence(self) -> dict[str, float]:
        """``task_id -> posterior probability`` of the selected truth."""
        if self.group_post is None:
            return {}
        # ``truths`` lists the answered tasks in the same order.
        return dict(zip(self.truths, self.group_post[self._answered[1]].tolist()))

    @cached_property
    def accuracy_matrix(self) -> np.ndarray:
        """Dense ``n_workers x n_tasks`` accuracy matrix ``A`` (Eq. 17).

        Rows and columns follow ``worker_ids`` / ``task_ids``; this is
        the matrix the reverse auction consumes.
        """
        return dense_accuracy(
            self._claim_worker,
            self._claim_task,
            self.claim_acc,
            (len(self.worker_ids), len(self.task_ids)),
        )

    @cached_property
    def worker_accuracy(self) -> dict[str, float]:
        """``worker_id -> mean accuracy`` over the worker's answered tasks."""
        means = worker_mean_accuracy(self._claims_by_worker, self.accuracy_matrix)
        return dict(zip(self.worker_ids, means.tolist()))

    @cached_property
    def support(self) -> dict[str, dict[str, float]]:
        """``task_id -> {value: support count}`` from the final iteration."""
        if self.group_support is None:
            return {}
        table = support_table(
            self._task_group_ptr, self._group_values, self.group_support
        )
        task_ids = self.task_ids
        return {task_ids[j]: counts for j, counts in enumerate(table) if counts}

    @cached_property
    def dependence(self) -> dict[tuple[str, str], DependencePosterior]:
        """``(worker_id, worker_id') -> DependencePosterior`` per pair.

        Every co-answering pair, ids in dataset order (first < second
        positionally); empty for dependence-unaware methods.
        """
        if self.p_ab is None:
            return {}
        pair_a, pair_b = self._pairs or pair_tables(
            self._task_ptr,
            self._claim_worker,
            self._claim_task,
            len(self.worker_ids),
        )[:2]
        table = dependence_table(pair_a, pair_b, self.p_ab, self.p_ba)
        worker_ids = self.worker_ids
        return {
            (worker_ids[a], worker_ids[b]): posterior
            for (a, b), posterior in table.items()
        }

    def precision(self, truths: dict[str, str] | None = None) -> float:
        """Fraction of tasks whose estimate matches the reference truth.

        Uses the dataset ground truths captured at run time unless an
        explicit reference is given.  Matches the paper's precision
        metric ``Σ g(et_j = et*_j) / |T|`` over tasks with a known
        reference.
        """
        reference = truths if truths is not None else self._ground_truths
        if not reference:
            raise ValueError("no reference truths available for precision")
        estimates = self.truths
        hits = sum(
            1 for task_id, truth in reference.items() if estimates.get(task_id) == truth
        )
        return hits / len(reference)


class DATE:
    """The paper's truth-discovery algorithm, ready to run on a dataset.

    >>> from repro.datasets import generate_qatar_living_like
    >>> dataset = generate_qatar_living_like(seed=1)
    >>> result = DATE().run(dataset)
    >>> 0.0 <= result.precision() <= 1.0
    True
    """

    method_name = "DATE"

    def __init__(self, config: DateConfig | None = None):
        self.config = config or DateConfig()

    def _independence_flat(
        self,
        index: DatasetIndex,
        arrays: ClaimArrays,
        dependence: DependenceArrays,
    ):
        """Step 2 hook; the ED baseline overrides it with enumeration."""
        return independence_flat(
            arrays,
            dependence,
            copy_prob_r=self.config.copy_prob_r,
            ordering=self.config.ordering,
            discount_mode=self.config.discount_mode,
        )

    def run(
        self,
        dataset: Dataset,
        *,
        index: DatasetIndex | None = None,
        warm_start: TruthDiscoveryResult | None = None,
    ) -> TruthDiscoveryResult:
        """Execute Alg. 1 and return the result bundle.

        ``warm_start`` seeds the worker accuracies (and, for tasks
        present in both datasets, the initial truth estimates) from a
        previous run instead of the constant ε / majority vote.  This
        supports streaming campaigns — re-estimating after a new batch
        of claims converges in fewer iterations because worker
        reputations carry over.  Workers or tasks unknown to the warm
        start fall back to the cold-start defaults.
        """
        if index is not None:
            return self._run(index, warm_start)
        index = DatasetIndex(dataset)
        try:
            return self._run(index, warm_start)
        finally:
            # Break the private index's index <-> arrays reference cycle
            # so both are freed now, not at some later full collection.
            index.__dict__.pop("arrays", None)

    def _run(
        self,
        index: DatasetIndex,
        warm_start: TruthDiscoveryResult | None,
    ) -> TruthDiscoveryResult:
        """Alg. 1 over the array kernels of :mod:`repro.core.engine`.

        Inner-loop state is three flat arrays (per-claim accuracy,
        per-claim independence, per-task truth codes); the result keeps
        the final arrays and decodes its string-keyed views on access.
        """
        cfg = self.config
        arrays = index.arrays
        telemetry = _run_telemetry()
        run_start = time.perf_counter() if telemetry is not None else 0.0
        cfg.false_values.prepare(index)
        collision = cfg.false_values.collision_array(index)
        group_q = (
            cfg.false_values.value_probability_array(index)
            if cfg.discounted_posterior
            else None
        )

        truth_codes = arrays.majority_codes()
        claim_acc = np.full(arrays.n_claims, cfg.initial_accuracy, dtype=np.float64)
        if warm_start is not None:
            lookup = arrays.code_lookup
            for j, task_id in enumerate(index.task_ids):
                carried = warm_start.truths.get(task_id)
                if carried is not None:
                    code = lookup[j].get(carried)
                    if code is not None:
                        truth_codes[j] = code
            for i, worker_id in enumerate(index.worker_ids):
                carried_accuracy = warm_start.worker_accuracy.get(worker_id)
                if carried_accuracy is None or carried_accuracy <= 0.0:
                    continue
                start, end = arrays.worker_ptr[i], arrays.worker_ptr[i + 1]
                claim_acc[arrays.worker_claims[start:end]] = carried_accuracy

        dependence = DependenceArrays(p_ab=np.empty(0), p_ba=np.empty(0))
        indep = None
        group_post = None
        group_support = None

        def step(truth_codes):
            nonlocal dependence, indep, group_post, group_support, claim_acc
            # Telemetry reads loop state after each kernel; the branches
            # below are the loop's entire disabled-mode cost.
            if telemetry is not None:
                iter_start = mark = time.perf_counter()
                prev_acc = claim_acc
            dependence = pairwise_dependence_arrays(
                arrays,
                truth_codes,
                claim_acc,
                copy_prob_r=cfg.copy_prob_r,
                prior_alpha=cfg.prior_alpha,
                collision=collision,
                accuracy_clamp=cfg.accuracy_clamp,
            )
            if telemetry is not None:
                now = time.perf_counter()
                t_dependence, mark = now - mark, now
            indep = self._independence_flat(index, arrays, dependence)
            if telemetry is not None:
                now = time.perf_counter()
                t_independence, mark = now - mark, now
            if cfg.discounted_posterior:
                group_post = discounted_posterior_groups(
                    arrays,
                    claim_acc,
                    indep,
                    group_q=group_q,
                    accuracy_clamp=cfg.accuracy_clamp,
                )
            else:
                group_post = plain_posterior_groups(
                    arrays,
                    claim_acc,
                    false_values=cfg.false_values,
                    accuracy_clamp=cfg.accuracy_clamp,
                )
            claim_acc = accuracy_flat(
                arrays, group_post, granularity=cfg.granularity
            )
            if telemetry is not None:
                now = time.perf_counter()
                t_posterior, mark = now - mark, now
            group_support = support_flat(
                arrays,
                claim_acc,
                indep,
                similarity=cfg.similarity,
                similarity_weight=cfg.similarity_weight,
            )
            new_codes = select_truth_codes(arrays, group_support)
            if telemetry is not None:
                now = time.perf_counter()
                telemetry.iteration(
                    seconds=now - iter_start,
                    phases={
                        "dependence": t_dependence,
                        "independence": t_independence,
                        "posterior": t_posterior,
                        "support": now - mark,
                    },
                    flips=int(np.count_nonzero(new_codes != truth_codes)),
                    delta=float(np.max(np.abs(claim_acc - prev_acc)))
                    if len(claim_acc)
                    else 0.0,
                )
            return new_codes

        truth_codes, iterations, converged = iterate_truths(
            truth_codes,
            step,
            max_iterations=cfg.max_iterations,
            state_key=lambda codes: codes.tobytes(),
            label="DATE",
        )
        if telemetry is not None:
            telemetry.finish(
                iterations=iterations,
                converged=converged,
                seconds=time.perf_counter() - run_start,
            )
        return build_result(
            index,
            truth_codes,
            claim_acc,
            group_post,
            group_support,
            dependence,
            iterations=iterations,
            converged=converged,
            method=self.method_name,
        )


def worker_mean_accuracy(
    claims_by_worker: list[dict[int, str]], accuracy: np.ndarray
) -> np.ndarray:
    """Per-worker mean accuracy over answered tasks (0 for idle workers).

    Tasks are summed in ``claims_by_worker`` order, which numpy's
    pairwise summation makes part of the result's bits;
    ``np.add.reduce(x) / len(x)`` is exactly what ``np.mean`` computes.
    """
    means = np.zeros(len(claims_by_worker), dtype=np.float64)
    for i, claims in enumerate(claims_by_worker):
        if claims:
            tasks = np.fromiter(claims, dtype=np.intp, count=len(claims))
            means[i] = np.add.reduce(accuracy[i, tasks]) / len(claims)
    return means


def build_result(
    index: DatasetIndex,
    truth_codes: np.ndarray,
    claim_acc: np.ndarray,
    group_post: np.ndarray | None = None,
    group_support: np.ndarray | None = None,
    dependence: DependenceArrays | None = None,
    *,
    iterations: int,
    converged: bool,
    method: str,
) -> TruthDiscoveryResult:
    """The one constructor of :class:`TruthDiscoveryResult`.

    Every algorithm, the streaming snapshots and the ledger decoder
    report through here, with arrays in ``index``'s layout.  Nothing is
    decoded here; the result's views do that on first access.
    """
    arrays = index.arrays
    pairs = None
    if dependence is not None and "_pair_tables" in arrays.__dict__:
        pairs = (arrays.pair_a, arrays.pair_b)
    return TruthDiscoveryResult(
        truth_codes=truth_codes,
        claim_acc=claim_acc,
        group_post=group_post,
        group_support=group_support,
        p_ab=None if dependence is None else dependence.p_ab,
        p_ba=None if dependence is None else dependence.p_ba,
        iterations=iterations,
        converged=converged,
        method=method,
        worker_ids=tuple(index.worker_ids),
        task_ids=tuple(index.task_ids),
        _claim_worker=arrays.claim_worker,
        _claim_task=arrays.claim_task,
        _task_ptr=arrays.task_ptr,
        _task_group_ptr=arrays.task_group_ptr,
        _group_values=arrays.group_values,
        _pairs=pairs,
        _claims_by_worker=index.claims_by_worker,
        _ground_truths=index.dataset.truths,
    )


def discover_truth(
    dataset: Dataset, config: DateConfig | None = None
) -> TruthDiscoveryResult:
    """Convenience wrapper: run DATE with ``config`` on ``dataset``."""
    return DATE(config).run(dataset)
