"""Array-native reverse auction: batched selection + prefix-shared payments.

This module is the auction twin of :mod:`repro.core.engine`: Alg. 2
(see :mod:`~repro.auction.reverse_auction` for the selection rule and
the critical-value payments) as fleet-wide numpy passes.  Three ideas
carry the speed over a per-worker transcription:

1. **Batched winner selection.**  The scalar loop evaluates
   ``Σ_j min(Θ'_j, A_k^j)`` one worker at a time, every round.  Here
   the whole fleet's capped coverages live in one dense ``(n, m)``
   array ``capped = np.minimum(residual, accuracy)`` whose row sums are
   the per-worker marginals, and each round is one ``argmin`` over the
   bid/marginal ratios.

2. **Incremental residual updates.**  A selected winner changes the
   residual only on its own task columns (CSR row of
   :class:`~repro.auction.soac.SparseAccuracy`), so only those columns
   of ``capped`` are refreshed and only the worker rows touching them
   (CSC columns) get their marginal recomputed.  Rows the winner does
   not intersect keep their stored sums.

3. **Prefix-shared critical payments.**  The payment rerun over
   ``W \\ {i}`` makes *identical* choices to the main run until the
   round that selected ``i`` — before that round, ``i`` was available
   but never the argmin, so removing it cannot change any argmin.  The
   main run therefore memoizes its per-round residuals and fleet
   marginals once (:class:`CoverTrace`), every winner's rerun reads its
   shared-prefix payment terms straight out of that trace, and only the
   *continuation* from the fork round onward is executed.

Equality contract: every quantity that reaches an output or a decision
is computed by the same floating-point expression as the scalar oracle
in ``tests/oracles/auction.py`` — marginals as dense capped-row sums
(numpy's pairwise row reduction is bit-identical whether one row or a
whole matrix is summed), residual updates by the same elementwise
formula, payment terms as ``(b_k · own) / other`` in the same
association order.  Winners,
selection order, payments, and monopolists are therefore *exactly*
equal, not approximately (DESIGN.md §10; pinned by
tests/property/test_property_auction_backends.py and gated ≥5× on the
payment phase by benchmarks/test_auction_bench.py).
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from ..errors import InfeasibleCoverageError
from .soac import COVERAGE_TOL, SOACInstance

__all__ = ["CoverTrace", "batched_greedy_cover", "run_auction", "vectorized_cover"]


@dataclass(frozen=True)
class CoverTrace:
    """Memoized state of one greedy cover run.

    ``residuals[r]`` is the residual requirement vector *before* round
    ``r``'s selection and ``scores[r]`` the fleet-wide marginal
    coverages at that residual — exactly the quantities every payment
    rerun needs for the rounds it shares with the main run.
    """

    winners: np.ndarray  # (R,) worker index selected at each round
    residuals: np.ndarray  # (R, m) residual before each selection
    scores: np.ndarray  # (R, n) fleet marginals before each selection

    @property
    def n_rounds(self) -> int:
        return len(self.winners)


class _Cover:
    """One greedy cover in flight: dense capped sums, sparse updates."""

    def __init__(self, instance: SOACInstance, residual: np.ndarray):
        self.instance = instance
        self.sparse = instance.sparse_accuracy
        self.residual = residual
        # capped[k, j] == min(residual[j], accuracy[k, j]) at all times;
        # row sums are the marginals.  Summing the full matrix along
        # axis 1 is bit-identical to summing each row alone, so these
        # scores equal the oracle's per-worker sums exactly.
        self.capped = np.minimum(residual[None, :], instance.accuracy)
        self.scores = self.capped.sum(axis=1)
        self.eligible = np.ones(instance.n_workers, dtype=bool)
        self.selected: list[int] = []

    def covered(self) -> bool:
        return self.residual.sum() <= COVERAGE_TOL

    def pick(self) -> int:
        """One Alg. 2 round: argmin of bid/marginal over eligible workers.

        ``argmin`` returns the first minimum, replicating the scalar
        loop's ascending-index tie-break.  Raises
        :class:`InfeasibleCoverageError` when no eligible worker adds
        coverage.
        """
        ratios = np.full(len(self.scores), np.inf)
        useful = self.eligible & (self.scores > COVERAGE_TOL)
        np.divide(self.instance.bids, self.scores, out=ratios, where=useful)
        best = int(np.argmin(ratios))
        if not useful[best]:
            raise InfeasibleCoverageError(
                self.instance.uncovered_tasks(sorted(self.selected))
            )
        return best

    def apply(self, winner: int) -> None:
        """Subtract the winner's capped coverage; refresh affected state.

        Only the winner's still-uncovered task columns change, and only
        workers with positive accuracy on those columns get their
        marginal recomputed — everyone else's stored row sum is already
        the value a from-scratch pass would produce.
        """
        self.eligible[winner] = False
        self.selected.append(winner)
        cols = self.sparse.tasks_of(winner)
        touched = cols[self.residual[cols] > 0.0]
        if touched.size == 0:
            return
        accuracy = self.instance.accuracy
        self.residual[touched] = np.maximum(
            self.residual[touched]
            - np.minimum(self.residual[touched], accuracy[winner, touched]),
            0.0,
        )
        self.capped[:, touched] = np.minimum(
            self.residual[touched][None, :], accuracy[:, touched]
        )
        affected = self.sparse.workers_on(touched)
        self.scores[affected] = self.capped[affected].sum(axis=1)


def batched_greedy_cover(instance: SOACInstance) -> CoverTrace:
    """Alg. 2's selection loop over the whole fleet, with a full trace."""
    cover = _Cover(instance, instance.requirements.astype(np.float64).copy())
    winners: list[int] = []
    residuals: list[np.ndarray] = []
    scores: list[np.ndarray] = []
    while not cover.covered():
        winner = cover.pick()
        winners.append(winner)
        residuals.append(cover.residual.copy())
        scores.append(cover.scores.copy())
        cover.apply(winner)
    m, n = instance.n_tasks, instance.n_workers
    return CoverTrace(
        winners=np.asarray(winners, dtype=np.int64),
        residuals=(
            np.asarray(residuals) if residuals else np.empty((0, m))
        ),
        scores=np.asarray(scores) if scores else np.empty((0, n)),
    )


def vectorized_cover(
    instance: SOACInstance, *, exclude: int | None = None
) -> list[tuple[int, np.ndarray]]:
    """Alg. 2's selection as ``(worker, residual-before)`` pairs.

    The shape of the scalar oracle's ``greedy_cover``, same exceptions —
    computed by the batched engine.  Used by the equivalence suites and anywhere
    only the selection (not the trace) is wanted.
    """
    cover = _Cover(instance, instance.requirements.astype(np.float64).copy())
    if exclude is not None:
        cover.eligible[exclude] = False
    chosen: list[tuple[int, np.ndarray]] = []
    while not cover.covered():
        winner = cover.pick()
        chosen.append((winner, cover.residual.copy()))
        cover.apply(winner)
    return chosen


def _prefix_terms(instance: SOACInstance, trace: CoverTrace) -> np.ndarray:
    """Running maxima of the shared-prefix payment terms.

    ``best[r, p]`` is the largest payment term winner ``p`` collects
    from rounds ``0..r`` of its ``W \\ {i}`` rerun — rounds that are
    identical to the main run and therefore read entirely from the
    trace: at round ``r`` the replacement is the main winner ``w_r``
    and the term is ``(b_{w_r} · own_p) / other_{w_r}`` (Alg. 2 line
    15), with both marginals taken from ``trace.scores[r]``.
    """
    winners = trace.winners
    rounds = np.arange(trace.n_rounds)
    own = trace.scores[:, winners]  # (R, R): own[r, p] = marginal of p at r
    other = trace.scores[rounds, winners]  # (R,) marginal of w_r at r
    terms = (instance.bids[winners][:, None] * own) / other[:, None]
    return np.maximum.accumulate(terms, axis=0)


def _continuation(
    instance: SOACInstance, trace: CoverTrace, position: int
) -> float:
    """Best payment term from the forked tail of one winner's rerun.

    Forks the ``W \\ {i}`` rerun at the round that selected ``i``
    (everything earlier is the shared prefix) and greedily covers the
    remaining residual without ``i``.  Raises
    :class:`InfeasibleCoverageError` when the rest of the fleet cannot
    finish the cover — the monopolist case.
    """
    excluded = int(trace.winners[position])
    cover = _Cover(instance, trace.residuals[position].copy())
    prefix = trace.winners[:position]
    cover.eligible[prefix] = False
    cover.eligible[excluded] = False
    cover.selected.extend(int(w) for w in prefix)
    bids = instance.bids
    best = 0.0
    while not cover.covered():
        winner = cover.pick()
        term = (float(bids[winner]) * cover.scores[excluded]) / cover.scores[winner]
        best = max(best, term)
        cover.apply(winner)
    return float(best)


def run_auction(
    instance: SOACInstance, *, monopoly_payment_factor: float = 1.0
) -> tuple[list[int], dict[str, float], list[str]]:
    """Winner selection + critical payments, vectorized end to end.

    Returns ``(winners-in-selection-order, payments, monopolists)`` —
    the raw components :class:`~repro.auction.reverse_auction.
    ReverseAuction` assembles into an ``AuctionOutcome``.  Assumes the
    caller already ran ``instance.check_feasible()``.

    Timings of the selection loop and each winner's payment rerun go to
    the metrics registry when it is enabled (DESIGN.md §13); the
    telemetry reads outputs only, so instrumented auctions remain
    exactly equal to uninstrumented ones.
    """
    from ..obs.metrics import get_registry

    registry = get_registry()
    telemetry = registry.enabled
    if telemetry:
        selection_timer = registry.timer(
            "auction_selection_seconds",
            "Wall time of the batched winner-selection loop.",
        )
        rerun_timer = registry.timer(
            "auction_payment_rerun_seconds",
            "Wall time of one winner's critical-payment rerun.",
        )
        rounds_hist = registry.histogram(
            "auction_rounds",
            "Selection rounds (winners) per auction.",
            buckets=(1.0, 2.0, 5.0, 10.0, 25.0, 50.0, 100.0, 250.0, 500.0),
        )
        auctions_total = registry.counter(
            "auction_runs_total", "Auctions executed."
        )
        monopolists_total = registry.counter(
            "auction_monopolists_total",
            "Winners priced as monopolists (no replacement cover).",
        )
        start = time.perf_counter()
    trace = batched_greedy_cover(instance)
    if telemetry:
        selection_timer.observe(time.perf_counter() - start)
    winners = [int(w) for w in trace.winners]
    payments: dict[str, float] = {}
    monopolists: list[str] = []
    if not winners:
        if telemetry:
            auctions_total.inc()
            rounds_hist.observe(0)
        return winners, payments, monopolists

    prefix_best = _prefix_terms(instance, trace)
    for position, worker in enumerate(winners):
        worker_id = instance.worker_ids[worker]
        if telemetry:
            rerun_start = time.perf_counter()
        try:
            tail = _continuation(instance, trace, position)
        except InfeasibleCoverageError:
            # Monopolist: no replacement set exists without this worker.
            payments[worker_id] = monopoly_payment_factor * float(
                instance.bids[worker]
            )
            monopolists.append(worker_id)
            if telemetry:
                rerun_timer.observe(time.perf_counter() - rerun_start)
                monopolists_total.inc()
            continue
        shared = float(prefix_best[position - 1, position]) if position else 0.0
        payments[worker_id] = max(shared, tail)
        if telemetry:
            rerun_timer.observe(time.perf_counter() - rerun_start)
    if telemetry:
        auctions_total.inc()
        rounds_hist.observe(len(winners))
    from ..obs import trace as obs_trace

    obs_trace.emit(
        "auction_run",
        winners=len(winners),
        monopolists=len(monopolists),
        total_payment=float(sum(payments.values())),
    )
    return winners, payments, monopolists
