"""DATE's kernels over :class:`~repro.core.indexing.ClaimArrays`.

Every step of Alg. 1 runs here as flat numpy passes over the
integer-coded claim arrays: pairwise dependence (Eqs. 7-15),
independence by greedy ordering (Eq. 16), value posteriors and
accuracies (Eqs. 17-20), and support with the optional similarity
adjustment (Eq. 21, Alg. 1 line 28).  State lives in three flat arrays
between iterations:

- ``claim_acc`` — one accuracy per claim (the non-zero entries of the
  dense ``A`` matrix, in claim order);
- ``indep`` — one independence probability ``I_v^j(i)`` per claim;
- ``truth_codes`` — one value code per task (-1 for unanswered tasks).

The dense matrix and the string-keyed tables of the public API are
decoded from these arrays by the result's views, on first access
(:func:`dense_accuracy`, :func:`posterior_table`,
:func:`support_table`, :func:`dependence_table`).  DESIGN.md §7
documents the encoding.  Scalar per-element transcriptions of the same
equations live in ``tests/oracles/`` as equivalence oracles;
tests/property/test_property_backends.py pins the kernels to them.
"""

from __future__ import annotations

import math
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .dependence import DependencePosterior
from .indexing import ClaimArrays, _concat_ranges, segment_first_argmax_code

__all__ = [
    "DependenceArrays",
    "DirectedDependenceLookup",
    "IncrementalDependence",
    "IncrementalStats",
    "KernelScratch",
    "pairwise_dependence_arrays",
    "independence_flat",
    "plain_posterior_groups",
    "discounted_posterior_groups",
    "accuracy_flat",
    "support_flat",
    "select_truth_codes",
    "dense_accuracy",
    "posterior_table",
    "support_table",
    "dependence_table",
]

# Likelihood terms are clamped away from 0 so a single impossible-looking
# observation cannot produce -inf log likelihoods.
_MIN_PROB = 1e-12

# Below this many flat rows a kernel ignores ``intra_workers`` and runs
# serially: thread dispatch would dominate, and the serial path is
# bitwise identical anyway.  The cut depends only on the input size, so
# path selection — like everything else here — is deterministic.
_MIN_PARALLEL_ROWS = 4096


def _safe_log(x: np.ndarray) -> np.ndarray:
    return np.log(np.maximum(x, _MIN_PROB))


def _note_scratch_growth(nbytes: int) -> None:
    """Record one scratch slab (re)allocation when telemetry is on.

    Growth is rare by design (slabs persist across iterations), so this
    sits outside the hot path; the lazy import keeps the kernel module
    import-light.
    """
    from ..obs.metrics import get_registry

    registry = get_registry()
    if registry.enabled:
        registry.counter(
            "date_scratch_growth_total",
            "KernelScratch slab allocations (growth or dtype change).",
        ).inc()
        registry.counter(
            "date_scratch_bytes_total",
            "Total bytes allocated into KernelScratch slabs.",
        ).inc(nbytes)


class KernelScratch:
    """Named, growable scratch slabs for the hot kernels' temporaries.

    The fixed-point loop used to allocate ~20 fresh temporaries per
    iteration in the dependence and posterior kernels; drawing them
    from named slabs that persist across iterations turns that into a
    one-time cost.  :meth:`array` hands out a view of the slab for
    ``name`` (grown when needed), so a caller must be done with the
    previous view of a name before requesting it again.  One scratch is
    not thread-safe — parallel blocks each use their worker thread's
    own instance (:func:`_thread_scratch`).
    """

    def __init__(self) -> None:
        self._slabs: dict[str, np.ndarray] = {}

    def array(self, name: str, shape, dtype=np.float64) -> np.ndarray:
        """A writable, uninitialized ``shape`` view of the ``name`` slab."""
        if isinstance(shape, int):
            shape = (shape,)
        size = 1
        for extent in shape:
            size *= int(extent)
        slab = self._slabs.get(name)
        if slab is None or slab.dtype != np.dtype(dtype) or slab.size < size:
            slab = np.empty(max(size, 1), dtype=dtype)
            self._slabs[name] = slab
            _note_scratch_growth(slab.nbytes)
        return slab[:size].reshape(shape)


_TLS = threading.local()


def _thread_scratch() -> KernelScratch:
    """The calling thread's own :class:`KernelScratch` (created once)."""
    scratch = getattr(_TLS, "scratch", None)
    if scratch is None:
        scratch = KernelScratch()
        _TLS.scratch = scratch
    return scratch


_POOL_LOCK = threading.Lock()
_POOLS: dict[int, ThreadPoolExecutor] = {}


def _intra_pool(n_workers: int) -> ThreadPoolExecutor:
    """Process-wide thread pool for intra-campaign blocks, per size.

    numpy releases the GIL inside its C loops, so plain threads give
    real concurrency for these kernels without any serialization of the
    claim arrays.  Pools are cached — campaigns are run far more often
    than pool sizes change.
    """
    with _POOL_LOCK:
        pool = _POOLS.get(n_workers)
        if pool is None:
            pool = ThreadPoolExecutor(
                max_workers=n_workers, thread_name_prefix="repro-intra"
            )
            _POOLS[n_workers] = pool
        return pool


def _block_slices(n: int, n_blocks: int) -> list[slice]:
    """Fixed contiguous partition of ``range(n)`` into ``<= n_blocks``.

    The partition depends only on ``(n, n_blocks)`` and partial results
    are always reduced in block order, which is what makes the parallel
    kernels deterministic run-to-run (DESIGN.md §12).
    """
    n_blocks = max(1, min(n_blocks, n))
    size = -(-n // n_blocks)
    return [slice(start, min(start + size, n)) for start in range(0, n, size)]


@dataclass(frozen=True)
class DependenceArrays:
    """Directional dependence posteriors for every co-answering pair.

    ``p_ab[k]`` is ``P(pair_a[k] -> pair_b[k] | D)`` (the first worker
    of pair ``k`` copies from the second), ``p_ba`` the reverse — the
    array form of :class:`~repro.core.dependence.DependencePosterior`
    over ``ClaimArrays.pair_a/pair_b``.
    """

    p_ab: np.ndarray
    p_ba: np.ndarray


@dataclass(frozen=True)
class DirectedDependenceLookup:
    """O(pairs) lookup of ``P(i -> k | D)`` over sorted integer keys.

    Each directed pair is keyed as ``i * n_workers + k`` and stored
    sorted, so an arbitrary batch of ``(i, k)`` queries is one
    ``searchsorted`` — memory stays O(pairs) where a dense matrix would
    be O(n_workers²).  Pairs that never co-answered (and the diagonal)
    resolve to 0.
    """

    keys: np.ndarray
    values: np.ndarray
    n_workers: int

    @classmethod
    def build(
        cls, arrays: ClaimArrays, dependence: DependenceArrays
    ) -> "DirectedDependenceLookup":
        n = arrays.index.n_workers
        a = arrays.pair_a.astype(np.int64)
        b = arrays.pair_b.astype(np.int64)
        keys = np.concatenate([a * n + b, b * n + a])
        values = np.concatenate([dependence.p_ab, dependence.p_ba])
        order = np.argsort(keys)
        return cls(keys=keys[order], values=values[order], n_workers=n)

    def gather(self, src: np.ndarray, dst: np.ndarray) -> np.ndarray:
        """``D[src, dst]`` for broadcastable index arrays (0 where unset)."""
        query = src.astype(np.int64) * self.n_workers + dst
        if self.keys.size == 0:
            return np.zeros(query.shape, dtype=np.float64)
        position = np.searchsorted(self.keys, query)
        position = np.minimum(position, len(self.keys) - 1)
        return np.where(
            self.keys[position] == query, self.values[position], 0.0
        )


def _score_pair_rows(
    arrays: ClaimArrays,
    truth_codes: np.ndarray,
    claim_acc: np.ndarray,
    *,
    r: float,
    collision: np.ndarray,
    lo: float,
    hi: float,
    rows,
    out_ind: np.ndarray,
    out_ab: np.ndarray,
    out_ba: np.ndarray,
    scratch: KernelScratch,
) -> None:
    """Per-row hypothesis log-likelihood terms for ``rows`` (Eqs. 7-13).

    Every output element depends only on that row's own inputs, so
    scoring any subset — a contiguous block, or the scattered rows of a
    few touched tasks — reproduces bit for bit what a full pass writes
    at those positions.  That elementwise property is what both the
    blocked parallel path and :class:`IncrementalDependence` rely on.
    ``rows`` is a slice or an int index array; outputs and temporaries
    are caller-provided so the fixed-point loop allocates nothing here.
    """
    n = len(out_ind)
    ca = arrays.ps_claim_a[rows]
    cb = arrays.ps_claim_b[rows]
    tasks = arrays.ps_task[rows]

    acc_a = np.take(claim_acc, ca, out=scratch.array("sc_acc_a", n))
    np.clip(acc_a, lo, hi, out=acc_a)
    acc_b = np.take(claim_acc, cb, out=scratch.array("sc_acc_b", n))
    np.clip(acc_b, lo, hi, out=acc_b)
    code_a = np.take(arrays.claim_code, ca, out=scratch.array("sc_code_a", n, np.int64))
    code_b = np.take(arrays.claim_code, cb, out=scratch.array("sc_code_b", n, np.int64))
    col = np.take(collision, tasks, out=scratch.array("sc_col", n))

    same = np.equal(code_a, code_b, out=scratch.array("sc_same", n, bool))
    truth = np.take(truth_codes, tasks, out=scratch.array("sc_tcode", n, np.int64))
    is_truth = np.equal(code_a, truth, out=scratch.array("sc_is_truth", n, bool))
    np.logical_and(is_truth, same, out=is_truth)

    p_same_true = np.multiply(acc_a, acc_b, out=scratch.array("sc_pst", n))
    # src_a/src_b start as 1 - A; truth rows are patched to A below.
    src_a = np.subtract(1.0, acc_a, out=scratch.array("sc_src_a", n))
    src_b = np.subtract(1.0, acc_b, out=scratch.array("sc_src_b", n))
    p_same_false = np.multiply(src_a, src_b, out=scratch.array("sc_psf", n))
    np.multiply(p_same_false, col, out=p_same_false)
    # T_s rows use the true-agreement likelihood, T_f rows the
    # false-collision one (Eqs. 7, 8, 11, 12, 22).
    p_same = scratch.array("sc_ps", n)
    np.copyto(p_same, p_same_false)
    np.copyto(p_same, p_same_true, where=is_truth)
    np.copyto(src_a, acc_a, where=is_truth)
    np.copyto(src_b, acc_b, where=is_truth)
    # T_d rows: P_d = 1 - P_s - P_f (Eqs. 9, 13).
    p_diff = scratch.array("sc_pd", n)
    np.subtract(1.0, p_same_true, out=p_diff)
    np.subtract(p_diff, p_same_false, out=p_diff)
    np.maximum(p_diff, _MIN_PROB, out=p_diff)

    not_same = np.logical_not(same, out=scratch.array("sc_not_same", n, bool))
    log_diff_dep = scratch.array("sc_ldd", n)
    np.multiply(p_diff, 1.0 - r, out=log_diff_dep)
    np.maximum(log_diff_dep, _MIN_PROB, out=log_diff_dep)
    np.log(log_diff_dep, out=log_diff_dep)

    tmp = scratch.array("sc_tmp", n)
    np.maximum(p_diff, _MIN_PROB, out=out_ind)
    np.log(out_ind, out=out_ind)
    np.maximum(p_same, _MIN_PROB, out=tmp)
    np.log(tmp, out=tmp)
    np.copyto(out_ind, tmp, where=same)

    # Same-value rows: log(src · r + P_s · (1 - r)); differing rows
    # share log(P_d · (1 - r)) for both copy directions (Eqs. 12-14).
    np.multiply(p_same, 1.0 - r, out=tmp)
    np.multiply(src_b, r, out=out_ab)
    np.add(out_ab, tmp, out=out_ab)
    np.maximum(out_ab, _MIN_PROB, out=out_ab)
    np.log(out_ab, out=out_ab)
    np.copyto(out_ab, log_diff_dep, where=not_same)
    np.multiply(src_a, r, out=out_ba)
    np.add(out_ba, tmp, out=out_ba)
    np.maximum(out_ba, _MIN_PROB, out=out_ba)
    np.log(out_ba, out=out_ba)
    np.copyto(out_ba, log_diff_dep, where=not_same)


def _dependence_posteriors(
    sum_ind: np.ndarray,
    sum_ab: np.ndarray,
    sum_ba: np.ndarray,
    prior_alpha: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Bayes' rule with the α/2 prior split, normalized in log space.

    Elementwise over pairs — normalizing a subset of pairs produces the
    same bits as normalizing all of them and selecting the subset.
    """
    score_ind = math.log(1.0 - prior_alpha) + sum_ind
    log_prior_dep = math.log(prior_alpha / 2.0)
    score_ab = log_prior_dep + sum_ab
    score_ba = log_prior_dep + sum_ba
    peak = np.maximum(score_ind, np.maximum(score_ab, score_ba))
    w_ind = np.exp(score_ind - peak)
    w_ab = np.exp(score_ab - peak)
    w_ba = np.exp(score_ba - peak)
    total = w_ind + w_ab + w_ba
    return w_ab / total, w_ba / total


def _pair_sums_serial(
    arrays: ClaimArrays,
    truth_codes: np.ndarray,
    claim_acc: np.ndarray,
    *,
    r: float,
    collision: np.ndarray,
    lo: float,
    hi: float,
    scratch: KernelScratch,
    rows_out: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Full per-pair hypothesis sums, one serial pass (the baseline).

    The per-row terms land in ``rows_out`` when given (the incremental
    engine keeps them between refreshes), else in scratch slabs.
    """
    n_rows = len(arrays.ps_pair)
    n_pairs = arrays.n_pairs
    if rows_out is None:
        rows_out = (
            scratch.array("dep_ind", n_rows),
            scratch.array("dep_ab", n_rows),
            scratch.array("dep_ba", n_rows),
        )
    out_ind, out_ab, out_ba = rows_out
    _score_pair_rows(
        arrays,
        truth_codes,
        claim_acc,
        r=r,
        collision=collision,
        lo=lo,
        hi=hi,
        rows=slice(0, n_rows),
        out_ind=out_ind,
        out_ab=out_ab,
        out_ba=out_ba,
        scratch=scratch,
    )
    return (
        np.bincount(arrays.ps_pair, weights=out_ind, minlength=n_pairs),
        np.bincount(arrays.ps_pair, weights=out_ab, minlength=n_pairs),
        np.bincount(arrays.ps_pair, weights=out_ba, minlength=n_pairs),
    )


def _pair_sums_blocked(
    arrays: ClaimArrays,
    truth_codes: np.ndarray,
    claim_acc: np.ndarray,
    *,
    r: float,
    collision: np.ndarray,
    lo: float,
    hi: float,
    intra_workers: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-pair sums via fixed contiguous row blocks on a thread pool.

    Each block scores its rows (bitwise equal to the serial pass — the
    scoring is elementwise) and bincounts them into a partial per-pair
    sum; partials are reduced in block order, so the result is
    deterministic run-to-run and within fp-reassociation distance
    (≤1e-9 in practice) of the serial sums.
    """
    n_pairs = arrays.n_pairs
    ps_pair = arrays.ps_pair
    blocks = _block_slices(len(ps_pair), intra_workers)

    def score_block(block: slice):
        scratch = _thread_scratch()
        n = block.stop - block.start
        out_ind = scratch.array("blk_ind", n)
        out_ab = scratch.array("blk_ab", n)
        out_ba = scratch.array("blk_ba", n)
        _score_pair_rows(
            arrays,
            truth_codes,
            claim_acc,
            r=r,
            collision=collision,
            lo=lo,
            hi=hi,
            rows=block,
            out_ind=out_ind,
            out_ab=out_ab,
            out_ba=out_ba,
            scratch=scratch,
        )
        return (
            np.bincount(ps_pair[block], weights=out_ind, minlength=n_pairs),
            np.bincount(ps_pair[block], weights=out_ab, minlength=n_pairs),
            np.bincount(ps_pair[block], weights=out_ba, minlength=n_pairs),
        )

    partials = list(_intra_pool(intra_workers).map(score_block, blocks))
    sum_ind, sum_ab, sum_ba = partials[0]
    for part_ind, part_ab, part_ba in partials[1:]:
        sum_ind += part_ind
        sum_ab += part_ab
        sum_ba += part_ba
    return sum_ind, sum_ab, sum_ba


def pairwise_dependence_arrays(
    arrays: ClaimArrays,
    truth_codes: np.ndarray,
    claim_acc: np.ndarray,
    *,
    copy_prob_r: float,
    prior_alpha: float,
    collision: np.ndarray,
    accuracy_clamp: tuple[float, float] = (0.01, 0.99),
    intra_workers: int = 1,
    scratch: KernelScratch | None = None,
) -> DependenceArrays:
    """Step 1 (Eqs. 7-15) as one pass over the (pair, shared task) rows.

    Each flattened row contributes its log-likelihood terms to the three
    hypotheses of its pair (segment sums by pair), then Bayes' rule with
    the α/2 prior split normalizes in log space.  ``collision`` is the
    per-task false-value collision probability (Eq. 22's integral),
    typically :meth:`FalseValueDistribution.collision_array`.

    ``intra_workers > 1`` computes the segment sums over fixed
    contiguous row blocks on a thread pool, reduced in block order —
    deterministic run-to-run, ≤1e-9 from serial.  ``scratch`` reuses
    the serial path's temporaries across calls (defaults to the calling
    thread's shared scratch).
    """
    if not 0.0 < copy_prob_r < 1.0:
        raise ValueError(f"copy_prob_r must be in (0, 1), got {copy_prob_r}")
    if not 0.0 < prior_alpha < 1.0:
        raise ValueError(f"prior_alpha must be in (0, 1), got {prior_alpha}")
    if intra_workers < 1:
        raise ValueError(f"intra_workers must be >= 1, got {intra_workers}")
    lo, hi = accuracy_clamp

    if intra_workers > 1 and len(arrays.ps_pair) >= _MIN_PARALLEL_ROWS:
        sums = _pair_sums_blocked(
            arrays,
            truth_codes,
            claim_acc,
            r=copy_prob_r,
            collision=collision,
            lo=lo,
            hi=hi,
            intra_workers=intra_workers,
        )
    else:
        sums = _pair_sums_serial(
            arrays,
            truth_codes,
            claim_acc,
            r=copy_prob_r,
            collision=collision,
            lo=lo,
            hi=hi,
            scratch=scratch if scratch is not None else _thread_scratch(),
        )
    p_ab, p_ba = _dependence_posteriors(*sums, prior_alpha)
    return DependenceArrays(p_ab=p_ab, p_ba=p_ba)


@dataclass
class IncrementalStats:
    """Cheap always-on counters of one :class:`IncrementalDependence`.

    Plain ints updated unconditionally (a few adds per refresh — far
    below measurement noise), so ``repro metrics`` and the engine's
    convergence telemetry can report refresh hit rates without the
    registry being enabled during the run.
    """

    refreshes: int = 0
    full_passes: int = 0
    rows_rescored: int = 0
    rows_total: int = 0

    @property
    def incremental_refreshes(self) -> int:
        return self.refreshes - self.full_passes

    @property
    def rescore_fraction(self) -> float:
        """Mean fraction of pair rows re-scored per refresh (1.0 = full)."""
        denominator = self.refreshes * self.rows_total
        return self.rows_rescored / denominator if denominator else 0.0


class IncrementalDependence:
    """Updatable per-pair dependence aggregates (ROADMAP item 4).

    Maintains, between refreshes, every (pair, shared task) row's
    hypothesis log-likelihood contributions together with their
    per-pair sums and normalized posteriors.  A refresh that touches
    ``k`` tasks re-scores only those tasks' rows and re-sums only the
    pairs owning one, O(k · pairs-touched) instead of O(all pair rows).

    **Exactness.**  The refreshed state is *bit-identical* to a full
    :func:`pairwise_dependence_arrays` pass over the same inputs:

    - row scoring is elementwise (:func:`_score_pair_rows`), so
      re-scoring a subset reproduces the full pass's bits at those
      rows, and rows whose inputs (truth code, the two claim
      accuracies, the task's collision probability) did not change
      keep their cached contributions unchanged;
    - per-pair sums use the same sequential-accumulation primitive as
      the full pass (``np.bincount``), re-summing each *affected* pair
      over its full contiguous row segment — same addends, same order,
      same bits (``np.add.reduceat`` would not qualify: its pairwise
      summation reassociates);
    - posterior normalization is elementwise over pairs
      (:func:`_dependence_posteriors`), so renormalizing only the
      affected pairs leaves the rest bit-frozen.

    tests/property/test_property_incremental_dependence.py pins this
    against randomized edit and ingest sequences; DESIGN.md §12 has the
    full argument, including why the streaming dirty-task path keeps
    untouched rows' inputs frozen.
    """

    def __init__(
        self,
        arrays: ClaimArrays,
        *,
        copy_prob_r: float,
        prior_alpha: float,
        collision: np.ndarray,
        accuracy_clamp: tuple[float, float] = (0.01, 0.99),
    ):
        if not 0.0 < copy_prob_r < 1.0:
            raise ValueError(f"copy_prob_r must be in (0, 1), got {copy_prob_r}")
        if not 0.0 < prior_alpha < 1.0:
            raise ValueError(f"prior_alpha must be in (0, 1), got {prior_alpha}")
        self._r = copy_prob_r
        self._alpha = prior_alpha
        self._lo, self._hi = accuracy_clamp
        self._scratch = KernelScratch()
        self._truth_codes: np.ndarray | None = None
        self._claim_acc: np.ndarray | None = None
        self.stats = IncrementalStats()
        self._bind(arrays, collision)

    def _bind(self, arrays: ClaimArrays, collision: np.ndarray) -> None:
        self._arrays = arrays
        self._collision = np.array(collision, dtype=np.float64, copy=True)
        n_rows = len(arrays.ps_pair)
        n_pairs = arrays.n_pairs
        self._row_ind = np.empty(n_rows)
        self._row_ab = np.empty(n_rows)
        self._row_ba = np.empty(n_rows)
        self._sum_ind = np.empty(n_pairs)
        self._sum_ab = np.empty(n_pairs)
        self._sum_ba = np.empty(n_pairs)
        self._p_ab = np.empty(n_pairs)
        self._p_ba = np.empty(n_pairs)
        self.stats.rows_total = n_rows

    @property
    def arrays(self) -> ClaimArrays:
        """The claim arrays the aggregates are currently bound to."""
        return self._arrays

    def posteriors(self) -> DependenceArrays:
        """The current posteriors (copies — refreshes mutate in place)."""
        return DependenceArrays(p_ab=self._p_ab.copy(), p_ba=self._p_ba.copy())

    def refresh(
        self,
        truth_codes: np.ndarray,
        claim_acc: np.ndarray,
        touched_tasks: np.ndarray | None = None,
    ) -> DependenceArrays:
        """Bring the aggregates up to date with the given inputs.

        ``touched_tasks`` lists the task positions whose truth code or
        claim accuracies may differ from the previous refresh; ``None``
        diffs against the stored inputs (one vector compare — this is
        what lets a converging fixed point skip whole iterations of
        re-scoring).  The first refresh is always a full pass.
        """
        truth_codes = np.asarray(truth_codes, dtype=np.int64)
        claim_acc = np.asarray(claim_acc, dtype=np.float64)
        self.stats.refreshes += 1
        if self._truth_codes is None:
            self._refresh_full(truth_codes, claim_acc)
        else:
            if touched_tasks is None:
                touched_tasks = self._diff_tasks(truth_codes, claim_acc)
            self._refresh_tasks(
                np.asarray(touched_tasks, dtype=np.int64), truth_codes, claim_acc
            )
        self._truth_codes = truth_codes.copy()
        self._claim_acc = claim_acc.copy()
        return self.posteriors()

    def rebind(
        self,
        arrays: ClaimArrays,
        *,
        collision: np.ndarray,
        dirty_tasks,
        truth_codes: np.ndarray,
        claim_acc: np.ndarray,
    ) -> DependenceArrays:
        """Carry the aggregates across an index extension and refresh.

        ``arrays`` must extend the bound arrays in the sense of
        :meth:`~repro.core.indexing.DatasetIndex.extended`: task
        positions stable, every old (pair, shared task) row surviving.
        Inputs may differ from the stored state only on ``dirty_tasks``
        (tasks whose collision probability changed under the new index
        are detected and re-scored here as well) — exactly the contract
        the streaming ingest path satisfies, because its merge step
        writes truths and claim accuracies for dirty tasks only.

        Surviving rows and pairs carry their cached contributions over
        through a sorted-key scatter; new rows (all on dirty tasks —
        a clean shared task would mean the pair row already existed)
        are scored by the dirty refresh.
        """
        old = self._arrays
        truth_codes = np.asarray(truth_codes, dtype=np.int64)
        claim_acc = np.asarray(claim_acc, dtype=np.float64)
        collision = np.asarray(collision, dtype=np.float64)
        if self._truth_codes is None:
            self._bind(arrays, collision)
            return self.refresh(truth_codes, claim_acc)

        n_workers = arrays.index.n_workers
        n_tasks = arrays.index.n_tasks
        # Row identity is (pair worker ids, shared task).  Both tables
        # sort rows by (pair_a, pair_b, task) — lexicographic order is
        # preserved under the key below for any worker-count multiplier
        # — so old keys form an ascending subsequence of the new ones.
        old_keys = (
            old.pair_a[old.ps_pair] * n_workers + old.pair_b[old.ps_pair]
        ) * n_tasks + old.ps_task
        new_keys = (
            arrays.pair_a[arrays.ps_pair] * n_workers + arrays.pair_b[arrays.ps_pair]
        ) * n_tasks + arrays.ps_task
        row_pos = np.searchsorted(new_keys, old_keys)
        old_pair_keys = old.pair_a * n_workers + old.pair_b
        new_pair_keys = arrays.pair_a * n_workers + arrays.pair_b
        pair_pos = np.searchsorted(new_pair_keys, old_pair_keys)
        if (
            len(old_keys) > 0
            and not (
                np.array_equal(new_keys[np.minimum(row_pos, len(new_keys) - 1)], old_keys)
                and np.array_equal(
                    new_pair_keys[np.minimum(pair_pos, len(new_pair_keys) - 1)],
                    old_pair_keys,
                )
            )
        ):
            raise ValueError(
                "rebind target does not extend the bound claim arrays: "
                "an existing (pair, shared task) row is missing"
            )

        def carry(values: np.ndarray, size: int, positions: np.ndarray) -> np.ndarray:
            fresh = np.empty(size)
            fresh[positions] = values
            return fresh

        n_rows = len(new_keys)
        self._row_ind = carry(self._row_ind, n_rows, row_pos)
        self._row_ab = carry(self._row_ab, n_rows, row_pos)
        self._row_ba = carry(self._row_ba, n_rows, row_pos)
        n_pairs = arrays.n_pairs
        self._sum_ind = carry(self._sum_ind, n_pairs, pair_pos)
        self._sum_ab = carry(self._sum_ab, n_pairs, pair_pos)
        self._sum_ba = carry(self._sum_ba, n_pairs, pair_pos)
        self._p_ab = carry(self._p_ab, n_pairs, pair_pos)
        self._p_ba = carry(self._p_ba, n_pairs, pair_pos)

        touched = np.zeros(n_tasks, dtype=bool)
        touched[np.asarray(dirty_tasks, dtype=np.int64)] = True
        old_n_tasks = old.index.n_tasks
        # A non-dirty task's collision probability can still move under
        # data-driven false-value models (the empirical ones re-fit on
        # the grown campaign) — its rows must be re-scored too.
        touched[:old_n_tasks] |= collision[:old_n_tasks] != self._collision
        self._arrays = arrays
        self._collision = collision.copy()
        self.stats.rows_total = n_rows
        self.stats.refreshes += 1
        self._refresh_tasks(np.flatnonzero(touched), truth_codes, claim_acc)
        self._truth_codes = truth_codes.copy()
        self._claim_acc = claim_acc.copy()
        return self.posteriors()

    # -- internals -------------------------------------------------------

    def _diff_tasks(
        self, truth_codes: np.ndarray, claim_acc: np.ndarray
    ) -> np.ndarray:
        """Task positions whose inputs changed since the last refresh."""
        arrays = self._arrays
        changed = self._truth_codes != truth_codes
        changed[arrays.claim_task[self._claim_acc != claim_acc]] = True
        return np.flatnonzero(changed)

    def _refresh_full(self, truth_codes: np.ndarray, claim_acc: np.ndarray) -> None:
        arrays = self._arrays
        self.stats.full_passes += 1
        self.stats.rows_rescored += len(arrays.ps_pair)
        self._sum_ind, self._sum_ab, self._sum_ba = _pair_sums_serial(
            arrays,
            truth_codes,
            claim_acc,
            r=self._r,
            collision=self._collision,
            lo=self._lo,
            hi=self._hi,
            scratch=self._scratch,
            rows_out=(self._row_ind, self._row_ab, self._row_ba),
        )
        self._p_ab, self._p_ba = _dependence_posteriors(
            self._sum_ind, self._sum_ab, self._sum_ba, self._alpha
        )

    def _refresh_tasks(
        self,
        touched: np.ndarray,
        truth_codes: np.ndarray,
        claim_acc: np.ndarray,
    ) -> None:
        if len(touched) == 0:
            return
        arrays = self._arrays
        scratch = self._scratch
        task_row_ptr, rows_by_task = arrays.pair_rows_by_task
        rows = rows_by_task[
            _concat_ranges(
                task_row_ptr[touched], task_row_ptr[touched + 1] - task_row_ptr[touched]
            )
        ]
        if len(rows) == 0:
            return
        n = len(rows)
        self.stats.rows_rescored += n
        out_ind = scratch.array("inc_ind", n)
        out_ab = scratch.array("inc_ab", n)
        out_ba = scratch.array("inc_ba", n)
        _score_pair_rows(
            arrays,
            truth_codes,
            claim_acc,
            r=self._r,
            collision=self._collision,
            lo=self._lo,
            hi=self._hi,
            rows=rows,
            out_ind=out_ind,
            out_ab=out_ab,
            out_ba=out_ba,
            scratch=scratch,
        )
        self._row_ind[rows] = out_ind
        self._row_ab[rows] = out_ab
        self._row_ba[rows] = out_ba

        # Affected pairs = pairs owning a re-scored row (a boolean
        # scatter — orders of magnitude cheaper than np.unique here).
        mask = scratch.array("inc_pair_mask", arrays.n_pairs, bool)
        mask[:] = False
        mask[arrays.ps_pair[rows]] = True
        affected = np.flatnonzero(mask)
        pair_ptr = arrays.pair_ptr
        lengths = pair_ptr[affected + 1] - pair_ptr[affected]
        gathered = _concat_ranges(pair_ptr[affected], lengths)
        segments = np.repeat(np.arange(len(affected)), lengths)
        # Re-sum each affected pair over its full contiguous row
        # segment with the full pass's own primitive — same addends in
        # the same sequential order, hence the same bits.
        self._sum_ind[affected] = np.bincount(
            segments, weights=self._row_ind[gathered], minlength=len(affected)
        )
        self._sum_ab[affected] = np.bincount(
            segments, weights=self._row_ab[gathered], minlength=len(affected)
        )
        self._sum_ba[affected] = np.bincount(
            segments, weights=self._row_ba[gathered], minlength=len(affected)
        )
        p_ab, p_ba = _dependence_posteriors(
            self._sum_ind[affected],
            self._sum_ab[affected],
            self._sum_ba[affected],
            self._alpha,
        )
        self._p_ab[affected] = p_ab
        self._p_ba[affected] = p_ba


def independence_flat(
    arrays: ClaimArrays,
    dependence: DependenceArrays,
    *,
    copy_prob_r: float,
    ordering: str = "dependent_first",
    discount_mode: str = "directed",
    scratch: KernelScratch | None = None,
) -> np.ndarray:
    """Step 2 (Eq. 16): one independence probability per claim.

    If worker ``i`` copied value ``v``, its claim should not count as
    independent support for ``v``.  Enumerating every dependence
    structure is exponential, so the providers of each value are
    ordered greedily and each is discounted only against its
    predecessors: ``I_v^j(i) = Π_{i' before i} (1 - r · P(i → i' | D))``.
    The first worker has the highest total dependence inside the group
    (``ordering="dependent_first"``, the paper text; the lowest under
    ``"independent_first"``, the pseudocode's OCR-ambiguous line 16);
    each next pick is the remaining worker with the largest directed
    dependence on an already-selected one (Alg. 1 line 19).
    ``discount_mode="total"`` discounts by ``P(i → i') + P(i' → i)``
    instead — needed when a copier reproduces its source verbatim and
    the direction is unidentifiable (DESIGN.md §4).

    The greedy ordering inside each multi-provider value group is
    inherently sequential in the group *size*, but not across groups:
    all groups of one size run batched (``(G, m, m)`` tensors gathered
    through the O(pairs) :class:`DirectedDependenceLookup`), so the
    Python loop is one step per distinct group size — not per group.  Single-provider groups
    keep the definitional ``I = 1`` without being visited at all.

    Ties break on the worker index: groups store workers ascending, and
    ``argmax``/``argmin`` pick the first (smallest-index) element.
    """
    if not 0.0 < copy_prob_r < 1.0:
        raise ValueError(f"copy_prob_r must be in (0, 1), got {copy_prob_r}")
    if ordering not in ("dependent_first", "independent_first"):
        raise ValueError(
            "ordering must be 'dependent_first' or 'independent_first', "
            f"got {ordering!r}"
        )
    if discount_mode not in ("directed", "total"):
        raise ValueError(
            f"discount_mode must be 'directed' or 'total', got {discount_mode!r}"
        )
    r = copy_prob_r
    scratch = scratch if scratch is not None else _thread_scratch()
    indep = np.ones(arrays.n_claims, dtype=np.float64)
    buckets = arrays.multi_group_buckets
    if not buckets:
        return indep

    # O(pairs) sorted-key lookup — the dense n_workers² matrix is never
    # materialized, so dependence memory scales with co-answering pairs.
    directed = DirectedDependenceLookup.build(arrays, dependence)
    for m, claim_idx in buckets:
        members = arrays.claim_worker[claim_idx]  # (G, m)
        sub = directed.gather(members[:, :, None], members[:, None, :])  # (G, m, m)
        n_groups = len(members)
        total_sub = np.add(
            sub, sub.transpose(0, 2, 1), out=scratch.array("if_total", (n_groups, m, m))
        )
        totals = np.sum(total_sub, axis=2, out=scratch.array("if_totals", (n_groups, m)))
        if ordering == "dependent_first":
            first = np.argmax(totals, axis=1)
        else:
            first = np.argmin(totals, axis=1)

        rows = np.arange(n_groups)
        order = scratch.array("if_order", (n_groups, m), np.int64)
        order[:, 0] = first
        selected = scratch.array("if_selected", (n_groups, m), bool)
        selected[:] = False
        selected[rows, first] = True
        # Best directed attachment to any already-selected member
        # (Alg. 1 line 19), grown one selection at a time for every
        # group of this size simultaneously.
        attachment = scratch.array("if_attach", (n_groups, m))
        attachment[:] = sub[rows, :, first]
        masked = scratch.array("if_masked", (n_groups, m))
        for position in range(1, m):
            np.copyto(masked, attachment)
            masked[selected] = -np.inf
            nxt = np.argmax(masked, axis=1)
            order[:, position] = nxt
            selected[rows, nxt] = True
            np.maximum(attachment, sub[rows, :, nxt], out=attachment)

        discount_source = sub if discount_mode == "directed" else total_sub
        ordered = discount_source[
            rows[:, None, None], order[:, :, None], order[:, None, :]
        ]
        # score[k] = prod over predecessors l < k of (1 - r * dep[k, l]);
        # non-predecessor entries contribute a factor of exactly 1.
        factors = np.multiply(ordered, -r, out=scratch.array("if_factors", (n_groups, m, m)))
        np.add(factors, 1.0, out=factors)
        factors[:, ~np.tri(m, k=-1, dtype=bool)] = 1.0
        flat_positions = np.take_along_axis(claim_idx, order, axis=1)
        indep[flat_positions] = np.prod(factors, axis=2)
    return indep


def _segment_softmax(scores: np.ndarray, seg_ids: np.ndarray, ptr: np.ndarray) -> np.ndarray:
    """Softmax within each segment of a flat score array.

    ``seg_ids`` assigns each element to a segment; ``ptr`` is the CSR
    pointer of the (contiguous) segments; exponentiation is shifted by
    each segment's peak.
    """
    n_seg = len(ptr) - 1
    if len(scores) == 0:
        return scores.copy()
    starts = ptr[:-1]
    nonempty = ptr[1:] > starts
    peak = np.full(n_seg, -np.inf)
    peak[nonempty] = np.maximum.reduceat(scores, starts[nonempty])
    weights = np.exp(scores - peak[seg_ids])
    totals = np.bincount(seg_ids, weights=weights, minlength=n_seg)
    return weights / totals[seg_ids]


def _plain_terms(
    arrays: ClaimArrays,
    claim_acc: np.ndarray,
    value_q: np.ndarray,
    *,
    lo: float,
    hi: float,
    block: slice,
    scratch: KernelScratch,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-claim ``(ln A, ln((1-A) q))`` for one contiguous claim block."""
    n = block.stop - block.start
    acc = np.clip(claim_acc[block], lo, hi, out=scratch.array("pp_acc", n))
    log_acc = np.log(acc, out=scratch.array("pp_log_acc", n))
    log_false = np.subtract(1.0, acc, out=scratch.array("pp_log_false", n))
    q = np.take(value_q, arrays.claim_group[block], out=scratch.array("pp_q", n))
    np.multiply(log_false, q, out=log_false)
    np.maximum(log_false, _MIN_PROB, out=log_false)
    np.log(log_false, out=log_false)
    return log_acc, log_false


def plain_posterior_groups(
    arrays: ClaimArrays,
    claim_acc: np.ndarray,
    *,
    false_values,
    accuracy_clamp: tuple[float, float] = (0.01, 0.99),
    intra_workers: int = 1,
    scratch: KernelScratch | None = None,
) -> np.ndarray:
    """Eq. 20 posteriors (undiscounted), one probability per value group.

    The likelihood of the task's claims given that value ``v`` is true
    is ``Π_{i ∈ W_v} A_i · Π_{i ∉ W_v} (1 - A_i) · q_j(v_i | v)``
    (Eq. 18, generalized by Eq. 23); a uniform prior over the observed
    values turns it into the posterior (Alg. 1 line 23).  When the
    false-value model is candidate-free (the uniform default: ``q``
    depends only on the task), the whole computation is three segment
    sums — optionally blocked over ``intra_workers`` threads with the
    partials reduced in block order; otherwise each task builds its
    small ``K x K`` false-value matrix through the scalar model API.
    """
    lo, hi = accuracy_clamp
    index = arrays.index
    scratch = scratch if scratch is not None else _thread_scratch()

    if getattr(false_values, "candidate_free", False):
        value_q = false_values.value_probability_array(index)
        n_claims = arrays.n_claims
        # Score of group g = Σ_{claims in g} log A + Σ_{other claims of
        # the task} log((1-A) q): per-task totals minus the group's own.
        if intra_workers > 1 and n_claims >= _MIN_PARALLEL_ROWS:

            def sum_block(block: slice):
                log_acc, log_false = _plain_terms(
                    arrays,
                    claim_acc,
                    value_q,
                    lo=lo,
                    hi=hi,
                    block=block,
                    scratch=_thread_scratch(),
                )
                return (
                    np.bincount(
                        arrays.claim_task[block],
                        weights=log_false,
                        minlength=index.n_tasks,
                    ),
                    np.bincount(
                        arrays.claim_group[block],
                        weights=log_acc,
                        minlength=arrays.n_groups,
                    ),
                    np.bincount(
                        arrays.claim_group[block],
                        weights=log_false,
                        minlength=arrays.n_groups,
                    ),
                )

            partials = list(
                _intra_pool(intra_workers).map(
                    sum_block, _block_slices(n_claims, intra_workers)
                )
            )
            task_false, own_acc, own_false = partials[0]
            for part_task, part_acc, part_false in partials[1:]:
                task_false += part_task
                own_acc += part_acc
                own_false += part_false
        else:
            log_acc, log_false = _plain_terms(
                arrays,
                claim_acc,
                value_q,
                lo=lo,
                hi=hi,
                block=slice(0, n_claims),
                scratch=scratch,
            )
            task_false = np.bincount(
                arrays.claim_task, weights=log_false, minlength=index.n_tasks
            )
            own_acc = np.bincount(
                arrays.claim_group, weights=log_acc, minlength=arrays.n_groups
            )
            own_false = np.bincount(
                arrays.claim_group, weights=log_false, minlength=arrays.n_groups
            )
        scores = own_acc + task_false[arrays.group_task] - own_false
        return _segment_softmax(scores, arrays.group_task, arrays.task_group_ptr)

    # General model: per-task K x K false-value matrices, computed once
    # per index (they are iteration-invariant) and cached on the model.
    acc = np.clip(claim_acc, lo, hi)
    log_acc = np.log(acc)
    q_matrices = false_values.value_probability_matrices(index)
    scores = np.empty(arrays.n_groups, dtype=np.float64)
    for j in range(index.n_tasks):
        g0, g1 = int(arrays.task_group_ptr[j]), int(arrays.task_group_ptr[j + 1])
        if g0 == g1:
            continue
        c0, c1 = int(arrays.task_ptr[j]), int(arrays.task_ptr[j + 1])
        q = q_matrices[j]
        codes = arrays.claim_code[c0:c1]
        acc_j = acc[c0:c1]
        contrib = _safe_log((1.0 - acc_j)[:, None] * q[codes, :])
        own = codes[:, None] == np.arange(g1 - g0)[None, :]
        contrib = np.where(own, log_acc[c0:c1, None], contrib)
        scores[g0:g1] = contrib.sum(axis=0)
    return _segment_softmax(scores, arrays.group_task, arrays.task_group_ptr)


def _discount_terms(
    arrays: ClaimArrays,
    claim_acc: np.ndarray,
    indep: np.ndarray,
    group_q: np.ndarray,
    *,
    lo: float,
    hi: float,
    block: slice,
    scratch: KernelScratch,
) -> np.ndarray:
    """Per-claim ``I · (ln A - ln((1-A) q))`` for one contiguous block."""
    n = block.stop - block.start
    acc = np.clip(claim_acc[block], lo, hi, out=scratch.array("dq_acc", n))
    term = np.log(acc, out=scratch.array("dq_term", n))
    false_part = np.subtract(1.0, acc, out=scratch.array("dq_false", n))
    q = np.take(group_q, arrays.claim_group[block], out=scratch.array("dq_q", n))
    np.multiply(false_part, q, out=false_part)
    np.maximum(false_part, _MIN_PROB, out=false_part)
    np.log(false_part, out=false_part)
    np.subtract(term, false_part, out=term)
    np.multiply(term, indep[block], out=term)
    return term


def discounted_posterior_groups(
    arrays: ClaimArrays,
    claim_acc: np.ndarray,
    indep: np.ndarray,
    *,
    group_q: np.ndarray,
    accuracy_clamp: tuple[float, float] = (0.01, 0.99),
    intra_workers: int = 1,
    scratch: KernelScratch | None = None,
) -> np.ndarray:
    """Independence-weighted posteriors, one per value group.

    Alg. 1 line 23 as written ignores the dependence discount, so
    copier-inflated majorities corrupt the accuracy estimates even once
    step 2 has found the copiers.  Following Dong et al. [15], each
    claim contributes ``I · (ln A - ln((1-A) q))`` to its group's
    log score; scores are softmax-normalized per task.  With every
    ``I = 1`` this is Eq. 20 exactly.  ``group_q`` is
    the per-group false-value probability (already floored at the
    likelihood clamp), typically
    :meth:`FalseValueDistribution.value_probability_array`.

    ``intra_workers > 1`` sums fixed contiguous claim blocks on the
    shared thread pool, reducing partials in block order (deterministic
    run-to-run, ≤1e-9 from serial).
    """
    lo, hi = accuracy_clamp
    n_claims = arrays.n_claims
    if intra_workers > 1 and n_claims >= _MIN_PARALLEL_ROWS:

        def sum_block(block: slice):
            term = _discount_terms(
                arrays,
                claim_acc,
                indep,
                group_q,
                lo=lo,
                hi=hi,
                block=block,
                scratch=_thread_scratch(),
            )
            return np.bincount(
                arrays.claim_group[block], weights=term, minlength=arrays.n_groups
            )

        partials = list(
            _intra_pool(intra_workers).map(
                sum_block, _block_slices(n_claims, intra_workers)
            )
        )
        scores = partials[0]
        for part in partials[1:]:
            scores += part
    else:
        term = _discount_terms(
            arrays,
            claim_acc,
            indep,
            group_q,
            lo=lo,
            hi=hi,
            block=slice(0, n_claims),
            scratch=scratch if scratch is not None else _thread_scratch(),
        )
        scores = np.bincount(
            arrays.claim_group, weights=term, minlength=arrays.n_groups
        )
    return _segment_softmax(scores, arrays.group_task, arrays.task_group_ptr)


def accuracy_flat(
    arrays: ClaimArrays,
    group_post: np.ndarray,
    *,
    granularity: str = "worker",
) -> np.ndarray:
    """Eq. 17: refresh the per-claim accuracies from the posteriors.

    ``"worker"`` granularity averages each worker's claim posteriors and
    broadcasts the mean back to its claims; ``"task"`` keeps the
    per-claim posterior.
    """
    if granularity not in ("worker", "task"):
        raise ValueError(
            f"granularity must be one of ('worker', 'task'), got {granularity!r}"
        )
    posterior = group_post[arrays.claim_group]
    if granularity == "task":
        return posterior
    n_workers = arrays.index.n_workers
    sums = np.bincount(arrays.claim_worker, weights=posterior, minlength=n_workers)
    counts = np.bincount(arrays.claim_worker, minlength=n_workers)
    means = np.divide(
        sums, counts, out=np.zeros(n_workers), where=counts > 0
    )
    return means[arrays.claim_worker]


def support_flat(
    arrays: ClaimArrays,
    claim_acc: np.ndarray,
    indep: np.ndarray,
    *,
    similarity=None,
    similarity_weight: float = 0.0,
) -> np.ndarray:
    """Alg. 1 line 28: support count per value group, one segment sum.

    The optional Sec. IV-A adjustment (Eq. 21) runs per task over the
    group totals: a worker submits one value per task, so the "providers
    of v' outside W_v" in the formula are simply all of W_v', and the
    bonus is ``ρ · Σ sim(v, v') · sc_j(v')`` over the base counts.
    """
    if similarity is not None and not 0.0 <= similarity_weight <= 1.0:
        raise ValueError(
            f"similarity_weight must be in [0, 1], got {similarity_weight}"
        )
    base = np.bincount(
        arrays.claim_group, weights=claim_acc * indep, minlength=arrays.n_groups
    )
    if similarity is None or similarity_weight == 0.0:
        return base
    adjusted = base.copy()
    for j in range(arrays.index.n_tasks):
        g0, g1 = int(arrays.task_group_ptr[j]), int(arrays.task_group_ptr[j + 1])
        if g1 - g0 <= 1:
            continue
        values = arrays.group_values[g0:g1]
        for gi in range(g0, g1):
            bonus = 0.0
            for gk in range(g0, g1):
                if gk == gi:
                    continue
                sim = similarity(values[gi - g0], values[gk - g0])
                if sim > 0.0:
                    bonus += sim * base[gk]
            adjusted[gi] = base[gi] + similarity_weight * bonus
    return adjusted


def select_truth_codes(arrays: ClaimArrays, group_support: np.ndarray) -> np.ndarray:
    """Line 28's argmax: per-task winning value code (ties to smallest)."""
    return segment_first_argmax_code(
        group_support, arrays.group_task, arrays.group_code, arrays.task_group_ptr
    )


# -- conversions back to the string-keyed public structures --------------
#
# These take the bare index arrays, not a ClaimArrays, so a result can
# decode its views without keeping the whole index alive.


def dense_accuracy(
    claim_worker: np.ndarray,
    claim_task: np.ndarray,
    claim_acc: np.ndarray,
    shape: tuple[int, int],
) -> np.ndarray:
    """Scatter the flat per-claim accuracies into the dense ``A`` matrix."""
    matrix = np.zeros(shape, dtype=np.float64)
    matrix[claim_worker, claim_task] = claim_acc
    return matrix


def support_table(
    task_group_ptr: np.ndarray, group_values: tuple[str, ...], values: np.ndarray
) -> list[dict[str, float]]:
    """Per-group support (or posteriors) -> ``[{value: number}]`` per task."""
    bounds = task_group_ptr.tolist()
    flat = values.tolist()
    return [
        {group_values[g]: flat[g] for g in range(g0, g1)}
        for g0, g1 in zip(bounds, bounds[1:])
    ]


#: Per-group posteriors convert exactly like support.
posterior_table = support_table


def dependence_table(
    pair_a: np.ndarray, pair_b: np.ndarray, p_ab: np.ndarray, p_ba: np.ndarray
) -> dict[tuple[int, int], DependencePosterior]:
    """Pair arrays -> the ``(a, b) -> DependencePosterior`` dict."""
    return {
        (a, b): DependencePosterior(p_a_to_b=ab, p_b_to_a=ba)
        for a, b, ab, ba in zip(
            pair_a.tolist(), pair_b.tolist(), p_ab.tolist(), p_ba.tolist()
        )
    }
