"""Integer-indexed views of a :class:`~repro.types.Dataset`.

DATE's inner loops touch the same derived structures every iteration:
claims by task, value groups ``W_v^j``, the co-answering worker pairs,
and each pair's shared tasks.  :class:`DatasetIndex` computes them once,
mapping string ids to dense integer indexes so the hot paths work on
ints and numpy arrays.

:class:`ClaimArrays` (reachable as :attr:`DatasetIndex.arrays`) goes one
step further: every claim value is replaced by a small per-task integer
code and all per-claim, per-value-group and per-worker-pair structures
are flattened into contiguous numpy arrays (CSR style).  The DATE
kernels (:mod:`repro.core.engine`) run entirely on these arrays; see
DESIGN.md §7 for the encoding.

Streaming campaigns (:mod:`repro.streaming`) grow an existing index one
claim batch at a time through :meth:`DatasetIndex.extended`: only the
*dirty* tasks — those receiving new claims, plus appended tasks — are
re-encoded, every clean CSR segment is spliced across with bulk numpy
copies, and the old index stays valid (shared sub-structures are never
mutated).  DESIGN.md §8 documents the dirty-task invariants.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from ..errors import DataFormatError
from ..types import Dataset, Task, WorkerProfile

__all__ = ["ClaimArrays", "DatasetIndex", "IndexExtension"]


class DatasetIndex:
    """Precomputed integer-indexed structures for one dataset.

    The index is read-only; all algorithms in :mod:`repro.core` and
    :mod:`repro.baselines` accept either a dataset (and build an index
    internally) or a prebuilt index (to share the cost across
    algorithms, as the benchmark harness does).
    """

    def __init__(self, dataset: Dataset):
        self.dataset = dataset
        #: Task ids in dataset order; positions are the task indexes used below.
        self.task_ids: list[str] = [t.task_id for t in dataset.tasks]
        #: Worker ids in dataset order; positions are the worker indexes.
        self.worker_ids: list[str] = [w.worker_id for w in dataset.workers]
        self.task_pos: dict[str, int] = {t: j for j, t in enumerate(self.task_ids)}
        self.worker_pos: dict[str, int] = {w: i for i, w in enumerate(self.worker_ids)}

        n_tasks = len(self.task_ids)
        n_workers = len(self.worker_ids)
        #: ``claims_by_task[j]`` is ``{worker_index: value}``.
        self.claims_by_task: list[dict[int, str]] = [{} for _ in range(n_tasks)]
        #: ``claims_by_worker[i]`` is ``{task_index: value}``.
        self.claims_by_worker: list[dict[int, str]] = [{} for _ in range(n_workers)]
        for (worker_id, task_id), value in dataset.claims.items():
            i = self.worker_pos[worker_id]
            j = self.task_pos[task_id]
            self.claims_by_task[j][i] = value
            self.claims_by_worker[i][j] = value

        #: ``value_groups[j]`` is ``{value: sorted tuple of worker indexes}``
        #: (the paper's ``W_v^j``), with values in sorted order for
        #: deterministic iteration.
        self.value_groups: list[dict[str, tuple[int, ...]]] = []
        for j in range(n_tasks):
            groups: dict[str, list[int]] = {}
            for i, value in self.claims_by_task[j].items():
                groups.setdefault(value, []).append(i)
            self.value_groups.append(
                {v: tuple(sorted(ws)) for v, ws in sorted(groups.items())}
            )

        #: Effective ``num_j`` (count of false values) per task: the
        #: declared closed-domain size minus one, or the observed number
        #: of distinct values minus one for open domains; at least 1 so
        #: the false-value probability ``(1 - A)/num`` stays finite.
        self.num_false = np.empty(n_tasks, dtype=np.int64)
        for j, task in enumerate(dataset.tasks):
            if task.domain:
                num = task.num_false
            else:
                num = len(self.value_groups[j]) - 1
            self.num_false[j] = max(num, 1)

    @property
    def n_tasks(self) -> int:
        return len(self.task_ids)

    @property
    def n_workers(self) -> int:
        return len(self.worker_ids)

    @cached_property
    def worker_task_sets(self) -> list[frozenset[int]]:
        """Task-index set answered by each worker."""
        return [frozenset(claims) for claims in self.claims_by_worker]

    @cached_property
    def pairs(self) -> list[tuple[int, int]]:
        """All worker pairs ``(a, b)`` with ``a < b`` sharing at least one task.

        Dependence is only defined (and only informative) for pairs that
        co-answered something, so step 1 iterates exactly this list.
        """
        seen: set[tuple[int, int]] = set()
        for claims in self.claims_by_task:
            members = sorted(claims)
            for x in range(len(members)):
                for y in range(x + 1, len(members)):
                    seen.add((members[x], members[y]))
        return sorted(seen)

    @cached_property
    def shared_tasks(self) -> dict[tuple[int, int], tuple[int, ...]]:
        """``(a, b) -> task indexes answered by both`` for every pair."""
        shared: dict[tuple[int, int], list[int]] = {p: [] for p in self.pairs}
        for j, claims in enumerate(self.claims_by_task):
            members = sorted(claims)
            for x in range(len(members)):
                for y in range(x + 1, len(members)):
                    shared[(members[x], members[y])].append(j)
        return {p: tuple(ts) for p, ts in shared.items()}

    @cached_property
    def arrays(self) -> "ClaimArrays":
        """The integer-coded, flattened claim arrays for this dataset."""
        return ClaimArrays(self)

    # ------------------------------------------------------------------
    # Incremental extension (streaming append path)
    # ------------------------------------------------------------------

    def extended(
        self,
        *,
        tasks: Iterable[Task] = (),
        workers: Iterable[WorkerProfile] = (),
        claims: Mapping[tuple[str, str], str] | None = None,
    ) -> "IndexExtension":
        """Return a new index with ``tasks``/``workers``/``claims`` appended.

        Only the *delta* is validated and re-encoded: tasks receiving
        new claims (plus appended tasks) are marked dirty and rebuilt;
        every other per-task structure — claim dicts, value groups, CSR
        segments of :attr:`arrays` — is shared or bulk-copied from this
        index, so the cost is O(affected segments + memcpy), not a full
        re-encode.  ``self`` is left untouched and remains valid.

        Raises :class:`~repro.errors.DataFormatError` for ids that
        collide with existing ones, claims referencing unknown tasks or
        workers, out-of-domain values, and duplicate ``(worker, task)``
        claims — the invariants streaming replay depends on.
        """
        tasks = tuple(tasks)
        workers = tuple(workers)
        claims = dict(claims or {})
        self._validate_extension(tasks, workers, claims)

        old_n_tasks, old_n_workers = self.n_tasks, self.n_workers
        merged = dict(self.dataset.claims)
        merged.update(claims)
        dataset = _dataset_append(self.dataset, tasks, workers, merged)

        new = object.__new__(DatasetIndex)
        new.dataset = dataset
        new.task_ids = self.task_ids + [t.task_id for t in tasks]
        new.worker_ids = self.worker_ids + [w.worker_id for w in workers]
        new.task_pos = dict(self.task_pos)
        for offset, task in enumerate(tasks):
            new.task_pos[task.task_id] = old_n_tasks + offset
        new.worker_pos = dict(self.worker_pos)
        for offset, worker in enumerate(workers):
            new.worker_pos[worker.worker_id] = old_n_workers + offset

        dirty_set = {new.task_pos[task_id] for (_, task_id) in claims}
        dirty_set.update(range(old_n_tasks, len(new.task_ids)))
        dirty = np.asarray(sorted(dirty_set), dtype=np.int64)

        # Copy-on-write: dirty tasks (and touched workers) get fresh
        # dicts; clean ones are shared with the old, read-only index.
        by_task = list(self.claims_by_task) + [{} for _ in tasks]
        for j in dirty_set:
            if j < old_n_tasks:
                by_task[j] = dict(by_task[j])
        by_worker = list(self.claims_by_worker) + [{} for _ in workers]
        for i in {new.worker_pos[worker_id] for (worker_id, _) in claims}:
            if i < old_n_workers:
                by_worker[i] = dict(by_worker[i])
        for (worker_id, task_id), value in claims.items():
            i, j = new.worker_pos[worker_id], new.task_pos[task_id]
            by_task[j][i] = value
            by_worker[i][j] = value
        new.claims_by_task = by_task
        new.claims_by_worker = by_worker

        value_groups = list(self.value_groups) + [{} for _ in tasks]
        for j in dirty:
            groups: dict[str, list[int]] = {}
            for i, value in by_task[int(j)].items():
                groups.setdefault(value, []).append(i)
            value_groups[int(j)] = {
                v: tuple(sorted(ws)) for v, ws in sorted(groups.items())
            }
        new.value_groups = value_groups

        num_false = np.empty(len(new.task_ids), dtype=np.int64)
        num_false[:old_n_tasks] = self.num_false
        for j in dirty:
            task = dataset.tasks[int(j)]
            num = task.num_false if task.domain else len(value_groups[int(j)]) - 1
            num_false[int(j)] = max(num, 1)
        new.num_false = num_false

        claim_map = None
        if "arrays" in self.__dict__:
            arrays, claim_map = _extend_claim_arrays(
                self.arrays, new, dirty, old_n_tasks
            )
            new.__dict__["arrays"] = arrays
        return IndexExtension(
            index=new,
            dirty_tasks=dirty,
            new_task_positions=np.arange(old_n_tasks, new.n_tasks, dtype=np.int64),
            new_worker_positions=np.arange(
                old_n_workers, new.n_workers, dtype=np.int64
            ),
            claim_map=claim_map,
        )

    def validate_extension(
        self,
        *,
        tasks: Iterable[Task] = (),
        workers: Iterable[WorkerProfile] = (),
        claims: Mapping[tuple[str, str], str] | None = None,
    ) -> None:
        """Validate a delta without building the extension.

        Runs exactly the checks :meth:`extended` performs — colliding
        ids, claims on unknown tasks or workers, duplicate ``(worker,
        task)`` claims, out-of-domain values — and raises
        :class:`~repro.errors.DataFormatError` on the first violation,
        touching nothing.  The durable streaming store calls this
        *before* a batch reaches the write-ahead journal, so a rejected
        batch never persists as an unreplayable record.
        """
        self._validate_extension(tuple(tasks), tuple(workers), dict(claims or {}))

    def _validate_extension(
        self,
        tasks: tuple[Task, ...],
        workers: tuple[WorkerProfile, ...],
        claims: dict[tuple[str, str], str],
    ) -> None:
        """Check the delta against this index (old rows are known-valid)."""
        new_task_by_id: dict[str, Task] = {}
        for task in tasks:
            if task.task_id in self.task_pos or task.task_id in new_task_by_id:
                raise DataFormatError(
                    f"extension re-adds existing task {task.task_id!r}"
                )
            new_task_by_id[task.task_id] = task
        new_worker_ids: set[str] = set()
        for worker in workers:
            if worker.worker_id in self.worker_pos or worker.worker_id in new_worker_ids:
                raise DataFormatError(
                    f"extension re-adds existing worker {worker.worker_id!r}"
                )
            new_worker_ids.add(worker.worker_id)
        for worker in workers:
            for source in worker.sources:
                if source not in self.worker_pos and source not in new_worker_ids:
                    raise DataFormatError(
                        f"worker {worker.worker_id} copies from unknown "
                        f"worker {source!r}"
                    )
        for (worker_id, task_id), value in claims.items():
            if worker_id not in self.worker_pos and worker_id not in new_worker_ids:
                raise DataFormatError(
                    f"claim references unknown worker {worker_id!r}"
                )
            task = new_task_by_id.get(task_id)
            if task is None:
                j = self.task_pos.get(task_id)
                if j is None:
                    raise DataFormatError(
                        f"claim references unknown task {task_id!r}"
                    )
                task = self.dataset.tasks[j]
                i = self.worker_pos.get(worker_id)
                if i is not None and i in self.claims_by_task[j]:
                    raise DataFormatError(
                        f"duplicate claim: worker {worker_id!r} already "
                        f"answered task {task_id!r}"
                    )
            if not isinstance(value, str) or not value:
                raise DataFormatError(
                    f"claim ({worker_id}, {task_id}): value must be a "
                    "non-empty string"
                )
            if task.domain and value not in task.domain:
                raise DataFormatError(
                    f"claim ({worker_id}, {task_id}): value {value!r} "
                    "not in the task's closed domain"
                )


@dataclass(frozen=True)
class IndexExtension:
    """Result of :meth:`DatasetIndex.extended`.

    Attributes
    ----------
    index:
        The extended index (the source index is untouched).
    dirty_tasks:
        Sorted task positions (in the *new* index) whose encodings were
        rebuilt: tasks that received new claims plus appended tasks.
        Task positions of pre-existing tasks are stable across
        extensions, so these double as "affected segment" ids.
    new_task_positions / new_worker_positions:
        Positions of the appended tasks / workers in the new index.
    claim_map:
        ``old claim position -> new claim position`` into the extended
        :class:`ClaimArrays`, for carrying per-claim state (for example
        accuracies) across the extension.  ``None`` when the source
        index never materialized its ``arrays`` (the new index then
        encodes lazily from scratch on first use).
    """

    index: DatasetIndex
    dirty_tasks: np.ndarray
    new_task_positions: np.ndarray
    new_worker_positions: np.ndarray
    claim_map: np.ndarray | None


def _dataset_append(
    old: Dataset,
    tasks: tuple[Task, ...],
    workers: tuple[WorkerProfile, ...],
    merged_claims: dict[tuple[str, str], str],
) -> Dataset:
    """Assemble the extended :class:`Dataset` without re-validation.

    ``Dataset.__post_init__`` walks every claim; the caller has already
    validated the delta against a known-valid dataset, so the extended
    snapshot is assembled field-by-field to keep the append path
    O(affected).
    """
    dataset = object.__new__(Dataset)
    object.__setattr__(dataset, "tasks", old.tasks + tasks)
    object.__setattr__(dataset, "workers", old.workers + workers)
    object.__setattr__(dataset, "claims", merged_claims)
    return dataset


@dataclass(frozen=True, eq=False)
class ClaimArrays:
    """Integer-coded, CSR-flattened view of one dataset's claims.

    Values are replaced by per-task integer *codes*: the distinct values
    observed on task ``j`` are sorted lexicographically and numbered
    ``0..K_j-1``, so the lexicographic tie-breaks used throughout the
    scalar code become "smallest code" on the array side.

    Claims are stored once, sorted by ``(task, code, worker)``.  That
    single ordering makes three structures contiguous at the same time:

    - tasks (``task_ptr`` slices claims per task),
    - value groups ``W_v^j`` (``group_ptr`` slices claims per
      (task, value) group; groups of one task are adjacent and ordered
      by code),
    - and, within a group, workers ascending (matching the sorted
      tuples of :attr:`DatasetIndex.value_groups`).

    The co-answering worker pairs are flattened the same way: one row
    per (pair, shared task), grouped by pair via ``pair_ptr``, with
    ``ps_claim_a``/``ps_claim_b`` pointing back into the claim arrays so
    per-claim state (accuracy, codes) is a single gather away.
    """

    index: "DatasetIndex"

    # -- claims, sorted by (task, code, worker) --------------------------
    claim_task: np.ndarray = field(init=False)
    claim_worker: np.ndarray = field(init=False)
    claim_code: np.ndarray = field(init=False)
    claim_group: np.ndarray = field(init=False)
    task_ptr: np.ndarray = field(init=False)

    # -- value groups, in (task, code) order -----------------------------
    group_ptr: np.ndarray = field(init=False)
    group_task: np.ndarray = field(init=False)
    group_code: np.ndarray = field(init=False)
    group_size: np.ndarray = field(init=False)
    group_values: tuple[str, ...] = field(init=False)
    task_group_ptr: np.ndarray = field(init=False)

    # -- worker -> claim CSR ---------------------------------------------
    worker_ptr: np.ndarray = field(init=False)
    worker_claims: np.ndarray = field(init=False)

    # The co-answering pair tables (pair_a, pair_b, pair_ptr, ps_*) are
    # lazy cached properties: only the dependence kernels read them, and
    # their O(Σ m_j²) size should not tax algorithms that never look
    # (majority voting, NC).

    def __post_init__(self) -> None:
        index = self.index
        n_tasks, n_workers = index.n_tasks, index.n_workers

        claim_task: list[int] = []
        claim_worker: list[int] = []
        claim_code: list[int] = []
        claim_group: list[int] = []
        group_task: list[int] = []
        group_code: list[int] = []
        group_size: list[int] = []
        group_values: list[str] = []
        task_ptr = np.zeros(n_tasks + 1, dtype=np.int64)
        task_group_ptr = np.zeros(n_tasks + 1, dtype=np.int64)
        for j in range(n_tasks):
            # value_groups[j] iterates values in sorted order; workers in
            # each group are already sorted ascending.
            for code, (value, workers) in enumerate(index.value_groups[j].items()):
                group = len(group_task)
                group_task.append(j)
                group_code.append(code)
                group_size.append(len(workers))
                group_values.append(value)
                for worker in workers:
                    claim_task.append(j)
                    claim_worker.append(worker)
                    claim_code.append(code)
                    claim_group.append(group)
            task_ptr[j + 1] = len(claim_task)
            task_group_ptr[j + 1] = len(group_task)

        set_ = object.__setattr__
        set_(self, "claim_task", np.asarray(claim_task, dtype=np.int64))
        set_(self, "claim_worker", np.asarray(claim_worker, dtype=np.int64))
        set_(self, "claim_code", np.asarray(claim_code, dtype=np.int64))
        set_(self, "claim_group", np.asarray(claim_group, dtype=np.int64))
        set_(self, "task_ptr", task_ptr)
        set_(self, "group_task", np.asarray(group_task, dtype=np.int64))
        set_(self, "group_code", np.asarray(group_code, dtype=np.int64))
        set_(self, "group_size", np.asarray(group_size, dtype=np.int64))
        set_(self, "group_values", tuple(group_values))
        set_(self, "task_group_ptr", task_group_ptr)
        group_ptr = np.zeros(len(group_task) + 1, dtype=np.int64)
        np.cumsum(self.group_size, out=group_ptr[1:])
        set_(self, "group_ptr", group_ptr)

        # Worker -> claim CSR: claim indexes sorted by (worker, task).
        order = np.lexsort((self.claim_task, self.claim_worker))
        worker_ptr = np.zeros(n_workers + 1, dtype=np.int64)
        np.cumsum(
            np.bincount(self.claim_worker, minlength=n_workers), out=worker_ptr[1:]
        )
        set_(self, "worker_ptr", worker_ptr)
        set_(self, "worker_claims", order)

    @cached_property
    def _pair_tables(self) -> tuple[np.ndarray, ...]:
        """Pair tables: every unordered co-answering pair, one row per
        shared task, grouped by pair and ordered by task within a pair
        (mirroring :attr:`DatasetIndex.shared_tasks`).  Built on first
        access — only the dependence kernels need them.
        """
        n_tasks = self.index.n_tasks
        n_workers = self.index.n_workers
        task_ptr = self.task_ptr
        ca_parts: list[np.ndarray] = []
        cb_parts: list[np.ndarray] = []
        for j in range(n_tasks):
            start, end = task_ptr[j], task_ptr[j + 1]
            m = int(end - start)
            if m < 2:
                continue
            local_a, local_b = np.triu_indices(m, k=1)
            ca_parts.append(start + local_a)
            cb_parts.append(start + local_b)
        if not ca_parts:
            empty = np.empty(0, dtype=np.int64)
            return (
                empty,
                empty,
                np.zeros(1, dtype=np.int64),
                empty,
                empty,
                empty,
                empty,
            )
        ca = np.concatenate(ca_parts)
        cb = np.concatenate(cb_parts)
        wa = self.claim_worker[ca]
        wb = self.claim_worker[cb]
        swap = wa > wb
        ca2 = np.where(swap, cb, ca)
        cb2 = np.where(swap, ca, cb)
        wa2 = self.claim_worker[ca2]
        wb2 = self.claim_worker[cb2]
        tasks = self.claim_task[ca2]
        order = np.lexsort((tasks, wb2, wa2))
        wa2, wb2 = wa2[order], wb2[order]
        key = wa2 * n_workers + wb2
        uniq, first, counts = np.unique(key, return_index=True, return_counts=True)
        pair_ptr = np.zeros(len(uniq) + 1, dtype=np.int64)
        np.cumsum(counts, out=pair_ptr[1:])
        return (
            wa2[first],
            wb2[first],
            pair_ptr,
            np.repeat(np.arange(len(uniq)), counts),
            tasks[order],
            ca2[order],
            cb2[order],
        )

    @property
    def pair_a(self) -> np.ndarray:
        """First (smaller) worker of each co-answering pair."""
        return self._pair_tables[0]

    @property
    def pair_b(self) -> np.ndarray:
        """Second worker of each co-answering pair."""
        return self._pair_tables[1]

    @property
    def pair_ptr(self) -> np.ndarray:
        """CSR pointer slicing the ``ps_*`` rows per pair."""
        return self._pair_tables[2]

    @property
    def ps_pair(self) -> np.ndarray:
        """Pair index of each (pair, shared task) row."""
        return self._pair_tables[3]

    @property
    def ps_task(self) -> np.ndarray:
        """Task index of each (pair, shared task) row."""
        return self._pair_tables[4]

    @property
    def ps_claim_a(self) -> np.ndarray:
        """Claim position of ``pair_a``'s claim on the row's task."""
        return self._pair_tables[5]

    @property
    def ps_claim_b(self) -> np.ndarray:
        """Claim position of ``pair_b``'s claim on the row's task."""
        return self._pair_tables[6]

    @cached_property
    def pair_rows_by_task(self) -> tuple[np.ndarray, np.ndarray]:
        """CSR over tasks of the (pair, shared task) row positions.

        ``ptr, rows = pair_rows_by_task`` slices, per task ``j``, the
        positions ``rows[ptr[j]:ptr[j + 1]]`` of every pair-table row
        whose shared task is ``j`` (in ascending row order — the argsort
        is stable).  This is the lookup the incremental dependence
        engine uses to find the rows invalidated by a change to task
        ``j`` without scanning all of ``ps_task``.
        """
        n_tasks = self.index.n_tasks
        ps_task = self.ps_task
        rows = np.argsort(ps_task, kind="stable")
        ptr = np.zeros(n_tasks + 1, dtype=np.int64)
        np.cumsum(np.bincount(ps_task, minlength=n_tasks), out=ptr[1:])
        return ptr, rows

    # -- derived sizes ---------------------------------------------------

    @property
    def n_claims(self) -> int:
        return len(self.claim_task)

    @property
    def n_groups(self) -> int:
        return len(self.group_task)

    @property
    def n_pairs(self) -> int:
        return len(self.pair_a)

    @cached_property
    def multi_groups(self) -> np.ndarray:
        """Indexes of value groups with at least two providers.

        Only these need the greedy dependence-discount ordering; groups
        of one worker have independence probability 1 by definition.
        """
        return np.flatnonzero(self.group_size >= 2)

    @cached_property
    def multi_group_buckets(self) -> list[tuple[int, np.ndarray]]:
        """Multi-provider groups bucketed by size: ``(m, claim_indexes)``.

        ``claim_indexes`` is a ``(n_groups_of_size_m, m)`` matrix of
        claim positions, so the greedy independence ordering can run
        batched over every group of one size at once instead of looping
        per group (the sequential part of Eq. 16 then costs one small
        Python loop per *distinct group size*, not per group).
        """
        buckets: list[tuple[int, np.ndarray]] = []
        multi = self.multi_groups
        if len(multi) == 0:
            return buckets
        sizes = self.group_size[multi]
        for m in np.unique(sizes):
            groups = multi[sizes == m]
            starts = self.group_ptr[groups]
            buckets.append((int(m), starts[:, None] + np.arange(int(m))[None, :]))
        return buckets

    @cached_property
    def code_lookup(self) -> list[dict[str, int]]:
        """Per-task ``value -> code`` maps (for warm starts and tests)."""
        lookup: list[dict[str, int]] = [dict() for _ in range(self.index.n_tasks)]
        for g in range(self.n_groups):
            lookup[int(self.group_task[g])][self.group_values[g]] = int(
                self.group_code[g]
            )
        return lookup

    # -- conversions between codes and values ----------------------------

    def truth_values(self, truth_codes: np.ndarray) -> list[str | None]:
        """Decode per-task truth codes (-1 = no claims) back to strings."""
        out: list[str | None] = []
        for j in range(self.index.n_tasks):
            code = int(truth_codes[j])
            if code < 0:
                out.append(None)
            else:
                out.append(self.group_values[int(self.task_group_ptr[j]) + code])
        return out

    def truth_codes(self, truths: list[str | None]) -> np.ndarray:
        """Encode per-task truth strings to codes (-1 for None/unknown)."""
        codes = np.full(self.index.n_tasks, -1, dtype=np.int64)
        lookup = self.code_lookup
        for j, value in enumerate(truths):
            if value is not None:
                codes[j] = lookup[j].get(value, -1)
        return codes

    def majority_codes(self) -> np.ndarray:
        """Per-task majority value code (ties to the smallest code).

        DATE's initial truth estimate (Sec. III-A: "the true value can
        be obtained through the voting mechanism ... initially").  Codes
        are assigned in sorted value order, so "smallest code" is a
        lexicographic tie-break on the value.
        """
        return segment_first_argmax_code(
            self.group_size.astype(np.float64),
            self.group_task,
            self.group_code,
            self.task_group_ptr,
        )


def segment_first_argmax_code(
    values: np.ndarray,
    group_task: np.ndarray,
    group_code: np.ndarray,
    task_group_ptr: np.ndarray,
) -> np.ndarray:
    """Per task, the code of the first group achieving the segment max.

    ``values`` is one score per value group; groups of a task are
    contiguous and ordered by code, so the first maximal group is the
    lexicographically smallest winning value.  Tasks with no groups get
    ``-1``.
    """
    n_tasks = len(task_group_ptr) - 1
    out = np.full(n_tasks, -1, dtype=np.int64)
    if len(values) == 0:
        return out
    starts = task_group_ptr[:-1]
    nonempty = task_group_ptr[1:] > starts
    # Groups tile the array, so reduceat over the starts of non-empty
    # tasks reduces exactly one task's segment each.
    seg_max = np.maximum.reduceat(values, starts[nonempty])
    max_of_task = np.full(n_tasks, -np.inf)
    max_of_task[nonempty] = seg_max
    hit = np.flatnonzero(values == max_of_task[group_task])
    tasks_hit, first = np.unique(group_task[hit], return_index=True)
    out[tasks_hit] = group_code[hit[first]]
    return out


# ----------------------------------------------------------------------
# Incremental ClaimArrays extension
# ----------------------------------------------------------------------


def _concat_ranges(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Concatenated ``[arange(s, s + l) for s, l in zip(starts, lengths)]``.

    The standard cumsum trick: one pass, no Python loop — this is what
    keeps splicing the clean CSR segments a bulk copy.
    """
    lengths = np.asarray(lengths, dtype=np.int64)
    nonempty = lengths > 0
    starts = np.asarray(starts, dtype=np.int64)[nonempty]
    lengths = lengths[nonempty]
    total = int(lengths.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    out = np.ones(total, dtype=np.int64)
    ends = np.cumsum(lengths)
    out[0] = starts[0]
    out[ends[:-1]] = starts[1:] - (starts[:-1] + lengths[:-1] - 1)
    return np.cumsum(out)


def _extend_claim_arrays(
    old: ClaimArrays,
    index: DatasetIndex,
    dirty: np.ndarray,
    old_n_tasks: int,
) -> tuple[ClaimArrays, np.ndarray]:
    """Splice ``old`` into arrays for the extended ``index``.

    Dirty tasks are re-encoded from ``index.value_groups`` (the only
    Python loop proportional to the batch); clean task segments move as
    bulk gathers.  Task positions of pre-existing tasks are stable, so
    a clean task's claims keep their ``(worker, code)`` rows and only
    their global positions shift.  Returns the new arrays and the
    ``old claim position -> new claim position`` map.
    """
    n_tasks, n_workers = index.n_tasks, index.n_workers
    dirty_mask = np.zeros(n_tasks, dtype=bool)
    dirty_mask[dirty] = True
    clean = np.flatnonzero(~dirty_mask[:old_n_tasks])

    old_claim_counts = old.task_ptr[1:] - old.task_ptr[:-1]
    old_group_counts = old.task_group_ptr[1:] - old.task_group_ptr[:-1]
    claim_counts = np.zeros(n_tasks, dtype=np.int64)
    group_counts = np.zeros(n_tasks, dtype=np.int64)
    claim_counts[:old_n_tasks] = old_claim_counts
    group_counts[:old_n_tasks] = old_group_counts

    # Fresh encodings for the dirty tasks only.
    d_workers: dict[int, np.ndarray] = {}
    d_codes: dict[int, np.ndarray] = {}
    d_sizes: dict[int, list[int]] = {}
    d_values: dict[int, list[str]] = {}
    for j in map(int, dirty):
        workers_flat: list[int] = []
        codes_flat: list[int] = []
        sizes: list[int] = []
        values: list[str] = []
        for code, (value, members) in enumerate(index.value_groups[j].items()):
            sizes.append(len(members))
            values.append(value)
            workers_flat.extend(members)
            codes_flat.extend([code] * len(members))
        d_workers[j] = np.asarray(workers_flat, dtype=np.int64)
        d_codes[j] = np.asarray(codes_flat, dtype=np.int64)
        d_sizes[j] = sizes
        d_values[j] = values
        claim_counts[j] = len(workers_flat)
        group_counts[j] = len(sizes)

    task_ptr = np.zeros(n_tasks + 1, dtype=np.int64)
    np.cumsum(claim_counts, out=task_ptr[1:])
    task_group_ptr = np.zeros(n_tasks + 1, dtype=np.int64)
    np.cumsum(group_counts, out=task_group_ptr[1:])
    n_claims = int(task_ptr[-1])
    n_groups = int(task_group_ptr[-1])

    claim_task = np.repeat(np.arange(n_tasks, dtype=np.int64), claim_counts)
    claim_worker = np.empty(n_claims, dtype=np.int64)
    claim_code = np.empty(n_claims, dtype=np.int64)
    group_size = np.empty(n_groups, dtype=np.int64)
    group_values = np.empty(n_groups, dtype=object)

    # Clean segments: bulk gather from the old arrays.
    src = _concat_ranges(old.task_ptr[clean], old_claim_counts[clean])
    dst = _concat_ranges(task_ptr[clean], old_claim_counts[clean])
    claim_worker[dst] = old.claim_worker[src]
    claim_code[dst] = old.claim_code[src]
    gsrc = _concat_ranges(old.task_group_ptr[clean], old_group_counts[clean])
    gdst = _concat_ranges(task_group_ptr[clean], old_group_counts[clean])
    group_size[gdst] = old.group_size[gsrc]
    group_values[gdst] = np.asarray(old.group_values, dtype=object)[gsrc]

    # Dirty segments, and the old->new claim position map.
    claim_map = np.empty(old.n_claims, dtype=np.int64)
    claim_map[src] = dst
    for j in map(int, dirty):
        c0 = int(task_ptr[j])
        claim_worker[c0 : c0 + len(d_workers[j])] = d_workers[j]
        claim_code[c0 : c0 + len(d_codes[j])] = d_codes[j]
        g0 = int(task_group_ptr[j])
        group_size[g0 : g0 + len(d_sizes[j])] = d_sizes[j]
        group_values[g0 : g0 + len(d_values[j])] = d_values[j]
        if j < old_n_tasks:
            position = {int(w): c0 + k for k, w in enumerate(d_workers[j])}
            for c in range(int(old.task_ptr[j]), int(old.task_ptr[j + 1])):
                claim_map[c] = position[int(old.claim_worker[c])]

    # In (task, code, worker) order, group index = task group start +
    # code (codes are consecutive 0..K_j-1), so the remaining structures
    # are pure arithmetic on what's already spliced.
    claim_group = task_group_ptr[claim_task] + claim_code
    group_task = np.repeat(np.arange(n_tasks, dtype=np.int64), group_counts)
    group_code = np.arange(n_groups, dtype=np.int64) - task_group_ptr[group_task]
    group_ptr = np.zeros(n_groups + 1, dtype=np.int64)
    np.cumsum(group_size, out=group_ptr[1:])

    order = np.lexsort((claim_task, claim_worker))
    worker_ptr = np.zeros(n_workers + 1, dtype=np.int64)
    np.cumsum(np.bincount(claim_worker, minlength=n_workers), out=worker_ptr[1:])

    arrays = object.__new__(ClaimArrays)
    set_ = object.__setattr__
    set_(arrays, "index", index)
    set_(arrays, "claim_task", claim_task)
    set_(arrays, "claim_worker", claim_worker)
    set_(arrays, "claim_code", claim_code)
    set_(arrays, "claim_group", claim_group)
    set_(arrays, "task_ptr", task_ptr)
    set_(arrays, "group_ptr", group_ptr)
    set_(arrays, "group_task", group_task)
    set_(arrays, "group_code", group_code)
    set_(arrays, "group_size", group_size)
    set_(arrays, "group_values", tuple(group_values))
    set_(arrays, "task_group_ptr", task_group_ptr)
    set_(arrays, "worker_ptr", worker_ptr)
    set_(arrays, "worker_claims", order)

    if "_pair_tables" in old.__dict__:
        arrays.__dict__["_pair_tables"] = _extend_pair_tables(
            old, arrays, dirty, dirty_mask, claim_map
        )
    return arrays, claim_map


def _extend_pair_tables(
    old: ClaimArrays,
    arrays: ClaimArrays,
    dirty: np.ndarray,
    dirty_mask: np.ndarray,
    claim_map: np.ndarray,
) -> tuple[np.ndarray, ...]:
    """Extend materialized pair tables: keep clean-task rows, regenerate
    dirty-task rows, merge by one lexsort.

    Rows of clean tasks keep their worker pair and task; only their
    claim back-pointers shift (via ``claim_map``).  Rows of dirty tasks
    are re-enumerated from the new segments — the O(Σ m_j²) triangle
    work runs over affected tasks only.
    """
    _, _, _, old_ps_pair, old_ps_task, old_ps_ca, old_ps_cb = old._pair_tables
    keep = ~dirty_mask[old_ps_task]
    wa_parts = [old.claim_worker[old_ps_ca[keep]]]
    wb_parts = [old.claim_worker[old_ps_cb[keep]]]
    task_parts = [old_ps_task[keep]]
    ca_parts = [claim_map[old_ps_ca[keep]]]
    cb_parts = [claim_map[old_ps_cb[keep]]]

    task_ptr = arrays.task_ptr
    for j in map(int, dirty):
        start, end = int(task_ptr[j]), int(task_ptr[j + 1])
        m = end - start
        if m < 2:
            continue
        local_a, local_b = np.triu_indices(m, k=1)
        ca = start + local_a
        cb = start + local_b
        wa = arrays.claim_worker[ca]
        wb = arrays.claim_worker[cb]
        swap = wa > wb
        ca2 = np.where(swap, cb, ca)
        cb2 = np.where(swap, ca, cb)
        wa_parts.append(arrays.claim_worker[ca2])
        wb_parts.append(arrays.claim_worker[cb2])
        task_parts.append(np.full(len(ca2), j, dtype=np.int64))
        ca_parts.append(ca2)
        cb_parts.append(cb2)

    wa = np.concatenate(wa_parts)
    if len(wa) == 0:
        empty = np.empty(0, dtype=np.int64)
        return (empty, empty, np.zeros(1, dtype=np.int64), empty, empty, empty, empty)
    wb = np.concatenate(wb_parts)
    tasks = np.concatenate(task_parts)
    ca = np.concatenate(ca_parts)
    cb = np.concatenate(cb_parts)
    order = np.lexsort((tasks, wb, wa))
    wa, wb = wa[order], wb[order]
    key = wa * arrays.index.n_workers + wb
    uniq, first, counts = np.unique(key, return_index=True, return_counts=True)
    pair_ptr = np.zeros(len(uniq) + 1, dtype=np.int64)
    np.cumsum(counts, out=pair_ptr[1:])
    return (
        wa[first],
        wb[first],
        pair_ptr,
        np.repeat(np.arange(len(uniq)), counts),
        tasks[order],
        ca[order],
        cb[order],
    )
