"""Multi-campaign store: many concurrent online campaigns, one process.

:class:`CampaignStore` is the state backing the HTTP service — a
thread-safe map of campaign id to :class:`~repro.streaming.online.
OnlineDATE` with the operations the API exposes: create, ingest,
estimate (snapshot or full refresh), snapshot-as-JSON, auction, evict.
An optional capacity bound evicts the least-recently-used campaign so
one process can serve an unbounded campaign churn with bounded memory.

With ``journal_dir`` set the store is **crash-safe** (DESIGN.md §15):
campaign creation and every claim batch are journaled — fsync'd —
*before* the estimator applies them, explicit refreshes are journaled
as intents, and a restarted store replays the journals back to the
exact pre-crash state (adopting the run ledger's banked refresh
snapshots mid-replay when their fingerprints still match, so recovery
is fast *and* bit-identical).  Batch sequence numbers double as the
exactly-once dedup key for retried ingests.
"""

from __future__ import annotations

import itertools
import os
import threading
import time
from collections import OrderedDict
from collections.abc import Iterable
from pathlib import Path

from ..artifacts import (
    RunLedger,
    snapshot_fingerprint,
    truth_result_from_payload,
    truth_result_to_payload,
)
from ..core.config import DateConfig
from ..core.date import TruthDiscoveryResult
from ..discovery import canonical_algorithm
from ..errors import ConfigurationError, ReproError
from ..mechanism.imc2 import IMC2, IMC2Outcome
from ..obs.logging import get_logger
from ..obs.metrics import get_registry
from ..types import Task, WorkerProfile
from .faults import InjectedCrash, get_injector
from .ingest import ClaimBatch, batch_from_json
from .journal import (
    CampaignJournal,
    JournalError,
    batch_from_record,
    batch_record,
    config_fingerprint,
    config_from_payload,
    create_record,
    fsync_dir,
    journal_path,
    list_journals,
    read_journal,
    refresh_record,
)
from .online import OnlineDATE, OnlineUpdate

__all__ = [
    "Campaign",
    "CampaignRecoveringError",
    "CampaignStore",
    "DuplicateCampaignError",
    "UnknownCampaignError",
]

#: Process-wide counter making concurrent temp-journal names unique.
_TMP_JOURNAL_IDS = itertools.count(1)


class UnknownCampaignError(ReproError, KeyError):
    """A campaign id is not present in the store."""

    def __init__(self, campaign_id: str):
        self.campaign_id = campaign_id
        super().__init__(f"unknown campaign {campaign_id!r}")


class DuplicateCampaignError(ReproError, ValueError):
    """A campaign id is already present in the store."""

    def __init__(self, campaign_id: str):
        self.campaign_id = campaign_id
        super().__init__(f"campaign {campaign_id!r} already exists")


class CampaignRecoveringError(ReproError, RuntimeError):
    """A campaign's journal replay has not finished yet.

    The server maps this to ``503 Retry-After`` — the campaign exists
    durably and will be back; failing the request is wrong, and
    serving a half-replayed estimate would be worse.
    """

    retry_after = 1.0

    def __init__(self, campaign_id: str):
        self.campaign_id = campaign_id
        super().__init__(
            f"campaign {campaign_id!r} is recovering from its journal; "
            f"retry shortly"
        )


class _SnapshotTruth:
    """Adapter handing a precomputed stage-1 result to IMC2."""

    def __init__(self, result: TruthDiscoveryResult):
        self._result = result

    def run(self, dataset, index=None) -> TruthDiscoveryResult:
        return self._result


class Campaign:
    """One live campaign: an online estimator plus bookkeeping.

    ``lock`` serializes all estimator access for this campaign only, so
    a long refresh on one campaign never blocks traffic to another; the
    store's own lock guards nothing but the campaign map.

    ``applied_seq`` is the sequence number of the last claim batch the
    estimator applied — the exactly-once watermark retried ingests are
    deduplicated against.  ``journal`` is the campaign's write-ahead
    journal when the store is durable, else ``None``.
    """

    def __init__(
        self,
        campaign_id: str,
        online: OnlineDATE,
        *,
        journal: CampaignJournal | None = None,
        created_at: float | None = None,
    ):
        self.campaign_id = campaign_id
        self.online = online
        self.lock = threading.RLock()
        self.created_at = time.time() if created_at is None else created_at
        self.last_update = self.created_at
        self.claims_ingested = 0
        self.applied_seq = 0
        self.journal = journal

    def describe(self) -> dict:
        """JSON-safe summary (sizes and counters, no estimates)."""
        dataset = self.online.dataset
        return {
            "campaign_id": self.campaign_id,
            "algorithm": self.online.algorithm,
            "tasks": dataset.n_tasks,
            "workers": dataset.n_workers,
            "claims": dataset.n_claims,
            "batches": self.online.n_batches,
            "applied_seq": self.applied_seq,
            "journaled": self.journal is not None,
            "created_at": self.created_at,
            "last_update": self.last_update,
        }


class CampaignStore:
    """Thread-safe map of live campaigns with LRU capacity eviction.

    Locking is two-level: the store lock guards only the campaign map
    (membership, LRU order, recovery marks), while each campaign
    carries its own lock held for estimator work — so a slow refresh or
    auction on one campaign never stalls requests to the others.  An
    eviction racing an in-flight operation lets that operation finish
    on the orphaned campaign object; the store simply stops handing it
    out.

    Parameters
    ----------
    config:
        Default DATE hyperparameters for campaigns created without an
        explicit config.
    refresh_every:
        Default periodic-refresh cadence for new campaigns (0 = only
        explicit refreshes).
    algorithm:
        Default truth-discovery algorithm for new campaigns (any zoo
        member; per-campaign override via :meth:`create`).
    max_campaigns:
        When set, creating a campaign beyond this count evicts the
        least recently touched one.
    ledger:
        Optional :class:`~repro.artifacts.RunLedger`.  Every full
        refresh (explicit ``estimate(refresh=True)`` or the one the
        auction runs) is persisted under the fingerprint of ``(DATE
        config, campaign content)``, and looked up before recomputing —
        so a *restarted* store replaying the same campaign warm-starts
        from the banked refresh instead of re-estimating, bit-identical
        because the fingerprint covers every byte the estimation reads.
    journal_dir:
        When set, the store is durable: campaign creation and every
        claim batch are appended — fsync'd — to a per-campaign
        write-ahead journal *before* the estimator applies them, and
        construction replays existing journals back into live
        campaigns (pass ``defer_recovery=True`` to run
        :meth:`recover` yourself, e.g. on a background thread while
        the HTTP listener already answers health checks).
    defer_recovery:
        Skip the journal replay in the constructor.  Until
        :meth:`recover` finishes, requests touching a journaled-but-
        unreplayed campaign raise :class:`CampaignRecoveringError`.
    """

    def __init__(
        self,
        *,
        config: DateConfig | None = None,
        refresh_every: int = 0,
        max_campaigns: int | None = None,
        ledger: RunLedger | None = None,
        algorithm: str = "DATE",
        journal_dir: str | Path | None = None,
        defer_recovery: bool = False,
    ):
        if max_campaigns is not None and max_campaigns < 1:
            raise ConfigurationError(
                f"max_campaigns must be >= 1, got {max_campaigns}"
            )
        self.default_config = config or DateConfig()
        self.default_refresh_every = refresh_every
        self.default_algorithm = canonical_algorithm(algorithm)
        self.max_campaigns = max_campaigns
        self.ledger = ledger
        self.journal_dir = Path(journal_dir) if journal_dir is not None else None
        self._campaigns: OrderedDict[str, Campaign] = OrderedDict()
        self._lock = threading.RLock()
        self._recovering: set[str] = set()
        self.last_recovery: list[dict] = []
        if self.journal_dir is not None:
            self.journal_dir.mkdir(parents=True, exist_ok=True)
            # A crash between writing a create record to its temp file
            # and linking it into place leaves an orphan: the campaign
            # was never acknowledged, so the debris just goes.
            for orphan in self.journal_dir.glob(".*.tmp"):
                orphan.unlink(missing_ok=True)
            # Mark every journaled campaign recovering *now*, so a
            # deferred (background) recovery never races a request into
            # a half-empty store: until replay finishes these ids 503.
            self._recovering = {cid for cid, _ in list_journals(self.journal_dir)}
            self._recovery_pending = True
            if not defer_recovery:
                self.recover()
        else:
            self._recovery_pending = False

    def __len__(self) -> int:
        with self._lock:
            return len(self._campaigns)

    def __contains__(self, campaign_id: str) -> bool:
        with self._lock:
            return campaign_id in self._campaigns

    @property
    def recovering(self) -> bool:
        """Whether any journal replay is still pending or in flight."""
        with self._lock:
            return self._recovery_pending or bool(self._recovering)

    def _get(self, campaign_id: str) -> Campaign:
        campaign = self._campaigns.get(campaign_id)
        if campaign is None:
            if campaign_id in self._recovering:
                raise CampaignRecoveringError(campaign_id)
            raise UnknownCampaignError(campaign_id)
        self._campaigns.move_to_end(campaign_id)
        return campaign

    def _tmp_journal_path(self, campaign_id: str) -> Path:
        """A unique temp name for a journal being born.

        Unique per attempt, so two racing creates of the same id never
        share a temp file — the loser deletes only its own.  The names
        are dot-prefixed and ``.tmp``-suffixed, invisible to
        :func:`list_journals` and swept as orphans on startup.
        """
        name = journal_path(self.journal_dir, campaign_id).name
        return self.journal_dir / (
            f".{name}.{os.getpid()}.{next(_TMP_JOURNAL_IDS)}.tmp"
        )

    # -- operations ------------------------------------------------------

    def create(
        self,
        campaign_id: str,
        *,
        tasks: Iterable[Task] = (),
        workers: Iterable[WorkerProfile] = (),
        config: DateConfig | None = None,
        refresh_every: int | None = None,
        algorithm: str | None = None,
    ) -> Campaign:
        """Register a new campaign, optionally pre-publishing tasks."""
        if not campaign_id:
            raise ConfigurationError("campaign_id must be a non-empty string")
        with self._lock:
            if campaign_id in self._campaigns:
                raise DuplicateCampaignError(campaign_id)
            if campaign_id in self._recovering:
                raise CampaignRecoveringError(campaign_id)
        # Seed outside the store lock: pre-publishing a large task set
        # must not stall requests to other campaigns.  Two racing
        # creates of the same id both seed; the second insert loses.
        resolved_config = config or self.default_config
        resolved_refresh = (
            self.default_refresh_every if refresh_every is None else refresh_every
        )
        resolved_algorithm = algorithm or self.default_algorithm
        online = OnlineDATE(
            resolved_config,
            refresh_every=resolved_refresh,
            algorithm=resolved_algorithm,
        )
        campaign = Campaign(campaign_id, online)
        tasks = tuple(tasks)
        workers = tuple(workers)
        if tasks or workers:
            online.ingest(ClaimBatch(tasks=tasks, workers=workers))
        journal: CampaignJournal | None = None
        if self.journal_dir is not None:
            # Journal birth also happens out here: writing and fsyncing
            # the create record — seed batch included — can be slow and
            # must not stall requests to other campaigns.  The record
            # goes to a private temp file; only the atomic link into
            # place happens under the store lock, which keeps the
            # journal's appearance atomic with the map insert.
            journal = CampaignJournal(self._tmp_journal_path(campaign_id))
            try:
                journal.append(
                    create_record(
                        campaign_id,
                        config=resolved_config,
                        algorithm=online.algorithm,
                        refresh_every=resolved_refresh,
                        created_at=campaign.created_at,
                        seed_tasks=tasks,
                        seed_workers=workers,
                    )
                )
            except BaseException:
                journal.delete()
                raise
        evicted_campaigns: list[Campaign] = []
        try:
            with self._lock:
                if campaign_id in self._campaigns:
                    raise DuplicateCampaignError(campaign_id)
                if campaign_id in self._recovering:
                    raise CampaignRecoveringError(campaign_id)
                if journal is not None:
                    # One atomic rename, clobbering any stale file an
                    # LRU-evicted ancestor of this id left behind.
                    journal.rename_to(
                        journal_path(self.journal_dir, campaign_id)
                    )
                    fsync_dir(self.journal_dir)
                    campaign.journal = journal
                self._campaigns[campaign_id] = campaign
                while (
                    self.max_campaigns is not None
                    and len(self._campaigns) > self.max_campaigns
                ):
                    _, evicted = self._campaigns.popitem(last=False)
                    evicted_campaigns.append(evicted)
                live = len(self._campaigns)
        except (DuplicateCampaignError, CampaignRecoveringError):
            # Lost the race to another create: discard the never-linked
            # temp journal; the winner's file is untouched.
            if journal is not None:
                journal.delete()
            raise
        registry = get_registry()
        registry.counter(
            "streaming_campaigns_created_total", "Campaigns created."
        ).inc()
        for evicted in evicted_campaigns:
            # LRU eviction drops only the in-memory state: the journal
            # file stays, so a durable store resurrects the campaign on
            # the next recovery (re-creating the id rotates the file).
            self._release(evicted, registry)
        if evicted_campaigns:
            registry.counter(
                "streaming_campaigns_evicted_total",
                "Campaigns dropped (LRU capacity or explicit delete).",
            ).inc(len(evicted_campaigns))
        registry.gauge(
            "streaming_campaigns_live", "Campaigns currently in the store."
        ).set(live)
        return campaign

    def _release(self, campaign: Campaign, registry) -> None:
        """Post-eviction cleanup: close the journal, drop its series.

        Dropping the campaign's labelled metric series caps label
        cardinality on long-lived servers — an evicted campaign's
        counters would otherwise be exported forever.
        """
        if campaign.journal is not None:
            with campaign.lock:
                campaign.journal.close()
        if registry.enabled:
            registry.drop_labels("campaign", campaign.campaign_id)

    def get(self, campaign_id: str) -> Campaign:
        with self._lock:
            return self._get(campaign_id)

    def ingest(
        self, campaign_id: str, batch: ClaimBatch, *, seq: int | None = None
    ) -> OnlineUpdate | None:
        """Apply a claim batch to one campaign — exactly once.

        ``seq`` is the client-assigned batch sequence number (1-based,
        contiguous per campaign).  A batch whose ``seq`` is at or below
        the campaign's applied watermark was already journaled and
        applied — the retry of an ingest whose acknowledgement was
        lost — and returns ``None`` without touching the estimator.
        Without ``seq`` the store assigns the next number itself.

        On a journaled campaign the batch is validated against the
        campaign first, then its record is appended and fsync'd
        *before* the estimator runs: a batch destined for a 400 never
        reaches the journal, an acknowledged ingest survives any crash,
        and a crash between append and apply is replayed to the same
        state on recovery.
        """
        campaign = self.get(campaign_id)
        registry = get_registry()
        with campaign.lock:
            if seq is None:
                seq = campaign.applied_seq + 1
            else:
                seq = int(seq)
                if seq <= campaign.applied_seq:
                    registry.counter(
                        "streaming_duplicate_ingests_total",
                        "Retried claim batches deduplicated by sequence "
                        "number (exactly-once ingest).",
                        labels={"campaign": campaign_id},
                    ).inc()
                    return None
                if seq != campaign.applied_seq + 1:
                    raise ConfigurationError(
                        f"out-of-order ingest: seq {seq} after applied "
                        f"seq {campaign.applied_seq} (expected "
                        f"{campaign.applied_seq + 1})"
                    )
            pre_append = 0
            if campaign.journal is not None:
                # Validate against the campaign *before* the append: a
                # batch the estimator would reject (unknown references,
                # duplicate claims, out-of-domain values — a 400) must
                # never persist, or every later recovery would replay
                # into the same error and report the journal corrupt.
                campaign.online.validate(batch)
                journal_start = time.perf_counter()
                pre_append = campaign.journal.size
                try:
                    campaign.journal.append(batch_record(seq, batch))
                except JournalError:
                    registry.counter(
                        "streaming_journal_write_failures_total",
                        "Ingest journal appends that failed (each one "
                        "became a 503, never an applied batch).",
                    ).inc()
                    raise
                registry.counter(
                    "streaming_journal_appends_total",
                    "Write-ahead journal records appended per campaign.",
                    labels={"campaign": campaign_id},
                ).inc()
                registry.timer(
                    "streaming_journal_append_seconds",
                    "Wall time of one fsync'd journal append.",
                ).observe(time.perf_counter() - journal_start)
            start = time.perf_counter()
            try:
                update = campaign.online.ingest(batch)
            except InjectedCrash:
                # Simulated process death: a real crash leaves the
                # journaled record behind, and so must we — recovery
                # replaying it is exactly the contract under test.
                raise
            except BaseException:
                # The batch passed validation, so this is unexpected —
                # but the journal may only hold applied-or-replayable
                # records, and a retry under the same seq must not
                # append a second record.  Undo the append, then
                # surface the original error (a failed rollback marks
                # the journal failed; later appends refuse).
                if campaign.journal is not None:
                    try:
                        campaign.journal.rollback_to(pre_append)
                    except JournalError:
                        pass
                    registry.counter(
                        "streaming_journal_rollbacks_total",
                        "Journal records rolled back because the "
                        "estimator refused the batch after the append.",
                    ).inc()
                raise
            elapsed = time.perf_counter() - start
            campaign.applied_seq = seq
            campaign.claims_ingested += batch.n_claims
            campaign.last_update = time.time()
        labels = {"campaign": campaign_id}
        registry.counter(
            "streaming_ingest_batches_total",
            "Claim batches ingested per campaign.",
            labels=labels,
        ).inc()
        registry.counter(
            "streaming_claims_ingested_total",
            "Claims ingested per campaign.",
            labels=labels,
        ).inc(batch.n_claims)
        registry.timer(
            "streaming_ingest_seconds",
            "Wall time of one claim-batch ingest (estimator update included).",
            labels=labels,
        ).observe(elapsed)
        return update

    def _refresh(self, campaign: Campaign) -> TruthDiscoveryResult:
        """Full refresh through the ledger (campaign lock must be held).

        With a ledger, the refresh for *exactly this campaign content
        and config* is looked up first and adopted wholesale on a hit
        (:meth:`OnlineDATE.adopt_refresh`); a miss computes cold and
        banks the result.  Without a ledger this is a plain refresh.

        On a journaled campaign the refresh *intent* is appended first
        (with the content fingerprint the result will be banked under),
        so recovery re-executes the refresh at the same point in the
        batch sequence — through the ledger when the fingerprint still
        matches, which is what makes replay fast.
        """
        online = campaign.online
        registry = get_registry()
        start = time.perf_counter()
        snapshot_key = None
        if campaign.journal is not None or self.ledger is not None:
            snapshot_key = _campaign_content_key(online)
        if campaign.journal is not None:
            fp = snapshot_fingerprint(snapshot_key)
            campaign.journal.append(refresh_record(campaign.applied_seq, fp))
            get_injector().fire("store.mid_refresh")
        if self.ledger is None:
            result = online.refresh()
            source = "computed"
        else:
            payload = self.ledger.get_snapshot(snapshot_key)
            if payload is not None:
                result = online.adopt_refresh(truth_result_from_payload(payload))
                source = "ledger"
            else:
                result = online.refresh()
                self.ledger.put_snapshot(
                    snapshot_key, truth_result_to_payload(result)
                )
                source = "computed"
        registry.counter(
            "streaming_refreshes_total",
            "Full re-estimations per campaign, by how they were served.",
            labels={"campaign": campaign.campaign_id, "source": source},
        ).inc()
        registry.timer(
            "streaming_refresh_seconds",
            "Wall time of one full refresh (ledger lookups included).",
            labels={"campaign": campaign.campaign_id},
        ).observe(time.perf_counter() - start)
        return result

    def estimate(
        self, campaign_id: str, *, refresh: bool = False
    ) -> TruthDiscoveryResult:
        """Current estimate; ``refresh=True`` forces a full re-run."""
        campaign = self.get(campaign_id)
        with campaign.lock:
            if refresh:
                result = self._refresh(campaign)
                campaign.last_update = time.time()
                return result
            return campaign.online.snapshot()

    def truths(self, campaign_id: str) -> dict:
        """Current truths + confidence of one campaign (locked read)."""
        campaign = self.get(campaign_id)
        with campaign.lock:
            return {
                "truths": campaign.online.truths,
                "confidence": campaign.online.confidence,
            }

    def worker_accuracy(self, campaign_id: str) -> dict[str, float]:
        """Current worker reputations of one campaign (locked read)."""
        campaign = self.get(campaign_id)
        with campaign.lock:
            return campaign.online.worker_accuracy

    def auction(
        self,
        campaign_id: str,
        *,
        requirement_cap: float | None = None,
    ) -> IMC2Outcome:
        """Run the IMC2 mechanism on a campaign's accumulated data.

        Stage 1 reuses a fresh full refresh (so the auction prices
        exact, not incrementally approximated, accuracies); stage 2 is
        the reverse auction over truthful bids.
        """
        campaign = self.get(campaign_id)
        with campaign.lock:
            truth = self._refresh(campaign)
            campaign.last_update = time.time()
            mechanism = IMC2(
                truth_algorithm=_SnapshotTruth(truth),
                requirement_cap=requirement_cap,
            )
            return mechanism.run(campaign.online.dataset)

    def snapshot(self, campaign_id: str) -> dict:
        """JSON-safe campaign state: summary + estimates + reputations."""
        campaign = self.get(campaign_id)
        with campaign.lock:
            online = campaign.online
            return {
                **campaign.describe(),
                "truths": online.truths,
                "confidence": online.confidence,
                "worker_accuracy": online.worker_accuracy,
            }

    def evict(self, campaign_id: str) -> None:
        """Drop a campaign (raises if unknown).

        An explicit evict is a durable delete: the campaign's journal
        file is removed, so a restarted store does not resurrect it.
        """
        with self._lock:
            campaign = self._campaigns.pop(campaign_id, None)
            if campaign is None:
                if campaign_id in self._recovering:
                    raise CampaignRecoveringError(campaign_id)
                raise UnknownCampaignError(campaign_id)
            live = len(self._campaigns)
        registry = get_registry()
        if campaign.journal is not None:
            with campaign.lock:
                campaign.journal.delete()
        if registry.enabled:
            registry.drop_labels("campaign", campaign_id)
        registry.counter(
            "streaming_campaigns_evicted_total",
            "Campaigns dropped (LRU capacity or explicit delete).",
        ).inc()
        registry.gauge(
            "streaming_campaigns_live", "Campaigns currently in the store."
        ).set(live)

    def list_campaigns(self) -> list[dict]:
        """Summaries of all live campaigns, least recently used first."""
        with self._lock:
            return [c.describe() for c in self._campaigns.values()]

    def close(self) -> None:
        """Flush and close every campaign journal (graceful shutdown)."""
        with self._lock:
            campaigns = list(self._campaigns.values())
        for campaign in campaigns:
            if campaign.journal is not None:
                with campaign.lock:
                    campaign.journal.close()

    # -- recovery --------------------------------------------------------

    def recover(self) -> list[dict]:
        """Replay every journal under ``journal_dir`` into live campaigns.

        Idempotent; campaigns already live are skipped.  Each journal
        is scanned (a torn tail is dropped and truncated), its create
        record rebuilds the estimator, and its batch/refresh records
        replay in order — refreshes through the ledger when the banked
        snapshot's fingerprint still matches the replayed content.

        A corrupt journal fails *its* campaign only: the campaign is
        reported (``status: "corrupt"``) and skipped, the store keeps
        serving everything else.  Returns the per-campaign reports
        (also kept on :attr:`last_recovery`).
        """
        if self.journal_dir is None:
            self._recovery_pending = False
            return []
        log = get_logger("repro.streaming.recovery")
        registry = get_registry()
        reports: list[dict] = []
        start_all = time.perf_counter()
        found = list_journals(self.journal_dir)
        with self._lock:
            pending = [
                (cid, path)
                for cid, path in found
                if cid not in self._campaigns
            ]
            self._recovering.update(cid for cid, _ in pending)
        for campaign_id, path in pending:
            start = time.perf_counter()
            try:
                campaign, report = self._replay_journal(campaign_id, path)
            except (JournalError, ReproError) as exc:
                report = {
                    "campaign_id": campaign_id,
                    "status": "corrupt",
                    "error": str(exc),
                }
                campaign = None
                log.warning(
                    "journal replay failed; campaign skipped",
                    campaign=campaign_id,
                    error=str(exc),
                )
            report["seconds"] = round(time.perf_counter() - start, 6)
            evicted_campaigns: list[Campaign] = []
            with self._lock:
                if campaign is not None:
                    self._campaigns[campaign.campaign_id] = campaign
                    while (
                        self.max_campaigns is not None
                        and len(self._campaigns) > self.max_campaigns
                    ):
                        _, evicted = self._campaigns.popitem(last=False)
                        evicted_campaigns.append(evicted)
                self._recovering.discard(campaign_id)
            for evicted in evicted_campaigns:
                self._release(evicted, registry)
            registry.counter(
                "streaming_recovered_campaigns_total",
                "Journal replays at startup, by outcome.",
                labels={"status": report["status"]},
            ).inc()
            reports.append(report)
        with self._lock:
            self._recovery_pending = False
            live = len(self._campaigns)
        registry.gauge(
            "streaming_campaigns_live", "Campaigns currently in the store."
        ).set(live)
        registry.timer(
            "streaming_recovery_seconds",
            "Wall time of one full journal-directory recovery.",
        ).observe(time.perf_counter() - start_all)
        if reports:
            log.info(
                "journal recovery finished",
                campaigns=len(reports),
                recovered=sum(1 for r in reports if r["status"] == "recovered"),
                seconds=round(time.perf_counter() - start_all, 3),
            )
        self.last_recovery = reports
        return reports

    def _replay_journal(
        self, campaign_id: str, path: Path
    ) -> tuple[Campaign | None, dict]:
        """Rebuild one campaign from its journal file."""
        registry = get_registry()
        scan = read_journal(path)
        journal = CampaignJournal(path)
        report: dict = {
            "campaign_id": campaign_id,
            "status": "recovered",
            "batches": 0,
            "claims": 0,
            "refreshes": 0,
            "snapshot_hits": 0,
            "torn": scan.torn,
        }
        if scan.torn:
            # The torn record was never acknowledged: drop it before
            # anything appends after it (a tear mid-file is corruption).
            journal.truncate_to(scan.valid_bytes)
            registry.counter(
                "streaming_torn_records_total",
                "Torn journal tail records dropped during recovery.",
            ).inc()
        if not scan.records:
            # Crash before the create record was durable: the campaign
            # was never acknowledged to exist.
            journal.delete()
            report["status"] = "empty"
            return None, report
        create = scan.records[0]
        config = config_from_payload(create["config"])
        if config_fingerprint(config) != create.get("config_fp"):
            journal.close()
            raise JournalError(
                f"{path.name}: the create record's config does not "
                f"round-trip (non-JSON config components?); refusing to "
                f"replay under different hyperparameters"
            )
        online = OnlineDATE(
            config,
            refresh_every=int(create["refresh_every"]),
            algorithm=str(create["algorithm"]),
        )
        if "seed" in create:
            online.ingest(batch_from_json(create["seed"]))
        applied_seq = 0
        for record in scan.records[1:]:
            if record["kind"] == "batch":
                batch = batch_from_record(record)
                online.ingest(batch)
                applied_seq = int(record["seq"])
                report["batches"] += 1
                report["claims"] += batch.n_claims
            else:  # refresh
                report["refreshes"] += 1
                if self._replay_refresh(online, record):
                    report["snapshot_hits"] += 1
        campaign = Campaign(
            campaign_id,
            online,
            journal=journal,
            created_at=float(create.get("created_at") or time.time()),
        )
        campaign.applied_seq = applied_seq
        campaign.claims_ingested = report["claims"]
        registry.counter(
            "streaming_recovered_batches_total",
            "Claim batches replayed from journals during recovery.",
        ).inc(report["batches"])
        return campaign, report

    def _replay_refresh(self, online: OnlineDATE, record: dict) -> bool:
        """Re-execute one journaled refresh; True = served from ledger.

        The banked snapshot is adopted only when the fingerprint of the
        *replayed* content equals the one the journal recorded at
        intent time — anything else (ledger GC'd, content divergence)
        recomputes, which is always correct because a refresh is a pure
        function of the campaign content.
        """
        if self.ledger is not None:
            key = _campaign_content_key(online)
            fp = snapshot_fingerprint(key)
            if fp == record.get("fingerprint"):
                payload = self.ledger.get_snapshot_fp(fp)
                if payload is not None:
                    online.adopt_refresh(truth_result_from_payload(payload))
                    return True
            result = online.refresh()
            self.ledger.put_snapshot(key, truth_result_to_payload(result))
            return False
        online.refresh()
        return False


def _campaign_content_key(online: OnlineDATE) -> dict:
    """The snapshot fingerprint inputs: config + full campaign content.

    Everything the refresh estimation reads is here — the DATE
    hyperparameters and every task, worker profile, and claim, in
    index order (the result's worker/task orderings follow it, so two
    campaigns that accumulated the same content in different arrival
    orders are distinct work units).  A ledger hit is therefore
    guaranteed to carry the refresh this exact campaign would compute.
    """
    dataset = online.dataset
    return {
        "date": online.config,
        "algorithm": online.algorithm,
        "tasks": dataset.tasks,
        "workers": dataset.workers,
        "claims": dataset.claims,
    }
