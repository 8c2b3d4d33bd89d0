"""Write-ahead ingest journal: the durability layer of the streaming tier.

Every journaled campaign owns one append-only JSONL file under the
store's ``journal_dir``.  A record is written — flushed and fsync'd —
*before* the estimator applies it, so the file is a classic write-ahead
log: whatever the in-memory store acknowledged is on disk first, and a
killed process replays the journal back to the exact pre-crash state
(DESIGN.md §15).

Record framing
--------------
Each line is a self-verifying envelope around one compact-JSON record::

    {"len": 123, "sha": "<sha256[:16] of record text>", "record": {...}}\n

The ``record`` text is embedded verbatim, so a reader re-serializes the
parsed object with the same compact encoding and checks both the length
and the digest.  A record is accepted only when the line is complete
(newline-terminated), parses, and both checks pass.  A record that
fails any of this at the **end** of the file is a *torn tail* — the
expected debris of a crash mid-append — and recovery drops it and
truncates the file; the same failure anywhere *before* the end is
corruption and raises :class:`JournalCorruptError` (an append-only file
never has a legitimate hole).

Record kinds (``record["kind"]``)
---------------------------------
- ``create`` (seq 0) — campaign registration: config (JSON-safe fields
  + the canonical fingerprint of the full config, verified on replay),
  algorithm, refresh cadence, and the optional seed batch of
  pre-published tasks/workers.
- ``batch`` (seq 1..n, strictly increasing) — one
  :class:`~repro.streaming.ingest.ClaimBatch`, claims in arrival order.
  The sequence number doubles as the exactly-once dedup key: a retried
  ingest carrying an already-applied ``seq`` is acknowledged without
  being re-applied.
- ``refresh`` — an explicit full-refresh intent (``after_seq`` names
  the last applied batch; does not consume a sequence number) plus the
  snapshot fingerprint of the campaign content at that point, which is
  what lets recovery adopt the run ledger's banked refresh instead of
  recomputing it — when, and only when, the fingerprint still matches.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, fields as dc_fields
from pathlib import Path
from urllib.parse import quote, unquote

from ..artifacts.fingerprint import fingerprint
from ..core.config import DateConfig
from ..errors import ReproError
from ..types import Task, WorkerProfile
from .faults import InjectedCrash, get_injector
from .ingest import ClaimBatch, batch_from_json, batch_to_json

__all__ = [
    "CampaignJournal",
    "JournalCorruptError",
    "JournalError",
    "JournalScan",
    "JournalWriteError",
    "batch_record",
    "config_from_payload",
    "config_to_payload",
    "create_record",
    "fsync_dir",
    "journal_path",
    "list_journals",
    "read_journal",
    "refresh_record",
]

_SUFFIX = ".wal.jsonl"


class JournalError(ReproError, RuntimeError):
    """A journal operation failed."""


class JournalCorruptError(JournalError):
    """A journal is damaged beyond the tolerated torn tail."""


class JournalWriteError(JournalError):
    """An append could not be made durable (disk error).

    The server maps this to ``503 Retry-After`` — an ingest whose
    journal write failed was never acknowledged and must not be applied.
    """


# ----------------------------------------------------------------------
# Record framing
# ----------------------------------------------------------------------


def _frame(record: dict) -> bytes:
    """One self-verifying journal line for ``record``."""
    body = json.dumps(record, separators=(",", ":"))
    digest = hashlib.sha256(body.encode("utf-8")).hexdigest()[:16]
    return (
        f'{{"len":{len(body)},"sha":"{digest}","record":{body}}}\n'
    ).encode("utf-8")


def _validate_line(line: bytes) -> dict:
    """Decode one complete journal line; raises ``ValueError`` if invalid."""
    envelope = json.loads(line)
    if not isinstance(envelope, dict):
        raise ValueError("envelope is not an object")
    record = envelope.get("record")
    if not isinstance(record, dict):
        raise ValueError("envelope carries no record object")
    body = json.dumps(record, separators=(",", ":"))
    if envelope.get("len") != len(body):
        raise ValueError("record length mismatch")
    digest = hashlib.sha256(body.encode("utf-8")).hexdigest()[:16]
    if envelope.get("sha") != digest:
        raise ValueError("record digest mismatch")
    return record


@dataclass(frozen=True)
class JournalScan:
    """What one pass over a journal file found.

    ``valid_bytes`` is the offset of the first byte past the last valid
    record — the length recovery truncates a torn file down to.
    """

    path: Path
    records: tuple[dict, ...]
    valid_bytes: int
    torn: bool


def read_journal(path: str | Path) -> JournalScan:
    """Scan a journal file, tolerating (only) a torn final record."""
    path = Path(path)
    data = path.read_bytes()
    records: list[dict] = []
    valid = 0
    torn = False
    offset = 0
    while offset < len(data):
        newline = data.find(b"\n", offset)
        if newline == -1:
            # Unterminated final line: the classic crash-mid-append tear.
            torn = True
            break
        line = data[offset:newline]
        try:
            record = _validate_line(line)
        except ValueError as exc:
            if newline + 1 >= len(data):
                # Complete-looking but invalid *final* line — a tear that
                # happened to land on a newline byte of the payload.
                torn = True
                break
            raise JournalCorruptError(
                f"{path.name}: invalid record at byte {offset} with valid "
                f"records after it ({exc}) — the journal is corrupt, not torn"
            ) from exc
        records.append(record)
        valid = newline + 1
        offset = newline + 1
    _check_sequence(path, records)
    return JournalScan(
        path=path, records=tuple(records), valid_bytes=valid, torn=torn
    )


def _check_sequence(path: Path, records: tuple[dict, ...] | list[dict]) -> None:
    """Enforce the record grammar: one create first, batch seqs monotone."""
    if not records:
        return
    if records[0].get("kind") != "create":
        raise JournalCorruptError(
            f"{path.name}: first record is {records[0].get('kind')!r}, "
            f"expected 'create'"
        )
    last_seq = 0
    for position, record in enumerate(records[1:], start=1):
        kind = record.get("kind")
        if kind == "create":
            raise JournalCorruptError(
                f"{path.name}: duplicate create record at position {position}"
            )
        if kind == "batch":
            seq = record.get("seq")
            if not isinstance(seq, int) or seq <= last_seq:
                raise JournalCorruptError(
                    f"{path.name}: batch seq {seq!r} at position {position} "
                    f"does not increase (last applied {last_seq})"
                )
            last_seq = seq
        elif kind != "refresh":
            raise JournalCorruptError(
                f"{path.name}: unknown record kind {kind!r} at position "
                f"{position}"
            )


# ----------------------------------------------------------------------
# Record builders (and the config codec they need)
# ----------------------------------------------------------------------

#: DateConfig fields the journal can round-trip as plain JSON: every
#: field except the two objects (``false_values``, ``similarity``).
#: The create record stores the canonical fingerprint of the *full*
#: config, and recovery verifies the rebuilt config reproduces it — a
#: campaign configured with non-default objects fails recovery loudly
#: instead of silently replaying under different hyperparameters.
_CONFIG_FIELDS = tuple(
    f.name
    for f in dc_fields(DateConfig)
    if f.name not in ("false_values", "similarity")
)

#: Fields DateConfig no longer has.  A create record carrying one was
#: written before the field's removal; its ``config_fp`` covers the old
#: field, so no rebuilt config can reproduce it and the journal cannot
#: be migrated — recovery refuses it by name.
_REMOVED_CONFIG_FIELDS = ("backend", "stable_dependence", "intra_workers")


def config_to_payload(config: DateConfig) -> dict:
    """JSON-safe DateConfig fields (see :data:`_CONFIG_FIELDS`)."""
    payload = {}
    for name in _CONFIG_FIELDS:
        value = getattr(config, name)
        payload[name] = list(value) if isinstance(value, tuple) else value
    return payload


def config_from_payload(payload: dict) -> DateConfig:
    """Rebuild a DateConfig from its journal payload."""
    known = {f.name for f in dc_fields(DateConfig)}
    changes = {}
    for name, value in payload.items():
        if name in _REMOVED_CONFIG_FIELDS:
            raise JournalCorruptError(
                f"create record carries config field {name!r}, which "
                f"DateConfig no longer has; the record's config fingerprint "
                f"covers the removed field, so this journal cannot be "
                f"migrated — replay it with the release that wrote it"
            )
        if name not in known:
            raise JournalCorruptError(
                f"create record carries unknown config field {name!r}"
            )
        if name == "accuracy_clamp":
            value = tuple(value)
        changes[name] = value
    return DateConfig(**changes)


def config_fingerprint(config: DateConfig) -> str:
    """Canonical fingerprint of the full config (objects included)."""
    return fingerprint({"kind": "journal-config", "config": config})


def create_record(
    campaign_id: str,
    *,
    config: DateConfig,
    algorithm: str,
    refresh_every: int,
    created_at: float,
    seed_tasks: tuple[Task, ...] = (),
    seed_workers: tuple[WorkerProfile, ...] = (),
) -> dict:
    """The seq-0 campaign registration record."""
    record = {
        "kind": "create",
        "seq": 0,
        "campaign_id": campaign_id,
        "algorithm": algorithm,
        "refresh_every": refresh_every,
        "created_at": created_at,
        "config": config_to_payload(config),
        "config_fp": config_fingerprint(config),
    }
    if seed_tasks or seed_workers:
        record["seed"] = batch_to_json(
            ClaimBatch(tasks=seed_tasks, workers=seed_workers),
            include_truth=True,
            sort_claims=False,
        )
    return record


def batch_record(seq: int, batch: ClaimBatch) -> dict:
    """One ingested claim batch under its exactly-once sequence number.

    Claims keep their arrival order (``sort_claims=False``) so a replay
    feeds the estimator byte-for-byte the batch it saw live.
    """
    return {
        "kind": "batch",
        "seq": seq,
        "batch": batch_to_json(batch, include_truth=True, sort_claims=False),
    }


def refresh_record(after_seq: int, snapshot_fp: str) -> dict:
    """An explicit full-refresh intent after batch ``after_seq``."""
    return {
        "kind": "refresh",
        "after_seq": after_seq,
        "fingerprint": snapshot_fp,
    }


def batch_from_record(record: dict) -> ClaimBatch:
    """The :class:`ClaimBatch` a ``batch`` record carries."""
    return batch_from_json(record["batch"])


# ----------------------------------------------------------------------
# File naming
# ----------------------------------------------------------------------


def journal_path(journal_dir: str | Path, campaign_id: str) -> Path:
    """The journal file of one campaign (id percent-encoded for safety)."""
    return Path(journal_dir) / (quote(campaign_id, safe="") + _SUFFIX)


def fsync_dir(path: str | Path) -> None:
    """Fsync a directory so a rename/creation inside it is durable.

    Best-effort: filesystems that refuse directory fds (or platforms
    without them) degrade to the pre-fsync durability, never an error.
    """
    try:
        fd = os.open(path, os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


def list_journals(journal_dir: str | Path) -> list[tuple[str, Path]]:
    """``(campaign_id, path)`` for every journal file, sorted by id."""
    base = Path(journal_dir)
    if not base.is_dir():
        return []
    found = [
        (unquote(path.name[: -len(_SUFFIX)]), path)
        for path in sorted(base.glob(f"*{_SUFFIX}"))
    ]
    return found


# ----------------------------------------------------------------------
# The writer
# ----------------------------------------------------------------------


class CampaignJournal:
    """Append-only, fsync'd writer over one campaign's journal file.

    Appends go through the process fault injector (inert outside the
    test harness): ``journal.pre_append`` fires before any bytes,
    ``journal.mid_append`` may cut the write short (a torn record stays
    on disk, exactly like a real crash), ``journal.post_append`` fires
    after the fsync — the record is durable, the estimator has not yet
    applied it.

    A *real* ``OSError`` during the write rolls the file back to the
    pre-append length and surfaces as :class:`JournalWriteError`; if
    even the rollback fails the journal marks itself failed and every
    later append is refused — the server degrades to 503s instead of
    acknowledging ingests it cannot make durable.
    """

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self._file = None
        self._size: int | None = None
        self._failed = False

    @property
    def failed(self) -> bool:
        return self._failed

    @property
    def size(self) -> int:
        """Current journal length in bytes — the rollback point callers
        capture before an append they may need to undo."""
        if self._size is None:
            self._handle()
        return self._size

    def _handle(self):
        if self._file is None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._file = open(self.path, "ab")
            self._size = self._file.tell()
        return self._file

    def append(self, record: dict) -> None:
        """Frame, write, flush, and fsync one record (write-ahead)."""
        if self._failed:
            raise JournalWriteError(
                f"journal {self.path.name} is failed (an earlier write "
                f"error could not be rolled back); refusing to append"
            )
        injector = get_injector()
        data = _frame(record)
        start: int | None = None
        try:
            injector.fire("journal.pre_append")
            handle = self._handle()
            start = self._size
            cut = injector.partial_cut("journal.mid_append", len(data))
            if cut is not None:
                # Simulated crash mid-write: persist the torn prefix the
                # way a dying kernel would, then "die".  No rollback —
                # recovery is what cleans this up.
                handle.write(data[:cut])
                handle.flush()
                os.fsync(handle.fileno())
                raise InjectedCrash("journal.mid_append")
            handle.write(data)
            handle.flush()
            os.fsync(handle.fileno())
        except OSError as exc:
            self._rollback(start)
            raise JournalWriteError(
                f"journal append to {self.path.name} failed: {exc}"
            ) from exc
        self._size = start + len(data)
        injector.fire("journal.post_append")

    def _rollback(self, start: int | None) -> None:
        if self._file is None or start is None:
            return
        try:
            self._file.truncate(start)
            self._file.seek(start)
        except OSError:
            self._failed = True

    def truncate_to(self, size: int) -> None:
        """Shrink the file to ``size`` bytes — durably.

        Used to heal a torn tail during recovery and to roll back an
        appended record whose apply was rejected.  The fsync matters in
        the rollback case: the dropped record was already durable, so
        without it a crash could resurrect a batch the client was told
        was refused.
        """
        handle = self._handle()
        handle.truncate(size)
        handle.seek(size)
        os.fsync(handle.fileno())
        self._size = size

    def rollback_to(self, size: int) -> None:
        """Durably undo appends past ``size``; failure poisons the journal.

        This is the undo path for a record whose apply was refused
        *after* the append was already fsync'd.  If even the truncate
        fails, the refused record cannot be removed — the journal marks
        itself failed so no later append buries it under acknowledged
        records, and the server degrades to 503s.
        """
        try:
            self.truncate_to(size)
        except OSError as exc:
            self._failed = True
            raise JournalWriteError(
                f"journal rollback of {self.path.name} failed: {exc}"
            ) from exc

    def rename_to(self, path: str | Path) -> None:
        """Atomically move the journal file to ``path``.

        ``os.replace`` both links the journal at its final name and
        clobbers any stale ancestor file in one step; the open handle
        keeps following the inode, so appends continue seamlessly.
        """
        path = Path(path)
        os.replace(self.path, path)
        self.path = path

    def flush(self) -> None:
        if self._file is not None:
            self._file.flush()
            os.fsync(self._file.fileno())

    def close(self) -> None:
        if self._file is not None:
            try:
                self.flush()
            except OSError:
                pass
            self._file.close()
            self._file = None

    def delete(self) -> None:
        """Close and remove the journal file (durable campaign delete)."""
        self.close()
        try:
            self.path.unlink()
        except FileNotFoundError:
            pass
