"""Server workloads: ``stream-http`` and ``recover``.

Both run ``repro serve`` in its own process, with a write-ahead journal
directory, a run-ledger store and ``--refresh-every 0``.  The traced
passes start the same command through ``perfbench/launcher.py``, which
installs the layer wrappers in the server process first.

``stream-http``: two client threads in this process, one per campaign,
each a closed loop over one paper-scale world replayed as 60 batches:
ingest a batch, read the truths, and every 20th batch ask for a full
refresh (the two campaigns refresh one after the other while neither
ingests); at the end the campaign is deleted.  Passes with fresh
campaigns repeat until ``--seconds`` have passed.

``recover``: the same two-campaign stream is written through an
in-process ``CampaignStore`` (the store the server runs, minus HTTP),
then ``repro serve`` is restarted on those journals and that ledger
until ``--seconds`` have passed (at least three restarts); each restart
is timed from launch until ``/healthz`` answers ``ok``.

The timings the end-to-end metrics use are the server's CPU seconds,
read from ``/proc``: the load generator's threads and a busy host's
steal time do not inflate them.  Client-side wall-clock latencies are
printed as well.
"""

from __future__ import annotations

import os
import re
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from . import layers
from .common import (
    Report,
    cpu_timed,
    derive_seeds,
    freeze_inputs,
    host_steal_s,
    make_world,
    process_cpu_s,
)
from .stats import ErrorCount, Timing

ROOT = Path(__file__).resolve().parent.parent

#: One campaign: a paper-scale world (Sec. VII-A) replayed as 60 batches.
CAMPAIGN_WORLD = dict(n_tasks=300, n_workers=120, n_copiers=30, target_claims=6000)
N_BATCHES = 60
REFRESH_EVERY = 20
N_CAMPAIGNS = 2
SETUP_REPEATS = 3
#: Every run streams at least this many passes; its peak memory is read
#: after exactly this many, so it measures the same work in every run
#: (the server's resident size keeps growing from pass to pass).
MIN_PASSES = 2
MIN_RESTARTS = 3

_URL = re.compile(rb"repro streaming service on (http://\S+)")


# ----------------------------------------------------------------------
# The server process
# ----------------------------------------------------------------------


class Server:
    """One ``repro serve`` process, optionally started through the tracing launcher."""

    def __init__(self, work: Path, journal_dir: Path, store_dir: Path, tag: str,
                 spans_out: Path | None = None):
        self.work = work
        self.journal_dir = journal_dir
        self.store_dir = store_dir
        self.tag = tag
        self.spans_out = spans_out
        self.process: subprocess.Popen | None = None
        self.url = ""
        self.launched = 0.0
        self.listening_s = 0.0
        self.listening_cpu_s = 0.0

    def start(self, deadline: float = 120.0) -> "Server":
        serve = [
            "serve", "--port", "0", "--quiet", "--refresh-every", "0",
            "--journal-dir", str(self.journal_dir), "--store", str(self.store_dir),
        ]
        if self.spans_out is None:
            command = [sys.executable, "-m", "repro", *serve]
        else:
            command = [sys.executable, str(ROOT / "perfbench" / "launcher.py"),
                       "--spans", str(self.spans_out), "--", *serve]
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        out_path = self.work / f"{self.tag}.out"
        with open(out_path, "wb") as out, open(self.work / f"{self.tag}.err", "wb") as err:
            self.launched = time.perf_counter()
            self.process = subprocess.Popen(
                command, stdout=out, stderr=err, stdin=subprocess.DEVNULL,
                cwd=ROOT, env=env,
            )
        while True:
            match = _URL.search(out_path.read_bytes())
            if match:
                self.listening_s = time.perf_counter() - self.launched
                self.listening_cpu_s = self.cpu_s()
                self.url = match.group(1).decode()
                return self
            if self.process.poll() is not None or (
                time.perf_counter() - self.launched > deadline
            ):
                self.stop()
                raise RuntimeError(
                    f"repro serve did not start ({self.tag}): "
                    + (self.work / f"{self.tag}.err").read_text()[-2000:]
                )
            time.sleep(0.002)

    def cpu_s(self) -> float:
        """CPU seconds the server process has used since launch."""
        return process_cpu_s(self.process.pid)

    def peak_rss_mb(self) -> float:
        """The server's peak resident set size (``VmHWM``), in MiB."""
        status = Path(f"/proc/{self.process.pid}/status").read_text()
        kib = re.search(r"VmHWM:\s+(\d+) kB", status).group(1)
        return int(kib) / 1024.0

    def stop(self) -> int:
        """SIGTERM (graceful drain), then wait; kill if it will not exit."""
        if self.process is None:
            return 0
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        return self.process.returncode


# ----------------------------------------------------------------------
# The load generator
# ----------------------------------------------------------------------


class LoadClient:
    """Times requests through ``StreamingClient`` and counts failures and retries.

    Each retry the client makes goes through the injected ``sleep``,
    which is where it is counted.  A reply other than 2xx, or none at
    all, is a failed operation.
    """

    def __init__(self, url: str, errors: ErrorCount, *, retries: int = 3,
                 backoff: float = 0.05):
        from repro.streaming.client import StreamingClient

        self.errors = errors
        self.client = StreamingClient(
            url, timeout=60.0, retries=retries, backoff=backoff, sleep=self._sleep,
        )

    def _sleep(self, delay: float) -> None:
        self.errors.retry()
        time.sleep(delay)

    def call(self, method: str, path: str, payload: dict | None = None):
        """``(reply or None, seconds)`` for one request, counted as one operation."""
        from repro.streaming.client import ClientError, ServerUnavailableError

        start = time.perf_counter()
        try:
            reply = self.client.request(method, path, payload)
        except (ClientError, ServerUnavailableError):
            reply = None
        seconds = time.perf_counter() - start
        self.errors.op(reply is not None)
        return reply, seconds


@dataclass
class Campaign:
    """One campaign's wire payloads."""

    campaign_id: str
    payloads: list
    claims: int

    def reference_truths(self) -> dict:
        """Truths of ``DATE().run`` on the dataset the server accumulates.

        The server decodes each payload and appends its tasks, workers
        and claims in arrival order, so the reference is built the same
        way from the same payloads.
        """
        from repro import DATE
        from repro.streaming import batch_from_json
        from repro.types import Dataset

        tasks, workers, claims = [], [], {}
        for payload in self.payloads:
            batch = batch_from_json(payload)
            tasks += batch.tasks
            workers += batch.workers
            claims.update(batch.claims)
        dataset = Dataset(tasks=tuple(tasks), workers=tuple(workers), claims=claims)
        return DATE().run(dataset).truths


def prepare_campaign(campaign_id: str, world_seed: int) -> Campaign:
    """Generate a world and encode its 60-batch replay as wire payloads."""
    from repro.streaming import batch_to_json, replay_batches

    world = make_world(world_seed, CAMPAIGN_WORLD)
    payloads = [batch_to_json(batch, include_truth=True)
                for batch in replay_batches(world, N_BATCHES)]
    return Campaign(campaign_id, payloads, len(world.claims))


def prepare_pass(seed: int, index: int) -> list[Campaign]:
    seeds = derive_seeds(seed, 100 + index, N_CAMPAIGNS)
    return [prepare_campaign(f"c{c}-p{index}", s) for c, s in enumerate(seeds)]


@dataclass
class Samples:
    """Client-side latencies of one or more passes."""

    ingest: list = field(default_factory=list)
    read: list = field(default_factory=list)
    refresh: list = field(default_factory=list)
    #: (method, path) -> latencies in request order, for pairing with server spans.
    by_path: dict = field(default_factory=dict)
    pass_seconds: list = field(default_factory=list)
    #: Server CPU seconds spent in each pass.
    pass_cpu_s: list = field(default_factory=list)
    batches: int = 0
    claims: int = 0
    lock: threading.Lock = field(default_factory=threading.Lock)

    def add(self, kind: str, method: str, path: str, seconds: float) -> None:
        with self.lock:
            getattr(self, kind).append(seconds)
            self.by_path.setdefault((method, path), []).append(seconds)


def _wait(barrier: threading.Barrier) -> None:
    try:
        barrier.wait(timeout=300)
    except threading.BrokenBarrierError:
        pass


def _drive_campaign(url: str, campaign: Campaign, turn: int, errors: ErrorCount,
                    samples: Samples, finals: dict, aligned: threading.Barrier) -> None:
    client = LoadClient(url, errors)
    base = f"/campaigns/{campaign.campaign_id}"
    client.call("POST", "/campaigns", {"campaign_id": campaign.campaign_id})
    last_refresh = None
    for seq, payload in enumerate(campaign.payloads, start=1):
        body = dict(payload, seq=seq)
        _, seconds = client.call("POST", base + "/claims", body)
        samples.add("ingest", "POST", base + "/claims", seconds)
        _, seconds = client.call("GET", base + "/truths")
        samples.add("read", "GET", base + "/truths", seconds)
        if seq % REFRESH_EVERY == 0:
            # The campaigns refresh one after the other, in a fixed order,
            # while neither ingests: how refreshes overlap would otherwise
            # depend on scheduling, and move peak memory from run to run.
            for refreshing in range(aligned.parties):
                _wait(aligned)
                if refreshing == turn:
                    last_refresh, seconds = client.call("POST", base + "/refresh")
                    samples.add("refresh", "POST", base + "/refresh", seconds)
            _wait(aligned)
    finals[campaign.campaign_id] = last_refresh["truths"] if last_refresh else None
    # Evict the finished campaign so every pass starts from the same server state.
    client.call("DELETE", base)


def stream_pass(server: Server, campaigns: list[Campaign], errors: ErrorCount,
                samples: Samples) -> dict:
    """Both campaigns concurrently, one client thread each; returns final truths."""
    finals: dict = {}
    aligned = threading.Barrier(len(campaigns))
    threads = [
        threading.Thread(target=_drive_campaign,
                         args=(server.url, c, turn, errors, samples, finals, aligned))
        for turn, c in enumerate(campaigns)
    ]
    start, cpu = time.perf_counter(), server.cpu_s()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    samples.pass_seconds.append(time.perf_counter() - start)
    samples.pass_cpu_s.append(server.cpu_s() - cpu)
    samples.batches += sum(len(c.payloads) for c in campaigns)
    samples.claims += sum(c.claims for c in campaigns)
    return finals


def _check_finals(campaigns, finals, errors: ErrorCount) -> None:
    for campaign in campaigns:
        errors.check(
            finals.get(campaign.campaign_id) == campaign.reference_truths(),
            f"stream-http: {campaign.campaign_id} final /refresh truths equal a "
            "cold DATE().run on its dataset",
        )


def _fresh_dirs(work: Path, tag: str) -> tuple[Path, Path]:
    journal_dir, store_dir = work / tag / "journal", work / tag / "ledger"
    journal_dir.mkdir(parents=True)
    store_dir.mkdir(parents=True)
    return journal_dir, store_dir


def _pair_http_overhead(samples: Samples, spans) -> float:
    """Median of client latency minus ``StreamingApp.handle``, in ms.

    Requests are paired per (method, path): one campaign's requests
    are sequential, so the i-th server request on a path answers the
    i-th client request on it.
    """
    kids = {}
    for span in spans:
        if span.name == "streaming.handle" and span.parent is not None:
            kids[span.parent] = span
    server: dict = {}
    for span in sorted(spans, key=lambda s: s.start):
        if span.name == "streaming.request" and span.id in kids:
            key = (span.attrs["method"], span.attrs["path"])
            server.setdefault(key, []).append(kids[span.id].seconds)
    gaps = []
    for key, client in samples.by_path.items():
        if key[0] == "POST" and key[1].endswith("/refresh"):
            continue
        handled = server.get(key, [])
        if len(handled) == len(client):
            gaps += [c - h for c, h in zip(client, handled)]
    return 1000.0 * statistics.median(gaps) if gaps else 0.0


# ----------------------------------------------------------------------
# stream-http
# ----------------------------------------------------------------------


def run_stream(seed: int, seconds: float, trace: bool, work: Path) -> Report:
    errors = ErrorCount()
    report = Report(errors)

    # Set-up, several times: prepare the first pass and launch a server.
    # Its CPU seconds are this process's for the preparation plus the
    # server's until it listens.
    setups, server = [], None
    for attempt in range(SETUP_REPEATS):
        if server is not None:
            server.stop()
        prepared, _, prepare_cpu = cpu_timed(prepare_pass, seed, 0)
        passes = [prepared]
        server = Server(work, *_fresh_dirs(work, f"setup{attempt}"), f"setup{attempt}")
        server.start()
        setups.append(prepare_cpu + server.listening_cpu_s)
    setup = Timing("setup CPU s (prepare 2 campaigns + launch)", "s", setups)
    freeze_inputs()

    samples = Samples()
    finals: dict = {}
    start, steal = time.perf_counter(), host_steal_s()
    try:
        while True:
            finals.update(stream_pass(server, passes[-1], errors, samples))
            if len(passes) == MIN_PASSES:
                peak_rss = server.peak_rss_mb()
            # Another pass only if it is expected to end within --seconds.
            if len(passes) >= MIN_PASSES and (
                time.perf_counter() - start + samples.pass_seconds[-1] > seconds
            ):
                break
            passes.append(prepare_pass(seed, len(passes)))
            freeze_inputs()
    finally:
        exit_code = server.stop()
    steal = host_steal_s() - steal
    errors.check(exit_code == 0, "stream-http: server exits 0 on SIGTERM")
    campaigns = [c for group in passes for c in group]
    _check_finals(campaigns, finals, errors)

    ingest = Timing("ingest_ms", "ms", [1000.0 * s for s in samples.ingest])
    read = Timing("read_ms", "ms", [1000.0 * s for s in samples.read])
    refresh = Timing("refresh_s", "s", samples.refresh)
    busy = sum(samples.pass_seconds)
    server_cpu = sum(samples.pass_cpu_s)
    report.info += [
        f"# campaigns: {len(campaigns)} x {CAMPAIGN_WORLD} in {N_BATCHES} batches, "
        f"{len(passes)} pass(es) of {N_CAMPAIGNS} concurrent campaigns",
        "# " + setup.describe(),
        "# " + ingest.describe(),
        "# " + read.describe(),
        "# " + refresh.describe(),
        f"# batches_per_s={samples.batches / busy:.6g} ({samples.batches} batches)",
        f"# claims_per_s={samples.claims / busy:.6g} ({samples.claims} claims)",
        f"# server CPU s per batch={server_cpu / samples.batches:.6g} "
        f"({server_cpu:.2f} CPU s over {samples.batches} batches, reads and "
        "refreshes included)",
        f"# peak_rss_mb={peak_rss:.6g} (server process, after {MIN_PASSES} passes)",
        f"# host steal while measuring: {steal:.2f} CPU s",
    ]
    report.e2e = {
        "setup_s": setup.median,
        "cpu_s_per_op": server_cpu / samples.batches,
        "claims_per_cpu_s": samples.claims / server_cpu,
        "peak_rss_mb": peak_rss,
    }
    if trace:
        _traced_stream(passes, samples, finals, errors, report, work)
    report.info.append("# " + errors.describe())
    report.e2e["success_rate"] = max(0.0, 1.0 - errors.error_rate)
    return report


def _traced_stream(passes, plain: Samples, plain_finals: dict, errors: ErrorCount,
                   report: Report, work: Path) -> None:
    spans_out = work / "stream-spans.json"
    server = Server(work, *_fresh_dirs(work, "traced"), "traced", spans_out=spans_out)
    server.start()
    samples = Samples()
    finals: dict = {}
    try:
        for campaigns in passes:
            finals.update(stream_pass(server, campaigns, errors, samples))
    finally:
        exit_code = server.stop()
    errors.check(exit_code == 0, "stream-http: traced server exits 0 on SIGTERM")
    if finals != plain_finals:
        report.problems.append("stream-http: traced final truths differ from untraced")
    spans, counts = layers.load(spans_out)
    recover = sum(s.seconds for s in spans if s.name == "streaming.recover")
    overhead = sum(samples.pass_cpu_s) / sum(plain.pass_cpu_s) - 1.0
    layers.report_traced(
        report, spans, counts, overhead=overhead,
        startup=server.listening_s - recover,
        http_overhead_ms=_pair_http_overhead(samples, spans),
        op_kinds=("ingest", "read", "refresh"),
    )


# ----------------------------------------------------------------------
# recover
# ----------------------------------------------------------------------


def write_journals(seed: int, journal_dir: Path, store_dir: Path):
    """Stream the campaigns of ``prepare_pass(seed, 0)`` through a journaled store.

    Each batch takes the server's path: the wire payload is decoded
    with ``batch_from_json`` and ingested under its sequence number,
    and every 20th batch is followed by a full refresh.  Returns the
    campaigns, their truths, and each campaign's set-up CPU seconds
    (generating its world and payloads, and journaling them).
    """
    from repro.artifacts import RunLedger
    from repro.streaming import CampaignStore, batch_from_json

    campaigns, setup_cpu = [], []
    store = CampaignStore(journal_dir=journal_dir, ledger=RunLedger(store_dir))
    try:
        for c, world_seed in enumerate(derive_seeds(seed, 100, N_CAMPAIGNS)):
            start = time.process_time()
            campaign = prepare_campaign(f"c{c}-p0", world_seed)
            store.create(campaign.campaign_id)
            for seq, payload in enumerate(campaign.payloads, start=1):
                store.ingest(campaign.campaign_id, batch_from_json(payload), seq=seq)
                if seq % REFRESH_EVERY == 0:
                    store.estimate(campaign.campaign_id, refresh=True)
            setup_cpu.append(time.process_time() - start)
            campaigns.append(campaign)
        truths = {c.campaign_id: store.truths(c.campaign_id)["truths"] for c in campaigns}
        return campaigns, truths, setup_cpu
    finally:
        store.close()


@dataclass
class Restarts:
    ready: list = field(default_factory=list)
    #: Server CPU seconds from launch until ``/healthz`` said ``ok``.
    ready_cpu: list = field(default_factory=list)
    listening: list = field(default_factory=list)
    rss: list = field(default_factory=list)
    truths: list = field(default_factory=list)


def restart(work: Path, journal_dir: Path, store_dir: Path, tag: str,
            campaigns, errors: ErrorCount, runs: Restarts,
            spans_out: Path | None = None) -> None:
    """Launch on the journals, time until ``/healthz`` is ok, read truths, stop."""
    server = Server(work, journal_dir, store_dir, tag, spans_out=spans_out)
    server.start()
    try:
        client = LoadClient(server.url, errors, retries=0)
        while True:
            health, _ = client.call("GET", "/healthz")
            if health is None or health.get("status") == "ok":
                break
            time.sleep(0.002)
        if health is not None:
            runs.ready_cpu.append(server.cpu_s())
            runs.ready.append(time.perf_counter() - server.launched)
            runs.listening.append(server.listening_s)
        recovered = {}
        for campaign in campaigns:
            reply, _ = client.call("GET", f"/campaigns/{campaign.campaign_id}/truths")
            recovered[campaign.campaign_id] = reply["truths"] if reply else None
        runs.truths.append(recovered)
        runs.rss.append(server.peak_rss_mb())
    finally:
        exit_code = server.stop()
    errors.check(exit_code == 0, f"recover: server exits 0 on SIGTERM ({tag})")


def run_recover(seed: int, seconds: float, trace: bool, work: Path) -> Report:
    errors = ErrorCount()
    report = Report(errors)
    journal_dir, store_dir = _fresh_dirs(work, "recover")
    (campaigns, captured, setup_cpu), write_s, _ = cpu_timed(
        write_journals, seed, journal_dir, store_dir)
    setup = Timing("setup CPU s per campaign (prepare + journal production)", "s",
                   setup_cpu)

    runs = Restarts()
    start, steal = time.perf_counter(), host_steal_s()
    while True:
        began = time.perf_counter()
        restart(work, journal_dir, store_dir, f"restart{len(runs.truths)}",
                campaigns, errors, runs)
        # Another restart only if it is expected to end within --seconds.
        now = time.perf_counter()
        if len(runs.truths) >= MIN_RESTARTS and now - start + (now - began) > seconds:
            break
    steal = host_steal_s() - steal
    for recovered in runs.truths:
        errors.check(recovered == captured,
                     "recover: recovered truths equal those captured before shutdown")
    ready = Timing("ready_s", "s", runs.ready)
    ready_cpu = Timing("server CPU s until ready", "s", runs.ready_cpu)
    claims = sum(c.claims for c in campaigns)
    report.info += [
        f"# journals: {len(campaigns)} campaigns x {N_BATCHES} batches of "
        f"{CAMPAIGN_WORLD}, refresh every {REFRESH_EVERY}",
        "# " + setup.describe() + f"; journal production took {write_s:.6g} s wall",
        "# " + ready.describe(),
        "# " + ready_cpu.describe(),
        "# " + Timing("listening_s", "s", runs.listening).describe(),
        f"# claims_per_s={claims / ready.median:.6g} ({claims} claims recovered per restart)",
        f"# peak_rss_mb={statistics.median(runs.rss):.6g} (server process, median)",
        f"# host steal while measuring: {steal:.2f} CPU s",
    ]
    report.e2e = {
        "setup_s": setup.median,
        "cpu_s_per_op": ready_cpu.median,
        "claims_per_cpu_s": claims / ready_cpu.median,
        "peak_rss_mb": statistics.median(runs.rss),
    }
    if trace:
        _traced_recover(work, journal_dir, store_dir, campaigns, captured, runs,
                        errors, report)
    report.info.append("# " + errors.describe())
    report.e2e["success_rate"] = max(0.0, 1.0 - errors.error_rate)
    return report


def _traced_recover(work, journal_dir, store_dir, campaigns, captured,
                    plain: Restarts, errors: ErrorCount, report: Report) -> None:
    traced = Restarts()
    spans, counts = [], {}
    startups = []
    for k in range(len(plain.ready)):
        spans_out = work / f"recover-spans-{k}.json"
        restart(work, journal_dir, store_dir, f"traced{k}", campaigns, errors,
                traced, spans_out=spans_out)
        run_spans, run_counts = layers.load(spans_out, offset=len(spans))
        recover = sum(s.seconds for s in run_spans if s.name == "streaming.recover")
        startups.append(traced.listening[-1] - recover)
        spans += run_spans
        for name, value in run_counts.items():
            counts[name] = counts.get(name, 0) + value
    if any(recovered != captured for recovered in traced.truths):
        report.problems.append("recover: traced recovered truths differ from untraced")
    overhead = statistics.median(traced.ready_cpu) / statistics.median(plain.ready_cpu) - 1.0
    layers.report_traced(
        report, spans, counts, overhead=overhead,
        startup=statistics.median(startups),
        op_kinds=("recover",),
    )
