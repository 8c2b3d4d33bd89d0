"""Where the benchmark's spans go, and how spans become per-layer metrics.

:func:`install` wraps the public functions of ``repro.core``,
``repro.auction``/``repro.mechanism``, ``repro.streaming`` and
``repro.artifacts`` under one span name per layer.  Each name is
patched where its caller looks it up: the DATE kernels in the module
globals of ``repro.core.date``, the artifact codecs in those of
``repro.streaming.campaign``, and so on.  Nothing under ``src/`` is
changed; the wrappers only time calls and read their results.

:func:`layer_metrics` turns a finished span list into the per-layer
metrics of ``BENCHMARK.json``.  Every ``*_s`` layer metric is seconds
per root operation (a solve, an HTTP request or a restart).  Names
ending in ``_self_s``, and ``auction.payment_s``, are self time (span
minus the union of its children); the others are inclusive.  A layer
the workload never enters reads 0.
"""

from __future__ import annotations

import json
import types
from pathlib import Path

from .tracing import Patcher, Span, Tracer, layer_totals, root_coverage

#: Time metrics: metric -> (span name, "inclusive" | "self").
TIME_METRICS = {
    "core.index_build_s": ("core.index_build", "inclusive"),
    "core.pair_tables_s": ("core.pair_tables", "inclusive"),
    "core.index_extend_s": ("core.index_extend", "inclusive"),
    "core.dependence_s": ("core.dependence", "inclusive"),
    "core.independence_s": ("core.independence", "inclusive"),
    "core.posterior_s": ("core.posterior", "inclusive"),
    "core.support_s": ("core.support", "inclusive"),
    "core.result_s": ("core.result", "inclusive"),
    "core.date_self_s": ("core.date", "self"),
    "auction.soac_build_s": ("auction.soac_build", "inclusive"),
    "auction.selection_s": ("auction.selection", "inclusive"),
    "auction.payment_s": ("auction.engine", "self"),
    "mechanism.self_s": ("mechanism.imc2", "self"),
    "streaming.decode_s": ("streaming.decode", "inclusive"),
    "streaming.validate_s": ("streaming.validate", "inclusive"),
    "streaming.online_ingest_s": ("streaming.online_ingest", "inclusive"),
    "streaming.journal_append_s": ("streaming.journal_append", "inclusive"),
    "streaming.store_self_s": ("streaming.store", "self"),
    "streaming.refresh_s": ("streaming.refresh", "inclusive"),
    "streaming.read_s": ("streaming.read", "inclusive"),
    "streaming.journal_read_s": ("streaming.journal_read", "inclusive"),
    "streaming.recover_s": ("streaming.recover", "inclusive"),
    "artifacts.fingerprint_s": ("artifacts.fingerprint", "inclusive"),
    "artifacts.encode_s": ("artifacts.encode", "inclusive"),
    "artifacts.ledger_put_s": ("artifacts.ledger_put", "inclusive"),
    "artifacts.decode_s": ("artifacts.decode", "inclusive"),
    "artifacts.ledger_get_s": ("artifacts.ledger_get", "inclusive"),
}

#: Root spans that count as operations, by the kind they report as.
SOLVE_ROOTS = ("core.date", "mechanism.imc2")


def root_kind(span: Span) -> str | None:
    """Kind of a root span: solve, ingest, read, refresh, recover, or None."""
    if span.name in SOLVE_ROOTS:
        return "solve"
    if span.name == "streaming.recover":
        return "recover"
    if span.name == "streaming.request":
        method, path = span.attrs.get("method"), span.attrs.get("path", "")
        if method == "POST" and path.endswith("/claims"):
            return "ingest"
        if method == "GET" and path.endswith("/truths"):
            return "read"
        if method == "POST" and path.endswith("/refresh"):
            return "refresh"
    return None


def install(tracer: Tracer) -> Patcher:
    """Wrap every layer boundary; returns the patcher that undoes it."""
    from repro.artifacts import ledger as ledger_mod
    from repro.auction import engine as auction_engine
    from repro.auction.reverse_auction import ReverseAuction
    from repro.auction.soac import SOACInstance
    from repro.core import date as date_mod
    from repro.core.engine import IncrementalDependence
    from repro.core.indexing import ClaimArrays, DatasetIndex
    from repro.mechanism.imc2 import IMC2
    from repro.streaming import campaign as campaign_mod
    from repro.streaming import journal as journal_mod
    from repro.streaming import server as server_mod
    from repro.streaming.online import OnlineDATE

    patch = Patcher(tracer)

    def note_pairs(arrays) -> None:
        # Pairs are read off the enclosing DATE run, once per run.
        enclosing = tracer.current()
        if enclosing is not None and enclosing.name == "core.date":
            enclosing.attrs.setdefault("pairs", int(arrays.n_pairs))

    # -- core ------------------------------------------------------------
    patch.method(
        date_mod.DATE, "run", "core.date",
        after=lambda span, a, k, r: span.attrs.update(iterations=r.iterations),
    )
    patch.function(date_mod, "DatasetIndex", "core.index_build")
    patch.cached_property(DatasetIndex, "arrays", "core.index_build")
    patch.cached_property(ClaimArrays, "_pair_tables", "core.pair_tables")
    patch.method(DatasetIndex, "extended", "core.index_extend")
    patch.function(
        date_mod, "pairwise_dependence_arrays", "core.dependence",
        after=lambda span, a, k, r: note_pairs(a[0]),
    )
    patch.method(
        IncrementalDependence, "__init__", "core.dependence",
        after=lambda span, a, k, r: note_pairs(a[1]),
    )
    patch.method(IncrementalDependence, "refresh", "core.dependence")
    patch.function(date_mod, "independence_flat", "core.independence")
    for kernel in ("discounted_posterior_groups", "plain_posterior_groups",
                   "accuracy_flat"):
        patch.function(date_mod, kernel, "core.posterior")
    for kernel in ("support_flat", "select_truth_codes"):
        patch.function(date_mod, kernel, "core.support")
    for kernel in ("dense_accuracy", "posterior_table", "support_table",
                   "dependence_table", "build_result"):
        patch.function(date_mod, kernel, "core.result")

    # -- auction / mechanism ---------------------------------------------
    patch.method(IMC2, "run", "mechanism.imc2")
    patch.method(SOACInstance, "from_truth_discovery", "auction.soac_build")
    patch.method(SOACInstance, "with_capped_requirements", "auction.soac_build")
    patch.method(ReverseAuction, "run", "auction.run")
    patch.function(
        auction_engine, "run_auction", "auction.engine",
        after=lambda span, a, k, r: span.attrs.update(winners=len(r[0])),
    )
    patch.function(auction_engine, "batched_greedy_cover", "auction.selection")
    patch.counter(auction_engine._Cover, "pick", "auction.rounds")

    # -- streaming -------------------------------------------------------
    handler = server_mod._Handler
    # do_GET/do_POST/do_DELETE are bound to _respond at class creation.
    for verb in ("do_GET", "do_POST", "do_DELETE"):
        patch.method(
            handler, verb, "streaming.request",
            attrs=lambda a, k: {"method": a[0].command, "path": a[0].path},
        )
    patch.method(handler, "_send", "streaming.http_encode")
    codec = types.SimpleNamespace(**vars(json))
    codec.loads = tracer.wrap(json.loads, "streaming.http_decode")
    patch.replace(server_mod, "json", codec)
    patch.method(server_mod.StreamingApp, "handle", "streaming.handle")
    patch.function(server_mod, "batch_from_json", "streaming.decode")
    patch.function(campaign_mod, "batch_from_record", "streaming.decode")
    store = campaign_mod.CampaignStore
    patch.method(store, "ingest", "streaming.store")
    patch.method(store, "_refresh", "streaming.refresh")
    patch.method(store, "truths", "streaming.read")
    patch.method(store, "recover", "streaming.recover")
    patch.method(store, "_replay_journal", "streaming.replay")
    patch.function(campaign_mod, "read_journal", "streaming.journal_read")
    patch.method(OnlineDATE, "validate", "streaming.validate")
    patch.method(
        OnlineDATE, "ingest", "streaming.online_ingest",
        after=lambda span, a, k, r: span.attrs.update(dirty=r.dirty_tasks),
    )
    patch.method(journal_mod.CampaignJournal, "append", "streaming.journal_append")
    patch.counter(journal_mod, "_frame", "streaming.journal_bytes", value=len)

    # -- artifacts -------------------------------------------------------
    patch.function(campaign_mod, "snapshot_fingerprint", "artifacts.fingerprint")
    patch.function(ledger_mod, "snapshot_fingerprint", "artifacts.fingerprint")
    patch.function(campaign_mod, "truth_result_to_payload", "artifacts.encode")
    patch.function(campaign_mod, "truth_result_from_payload", "artifacts.decode")

    def note_lookup(span, args, kwargs, result) -> None:
        tracer.count("artifacts.ledger_lookups")
        if result is not None:
            tracer.count("artifacts.ledger_hits")

    ledger_cls = ledger_mod.RunLedger
    patch.method(ledger_cls, "get_snapshot", "artifacts.ledger_get", after=note_lookup)
    patch.method(ledger_cls, "get_snapshot_fp", "artifacts.ledger_get", after=note_lookup)

    def note_snapshot(span, args, kwargs, fp) -> None:
        span.attrs["bytes"] = args[0]._path("snapshots", fp).stat().st_size

    patch.method(ledger_cls, "put_snapshot", "artifacts.ledger_put", after=note_snapshot)
    return patch


def _mean_attr(spans: list[Span], name: str, attr: str) -> float:
    values = [s.attrs.get(attr, 0) for s in spans if s.name == name]
    return sum(values) / len(values) if values else 0.0


def layer_metrics(spans: list[Span], counts: dict,
                  op_kinds: tuple[str, ...]) -> tuple[dict, dict]:
    """Per-layer metrics of one traced run, plus per-kind root coverage.

    Time metrics are divided by the number of roots of ``op_kinds``,
    the workload's operations.  Returns ``(metrics, coverage)``:
    ``metrics`` maps every time and count metric to its value;
    ``coverage`` maps each root kind to ``(aggregate, worst root,
    roots)`` as :func:`root_coverage` gives.
    """
    totals = layer_totals(spans)
    kinds = root_coverage(spans, root_kind)
    ops = sum(n for kind, (_, _, n) in kinds.items() if kind in op_kinds)
    metrics: dict[str, float] = {}
    for metric, (name, which) in TIME_METRICS.items():
        entry = totals.get(name)
        seconds = 0.0
        if entry is not None:
            seconds = entry.self_seconds if which == "self" else entry.seconds
        metrics[metric] = seconds / ops if ops else 0.0
    date_runs = totals["core.date"].calls if "core.date" in totals else 0
    engine_runs = totals["auction.engine"].calls if "auction.engine" in totals else 0
    appends = (totals["streaming.journal_append"].calls
               if "streaming.journal_append" in totals else 0)
    lookups = counts.get("artifacts.ledger_lookups", 0)
    metrics.update({
        "core.date_runs": date_runs / ops if ops else 0.0,
        "core.date_iterations": _mean_attr(spans, "core.date", "iterations"),
        "core.pairs": _mean_attr(spans, "core.date", "pairs"),
        "auction.rounds": counts.get("auction.rounds", 0) / engine_runs
        if engine_runs else 0.0,
        "auction.winners": _mean_attr(spans, "auction.engine", "winners"),
        "streaming.dirty_tasks": _mean_attr(spans, "streaming.online_ingest", "dirty"),
        "streaming.journal_bytes": counts.get("streaming.journal_bytes", 0) / appends
        if appends else 0.0,
        "artifacts.snapshot_bytes": _mean_attr(spans, "artifacts.ledger_put", "bytes"),
        "artifacts.ledger_hit_rate": counts.get("artifacts.ledger_hits", 0) / lookups
        if lookups else 0.0,
    })
    return metrics, kinds


def report_traced(report, spans: list[Span], counts: dict, *, op_kinds: tuple[str, ...],
                  overhead: float, startup: float = 0.0,
                  http_overhead_ms: float = 0.0) -> None:
    """Fill ``report.layers`` from a traced pass and gate root coverage.

    Every root kind in ``op_kinds`` must be covered at least 95% by
    named children (aggregated over its roots), or the run is marked
    incorrect.  ``overhead``, ``startup`` and ``http_overhead_ms`` are
    measured by the workload itself.
    """
    metrics, kinds = layer_metrics(spans, counts, op_kinds)
    coverage = 1.0
    for kind in op_kinds:
        aggregate, worst, roots = kinds.get(kind, (0.0, 0.0, 0))
        coverage = min(coverage, aggregate)
        report.info.append(
            f"# coverage of {kind} roots: aggregate {aggregate:.4f}, "
            f"worst {worst:.4f}, n={roots}"
        )
        if aggregate < 0.95:
            report.problems.append(
                f"named children cover {aggregate:.4f} of {kind} time, under 0.95"
            )
    metrics.update({
        "streaming.http_overhead_ms": http_overhead_ms,
        "streaming.startup_s": startup,
        "trace.coverage": coverage,
        "trace.overhead": overhead,
    })
    report.layers = metrics
    lookups = counts.get("artifacts.ledger_lookups", 0)
    if lookups:
        report.info.append(
            f"# ledger hits {counts.get('artifacts.ledger_hits', 0)} of {lookups} lookups"
        )
    ops = sum(n for kind, (_, _, n) in kinds.items() if kind in op_kinds)
    report.info.append(f"# tracing overhead {overhead:+.4f} of the untraced cpu_s_per_op")
    report.info += describe_breakdown(spans, ops)


def describe_breakdown(spans: list[Span], ops: int) -> list[str]:
    """Comment lines: every span name's calls, inclusive and self s per op.

    Self times add up to the mean root operation; the share column is
    each name's part of that sum.
    """
    totals = sorted(layer_totals(spans).items(), key=lambda item: -item[1].self_seconds)
    whole = sum(t.self_seconds for _, t in totals) or 1.0
    ops = max(ops, 1)
    lines = [f"# {'span':28} {'calls':>8} {'incl s/op':>11} {'self s/op':>11} {'self %':>7}"]
    for name, t in totals:
        lines.append(
            f"# {name:28} {t.calls:8d} {t.seconds / ops:11.6f} "
            f"{t.self_seconds / ops:11.6f} {100.0 * t.self_seconds / whole:7.2f}"
        )
    return lines


def dump(tracer: Tracer, path: str | Path) -> None:
    Path(path).write_text(json.dumps(tracer.to_json()))


def load(path: str | Path, offset: int = 0) -> tuple[list[Span], dict]:
    """Spans and counts written by :func:`dump`.

    ``offset`` shifts span ids, parents and request ids so that spans
    from several processes can be analysed as one list.
    """
    data = json.loads(Path(path).read_text())
    spans = [Span.from_json(row) for row in data["spans"]]
    for span in spans:
        span.id += offset
        span.request += offset
        if span.parent is not None:
            span.parent += offset
    return spans, data["counts"]
