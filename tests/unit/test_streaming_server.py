"""Unit tests for the campaign store and HTTP service
(repro.streaming.campaign / repro.streaming.server)."""

from __future__ import annotations

import http.client
import json
import threading
import urllib.error
import urllib.request

import pytest

from repro import DateConfig
from repro.streaming import (
    CampaignStore,
    ClaimBatch,
    DuplicateCampaignError,
    StreamingApp,
    UnknownCampaignError,
    batch_to_json,
    make_server,
    replay_batches,
)
from repro.streaming.server import config_from_spec


@pytest.fixture
def store():
    return CampaignStore()


@pytest.fixture
def app(store):
    return StreamingApp(store)


@pytest.fixture
def replay(qlf_small):
    return replay_batches(qlf_small, 3)


class TestCampaignStore:
    def test_create_get_evict(self, store):
        campaign = store.create("c1")
        assert store.get("c1") is campaign
        assert "c1" in store
        store.evict("c1")
        assert "c1" not in store

    def test_duplicate_create_rejected(self, store):
        store.create("c1")
        with pytest.raises(DuplicateCampaignError):
            store.create("c1")

    def test_unknown_campaign_raises(self, store):
        with pytest.raises(UnknownCampaignError):
            store.get("nope")
        with pytest.raises(UnknownCampaignError):
            store.evict("nope")
        with pytest.raises(UnknownCampaignError):
            store.ingest("nope", ClaimBatch())

    def test_ingest_and_estimate(self, store, replay):
        store.create("c1")
        for batch in replay:
            store.ingest("c1", batch)
        snapshot = store.estimate("c1")
        refreshed = store.estimate("c1", refresh=True)
        assert set(snapshot.truths) == set(refreshed.truths)
        assert refreshed.method == "DATE"

    def test_snapshot_is_json_safe(self, store, replay):
        store.create("c1")
        store.ingest("c1", replay[0])
        snapshot = store.snapshot("c1")
        json.dumps(snapshot)  # must not raise
        assert snapshot["campaign_id"] == "c1"
        assert snapshot["claims"] == replay[0].n_claims

    def test_lru_eviction(self):
        store = CampaignStore(max_campaigns=2)
        store.create("a")
        store.create("b")
        store.get("a")  # touch: "b" becomes least recently used
        store.create("c")
        assert "a" in store and "c" in store
        assert "b" not in store

    def test_auction_runs_on_refreshed_estimate(self, store, qlf_small):
        store.create("c1")
        store.ingest(
            "c1",
            ClaimBatch(
                claims=qlf_small.claims,
                tasks=qlf_small.tasks,
                workers=qlf_small.workers,
            ),
        )
        outcome = store.auction("c1", requirement_cap=0.7)
        assert outcome.auction.n_winners > 0
        cold_truths = store.estimate("c1", refresh=True).truths
        assert outcome.estimated_truths == cold_truths

    def test_per_campaign_config(self, store):
        campaign = store.create("c1", config=DateConfig(copy_prob_r=0.7))
        assert campaign.online.config.copy_prob_r == 0.7


class TestConfigFromSpec:
    def test_aliases(self):
        base = DateConfig()
        config = config_from_spec(
            {"r": 0.6, "alpha": 0.3, "epsilon": 0.4, "max_iterations": 7}, base
        )
        assert config.copy_prob_r == 0.6
        assert config.prior_alpha == 0.3
        assert config.initial_accuracy == 0.4
        assert config.max_iterations == 7

    def test_unknown_field_rejected(self):
        from repro.errors import ReproError

        with pytest.raises(ReproError):
            config_from_spec({"nonsense": 1}, DateConfig())

    def test_none_returns_base(self):
        base = DateConfig()
        assert config_from_spec(None, base) is base


class TestStreamingApp:
    def test_health(self, app):
        status, body = app.handle("GET", "/health")
        assert status == 200
        assert body["status"] == "ok"
        assert body["campaigns"] == 0

    def test_create_list_delete(self, app):
        status, body = app.handle("POST", "/campaigns", {"campaign_id": "c1"})
        assert status == 201 and body["campaign_id"] == "c1"
        status, body = app.handle("GET", "/campaigns")
        assert status == 200 and len(body["campaigns"]) == 1
        status, body = app.handle("DELETE", "/campaigns/c1")
        assert status == 200
        assert len(app.store) == 0

    def test_create_requires_campaign_id(self, app):
        status, body = app.handle("POST", "/campaigns", {})
        assert status == 400

    def test_empty_store_not_discarded(self):
        # CampaignStore defines __len__, so a configured-but-empty
        # store is falsy; the app must still adopt it (`store or ...`
        # silently replaced it with a default store once).
        configured = CampaignStore(algorithm="FDS", refresh_every=3)
        app = StreamingApp(configured)
        assert app.store is configured
        status, body = app.handle(
            "POST", "/campaigns", {"campaign_id": "c1"}
        )
        assert status == 201
        assert body["algorithm"] == "FDS"

    def test_per_campaign_algorithm(self, app):
        status, body = app.handle(
            "POST", "/campaigns", {"campaign_id": "c1", "algorithm": "lca"}
        )
        assert status == 201 and body["algorithm"] == "LCA"
        status, body = app.handle(
            "POST", "/campaigns", {"campaign_id": "c2", "algorithm": None}
        )
        assert status == 201 and body["algorithm"] == "DATE"
        status, body = app.handle(
            "POST", "/campaigns", {"campaign_id": "bad", "algorithm": "nope"}
        )
        assert status == 400

    def test_duplicate_create_conflicts(self, app):
        app.handle("POST", "/campaigns", {"campaign_id": "c1"})
        status, body = app.handle("POST", "/campaigns", {"campaign_id": "c1"})
        assert status == 409

    def test_unknown_campaign_404(self, app):
        for method, path in [
            ("GET", "/campaigns/zz"),
            ("GET", "/campaigns/zz/truths"),
            ("POST", "/campaigns/zz/claims"),
            ("DELETE", "/campaigns/zz"),
        ]:
            status, _ = app.handle(method, path, {})
            assert status == 404, (method, path)

    def test_unknown_route_404(self, app):
        status, body = app.handle("GET", "/nope")
        assert status == 404
        status, body = app.handle("PATCH", "/campaigns")
        assert status == 404

    def test_full_campaign_flow(self, app, replay, qlf_small):
        app.handle(
            "POST", "/campaigns", {"campaign_id": "c1", "config": {"r": 0.4}}
        )
        for batch in replay:
            status, body = app.handle(
                "POST", "/campaigns/c1/claims",
                batch_to_json(batch, include_truth=True),
            )
            assert status == 200
            assert body["new_claims"] == batch.n_claims
        status, truths = app.handle("GET", "/campaigns/c1/truths")
        assert status == 200 and truths["truths"]
        status, workers = app.handle("GET", "/campaigns/c1/workers")
        assert status == 200
        assert set(workers["worker_accuracy"]) == {
            w.worker_id for w in qlf_small.workers
        }
        status, refreshed = app.handle("POST", "/campaigns/c1/refresh", {})
        assert status == 200 and refreshed["converged"] is not None
        status, auction = app.handle(
            "POST", "/campaigns/c1/auction", {"cap": 0.7}
        )
        assert status == 200 and auction["winners"]
        assert set(auction["payments"]) == set(auction["winners"])

    def test_unknown_auction_backend_400(self, app):
        """``cap`` is the only auction key; ``backend`` is no longer one."""
        app.handle("POST", "/campaigns", {"campaign_id": "c1"})
        status, body = app.handle(
            "POST", "/campaigns/c1/auction", {"backend": "reference"}
        )
        assert status == 400 and "'backend'" in body["error"]

    def test_malformed_batch_400(self, app):
        app.handle("POST", "/campaigns", {"campaign_id": "c1"})
        status, body = app.handle(
            "POST", "/campaigns/c1/claims", {"claims": [{"worker": "w"}]}
        )
        assert status == 400 and "error" in body

    def test_percent_encoded_ids_and_query_strings(self, app):
        app.handle("POST", "/campaigns", {"campaign_id": "my campaign"})
        status, body = app.handle("GET", "/campaigns/my%20campaign?verbose=1")
        assert status == 200 and body["campaign_id"] == "my campaign"
        status, _ = app.handle("GET", "/campaigns/my%20campaign/truths")
        assert status == 200

    def test_malformed_config_values_400(self, app):
        status, body = app.handle(
            "POST", "/campaigns", {"campaign_id": "c9", "config": {"r": "abc"}}
        )
        assert status == 400 and "error" in body

    def test_malformed_scalars_400(self, app):
        # Non-numeric values inside well-shaped payloads must map to a
        # 400, not escape as ValueError/TypeError.
        app.handle("POST", "/campaigns", {"campaign_id": "c1"})
        status, body = app.handle(
            "POST", "/campaigns/c1/auction", {"cap": "abc"}
        )
        assert status == 400 and "error" in body
        status, body = app.handle(
            "POST",
            "/campaigns",
            {
                "campaign_id": "c2",
                "tasks": [{"task_id": "t", "requirement": "not-a-number"}],
            },
        )
        assert status == 400 and "error" in body
        status, body = app.handle(
            "POST", "/campaigns", {"campaign_id": "c3", "refresh_every": "four"}
        )
        assert status == 400 and "error" in body

    def test_concurrent_reads_during_ingest(self, app, qlf_small):
        # Reader routes must go through the campaign lock: unlocked
        # reads race the index/accuracy swap inside OnlineDATE.ingest.
        import threading

        app.handle("POST", "/campaigns", {"campaign_id": "c1"})
        batches = replay_batches(qlf_small, 8)
        errors: list[BaseException] = []
        stop = threading.Event()

        def reader():
            while not stop.is_set():
                try:
                    status, _ = app.handle("GET", "/campaigns/c1/workers")
                    assert status == 200
                    status, _ = app.handle("GET", "/campaigns/c1/truths")
                    assert status == 200
                except BaseException as exc:  # noqa: BLE001 - collected
                    errors.append(exc)
                    return

        threads = [threading.Thread(target=reader) for _ in range(4)]
        for thread in threads:
            thread.start()
        try:
            for batch in batches:
                status, _ = app.handle(
                    "POST", "/campaigns/c1/claims", batch_to_json(batch)
                )
                assert status == 200
        finally:
            stop.set()
            for thread in threads:
                thread.join()
        assert not errors, errors[:1]

    def test_infeasible_auction_400(self, app):
        # A requirement no worker set can cover; without a cap the
        # InfeasibleCoverageError maps to a 400.
        app.handle(
            "POST",
            "/campaigns",
            {
                "campaign_id": "c1",
                "tasks": [{"task_id": "t", "requirement": 1000.0}],
                "workers": [{"worker_id": "w"}],
            },
        )
        app.handle(
            "POST",
            "/campaigns/c1/claims",
            {"claims": [{"worker": "w", "task": "t", "value": "x"}]},
        )
        status, body = app.handle("POST", "/campaigns/c1/auction", {})
        assert status == 400 and "error" in body


class TestLiveServer:
    @pytest.fixture
    def server(self, app):
        server = make_server(app, port=0)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        yield server
        server.shutdown()
        server.server_close()

    def request(self, server, method, path, payload=None):
        port = server.server_address[1]
        data = json.dumps(payload).encode() if payload is not None else None
        request = urllib.request.Request(
            f"http://127.0.0.1:{port}{path}",
            data=data,
            method=method,
            headers={"Content-Type": "application/json"},
        )
        try:
            with urllib.request.urlopen(request) as response:
                return response.status, json.loads(response.read())
        except urllib.error.HTTPError as error:
            return error.code, json.loads(error.read())

    def test_end_to_end_over_sockets(self, server, replay):
        status, body = self.request(server, "GET", "/health")
        assert status == 200 and body["status"] == "ok"
        status, body = self.request(
            server, "POST", "/campaigns", {"campaign_id": "live"}
        )
        assert status == 201
        status, body = self.request(
            server, "POST", "/campaigns/live/claims",
            batch_to_json(replay[0], include_truth=True),
        )
        assert status == 200 and body["new_claims"] == replay[0].n_claims
        status, body = self.request(server, "GET", "/campaigns/live/truths")
        assert status == 200 and body["truths"]
        status, body = self.request(server, "GET", "/campaigns/missing")
        assert status == 404
        status, body = self.request(server, "DELETE", "/campaigns/live")
        assert status == 200

    def test_invalid_json_body_400(self, server):
        port = server.server_address[1]
        request = urllib.request.Request(
            f"http://127.0.0.1:{port}/campaigns",
            data=b"{not json",
            method="POST",
            headers={"Content-Type": "application/json"},
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request)
        assert excinfo.value.code == 400



class TestMalformedBodies:
    """Bodies the handler cannot read or decode are answered with a 400."""

    @pytest.fixture
    def server(self, app):
        # A short socket timeout makes a handler stuck reading a body
        # fail fast instead of after the default 30 s.
        server = make_server(app, port=0, request_timeout=2.0)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        yield server
        server.shutdown()
        server.server_close()

    def post_raw(self, server, content_length: str, body: bytes):
        port = server.server_address[1]
        connection = http.client.HTTPConnection("127.0.0.1", port, timeout=10)
        try:
            connection.putrequest("POST", "/campaigns")
            connection.putheader("Content-Type", "application/json")
            connection.putheader("Content-Length", content_length)
            connection.endheaders(body)
            response = connection.getresponse()
            return response.status, json.loads(response.read())
        finally:
            connection.close()

    def test_non_numeric_content_length_400(self, server):
        status, body = self.post_raw(server, "abc", b"{}")
        assert status == 400
        assert "Content-Length" in body["error"]

    def test_negative_content_length_400(self, server):
        status, body = self.post_raw(server, "-5", b"{}")
        assert status == 400
        assert "Content-Length" in body["error"]

    def test_non_utf8_body_400(self, server):
        status, body = self.post_raw(server, "4", b"\x80abc")
        assert status == 400
        assert "invalid JSON body" in body["error"]

@pytest.fixture
def enabled_registry():
    """Swap in a fresh enabled registry for the duration of one test."""
    from repro.obs import MetricsRegistry, set_registry

    registry = MetricsRegistry(enabled=True)
    previous = set_registry(registry)
    yield registry
    set_registry(previous)


class TestObservabilityRoutes:
    def test_healthz(self, app):
        status, body = app.handle("GET", "/healthz")
        assert status == 200
        assert body["status"] == "ok"
        assert body["uptime_seconds"] >= 0.0
        assert body["campaigns"] == 0
        assert isinstance(body["metrics_enabled"], bool)

    def test_metrics_route_returns_exposition_text(self, app, enabled_registry):
        app.handle("POST", "/campaigns", {"campaign_id": "c1"})
        status, body = app.handle("GET", "/metrics")
        assert status == 200
        assert isinstance(body, str)
        assert "# TYPE http_requests_total counter" in body
        assert "# TYPE streaming_campaigns_live gauge" in body

    def test_metrics_on_disabled_registry_is_empty_text(self, app):
        from repro.obs import MetricsRegistry, set_registry

        previous = set_registry(MetricsRegistry(enabled=False))
        try:
            status, body = app.handle("GET", "/metrics")
        finally:
            set_registry(previous)
        assert status == 200
        assert body == ""

    def test_request_metrics_use_route_templates(self, app, enabled_registry):
        app.handle("POST", "/campaigns", {"campaign_id": "one two"})
        app.handle("GET", "/campaigns/one%20two")
        app.handle("GET", "/campaigns/one%20two/truths")
        app.handle("GET", "/campaigns/missing/truths")
        text = app.handle("GET", "/metrics")[1]
        # Campaign ids collapse into one {id} template per route, so the
        # label space stays bounded no matter how many campaigns exist.
        assert 'route="/campaigns/{id}"' in text
        assert 'route="/campaigns/{id}/truths"' in text
        assert "one two" not in text
        assert (
            'http_requests_total{method="GET",'
            'route="/campaigns/{id}/truths",status="200"} 1' in text
        )
        assert (
            'http_requests_total{method="GET",'
            'route="/campaigns/{id}/truths",status="404"} 1' in text
        )

    def test_ingest_records_per_campaign_counters(
        self, app, replay, enabled_registry
    ):
        app.handle("POST", "/campaigns", {"campaign_id": "c1"})
        for batch in replay:
            app.handle(
                "POST", "/campaigns/c1/claims",
                batch_to_json(batch, include_truth=True),
            )
        claims = enabled_registry.counter(
            "streaming_claims_ingested_total", labels={"campaign": "c1"}
        )
        assert claims.value == sum(batch.n_claims for batch in replay)
        batches = enabled_registry.counter(
            "streaming_ingest_batches_total", labels={"campaign": "c1"}
        )
        assert batches.value == len(replay)

    def test_live_metrics_scrape_content_type(self, enabled_registry, app):
        server = make_server(app, port=0)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            port = server.server_address[1]
            with urllib.request.urlopen(
                f"http://127.0.0.1:{port}/metrics"
            ) as response:
                assert response.status == 200
                content_type = response.headers["Content-Type"]
                body = response.read().decode("utf-8")
        finally:
            server.shutdown()
            server.server_close()
        assert content_type.startswith("text/plain")
        assert "version=0.0.4" in content_type
        assert "http_requests_total" in body or body == ""
