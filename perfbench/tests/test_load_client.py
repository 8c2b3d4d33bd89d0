"""error_rate counting of retries and non-2xx replies, against a stub server."""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from perfbench.stats import ErrorCount
from perfbench.stream import LoadClient


class _Stub(BaseHTTPRequestHandler):
    """``/ok`` answers 200, ``/missing`` 404, ``/flaky`` 503 once then 200."""

    flaky_calls = 0

    def do_GET(self):  # noqa: N802 - http.server naming
        if self.path == "/flaky":
            type(self).flaky_calls += 1
            status = 503 if type(self).flaky_calls == 1 else 200
        elif self.path == "/ok":
            status = 200
        else:
            status = 404
        body = json.dumps({"status": status}).encode()
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        if status == 503:
            self.send_header("Retry-After", "0")
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, format, *args):  # noqa: A002
        pass


@pytest.fixture
def stub_url():
    server = ThreadingHTTPServer(("127.0.0.1", 0), _Stub)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield f"http://127.0.0.1:{server.server_address[1]}"
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)


def test_retries_and_non_2xx_replies_count_against_error_rate(stub_url):
    errors = ErrorCount()
    client = LoadClient(stub_url, errors, retries=2, backoff=0.001)
    ok, _ = client.call("GET", "/ok")
    missing, _ = client.call("GET", "/missing")
    flaky, seconds = client.call("GET", "/flaky")
    assert ok == {"status": 200}
    assert missing is None  # 404: not retried, one failed operation
    assert flaky == {"status": 200}  # 503 then 200: one retry, then success
    assert seconds > 0.0
    assert (errors.attempted, errors.failed, errors.retried) == (3, 1, 1)
    assert errors.error_rate == pytest.approx(2 / 3)


def test_a_request_that_never_succeeds_is_one_failure_plus_its_retries():
    errors = ErrorCount()
    # Nothing listens on port 9 of localhost: every attempt is refused.
    client = LoadClient("http://127.0.0.1:9", errors, retries=2, backoff=0.001)
    reply, _ = client.call("GET", "/ok")
    assert reply is None
    assert (errors.attempted, errors.failed, errors.retried) == (1, 1, 2)
    assert errors.error_rate == pytest.approx(3.0)
