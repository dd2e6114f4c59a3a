"""Tests for the asyncio front end (endpoints, cache, limits, lifecycle).

The concurrency-under-publication behaviour has its own module
(``test_async_concurrency``); this one covers the request/response contract
a single well-behaved (or misbehaved) client observes.
"""

from __future__ import annotations

import http.client
import json
import socket

import pytest

from repro import AsyncRuleServer, RuleMaintainer, RuleStore, TransactionDatabase
from repro.serve.async_server import DEFAULT_MAX_CONNECTIONS


@pytest.fixture
def maintainer(small_database):
    maintainer = RuleMaintainer(0.3, 0.5)
    maintainer.initialise(small_database)
    return maintainer


@pytest.fixture
def attached_store(maintainer):
    store = RuleStore()
    store.attach(maintainer)
    return store


@pytest.fixture
def served(attached_store, maintainer):
    with AsyncRuleServer(attached_store) as server:
        yield {"server": server, "store": attached_store, "maintainer": maintainer}


def request_raw(
    server,
    method: str,
    path: str,
    *,
    body: bytes | None = None,
    headers: dict[str, str] | None = None,
    connection: http.client.HTTPConnection | None = None,
):
    """One request; returns ``(status, headers dict, parsed body)``."""
    owned = connection is None
    if connection is None:
        connection = http.client.HTTPConnection(server.host, server.port, timeout=10)
    try:
        connection.request(method, path, body=body, headers=headers or {})
        response = connection.getresponse()
        raw = response.read()
        payload = json.loads(raw.decode("utf-8")) if raw else None
        return response.status, dict(response.getheaders()), payload
    finally:
        if owned:
            connection.close()


class TestHealth:
    def test_reports_snapshot_coordinates(self, served):
        status, _, payload = request_raw(served["server"], "GET", "/health")
        snapshot = served["store"].snapshot()
        assert status == 200
        assert payload["status"] == "ok"
        assert payload["version"] == snapshot.version
        assert payload["database_size"] == snapshot.database_size
        assert payload["rules"] == snapshot.rule_count
        assert payload["itemsets"] == snapshot.itemset_count
        assert payload["min_support"] == snapshot.min_support
        assert payload["min_confidence"] == snapshot.min_confidence

    def test_version_advances_with_batches(self, served):
        assert request_raw(served["server"], "GET", "/health")[2]["version"] == 0
        served["maintainer"].add_transactions([[1, 4], [2, 4]], label="live")
        assert request_raw(served["server"], "GET", "/health")[2]["version"] == 1

    def test_health_adds_frontend_diagnostics(self, served):
        status, _, payload = request_raw(served["server"], "GET", "/health")
        assert status == 200
        assert payload["frontend"] == "async"
        assert payload["cache"]["capacity"] > 0
        assert payload["rate_limit"] is None
        connections = payload["connections"]
        assert connections["max"] == DEFAULT_MAX_CONNECTIONS
        assert connections["total"] >= 1

    def test_empty_store_is_503(self):
        with AsyncRuleServer(RuleStore()) as server:
            status, _, payload = request_raw(server, "GET", "/health")
        assert status == 503
        assert payload["status"] == "empty"


class TestRules:
    def test_serves_the_full_rule_set(self, served):
        _, _, payload = request_raw(served["server"], "GET", "/rules")
        snapshot = served["store"].snapshot()
        assert payload["rule_count"] == snapshot.rule_count
        assert len(payload["rules"]) == snapshot.rule_count

    def test_limit(self, served):
        _, _, payload = request_raw(served["server"], "GET", "/rules?limit=2")
        assert len(payload["rules"]) == 2

    def test_infinite_conviction_survives_the_json_layer(self):
        """An exact rule (conviction == inf) must serve as strict JSON."""
        maintainer = RuleMaintainer(0.3, 0.5)
        # Item 2 always occurs with item 1: confidence({2}=>{1}) == 1.0.
        maintainer.initialise(
            TransactionDatabase([[1, 2], [1, 2], [1, 2], [1, 3], [1, 3], [3, 4]])
        )
        assert any(rule.conviction == float("inf") for rule in maintainer.rules)
        store = RuleStore()
        store.attach(maintainer)
        with AsyncRuleServer(store) as server:
            _, _, payload = request_raw(server, "GET", "/rules")
        convictions = [entry["conviction"] for entry in payload["rules"]]
        assert "inf" in convictions
        assert all(
            isinstance(value, (int, float)) or value == "inf" for value in convictions
        )


class TestRecommend:
    def test_recommends_unowned_items(self, served):
        _, _, payload = request_raw(served["server"], "GET", "/recommend?basket=1,2&k=5")
        assert payload["basket"] == [1, 2]
        assert payload["recommendations"]
        for entry in payload["recommendations"]:
            assert entry["item"] not in (1, 2)

    def test_matches_the_snapshot_api(self, served):
        _, _, payload = request_raw(served["server"], "GET", "/recommend?basket=1&k=3")
        expected = served["store"].snapshot().recommend((1,), k=3)
        assert payload["recommendations"] == [entry.as_dict() for entry in expected]

    @pytest.mark.parametrize(
        "path", ["/recommend", "/recommend?basket=1,zebra", "/recommend?basket=1&k=0"]
    )
    def test_bad_queries_are_400(self, served, path):
        status, _, payload = request_raw(served["server"], "GET", path)
        assert status == 400
        assert payload["error"]


class TestItemset:
    def test_support_lookup(self, served, small_database):
        _, _, payload = request_raw(served["server"], "GET", "/itemset?items=1,2")
        assert payload["support_count"] == small_database.count_itemset((1, 2))
        assert payload["large"] is True

    def test_unknown_itemset(self, served):
        _, _, payload = request_raw(served["server"], "GET", "/itemset?items=1,5")
        assert payload["support_count"] == 0
        assert payload["large"] is False

    def test_missing_items_is_400(self, served):
        assert request_raw(served["server"], "GET", "/itemset")[0] == 400


class TestRouting:
    def test_unknown_path_is_404(self, served):
        assert request_raw(served["server"], "GET", "/nope")[0] == 404

    def test_every_response_is_strict_json(self, served):
        for path in ("/health", "/rules", "/recommend?basket=1", "/itemset?items=1"):
            _, _, payload = request_raw(served["server"], "GET", path)
            json.dumps(payload, allow_nan=False)


class TestHeaderNormalization:
    def test_shared_contract_on_success_and_error(self, served):
        for path, expected in (("/health", 200), ("/recommend?basket=zebra", 400)):
            status, headers, _ = request_raw(served["server"], "GET", path)
            assert status == expected
            assert headers["Content-Type"] == "application/json; charset=utf-8"
            assert headers["Connection"] == "keep-alive"
            assert "Content-Length" in headers

    @pytest.mark.parametrize(
        "path, expected", [("/health", 200), ("/recommend?basket=zebra", 400)]
    )
    def test_content_length_matches_the_body(self, served, path, expected):
        server = served["server"]
        connection = http.client.HTTPConnection(server.host, server.port, timeout=10)
        try:
            connection.request("GET", path)
            response = connection.getresponse()
            body = response.read()
        finally:
            connection.close()
        assert response.status == expected
        assert response.getheader("Content-Length") == str(len(body))

    def test_error_body_names_the_bad_parameter(self, served):
        status, _, payload = request_raw(served["server"], "GET", "/recommend?basket=zebra")
        assert status == 400
        assert "basket" in payload["error"]


class TestKeepAlive:
    def test_connection_survives_an_error_response(self, served):
        """A 400 keeps the connection open: the same socket serves again."""
        server = served["server"]
        connection = http.client.HTTPConnection(server.host, server.port, timeout=10)
        try:
            status, headers, _ = request_raw(
                server, "GET", "/recommend?basket=zebra", connection=connection
            )
            assert status == 400
            assert headers["Connection"] == "keep-alive"
            status, _, payload = request_raw(server, "GET", "/health", connection=connection)
            assert status == 200
            assert payload["status"] == "ok"
            # One connection carried both requests: http.client did not
            # have to reconnect after the error.
            assert payload["connections"]["total"] == 1
        finally:
            connection.close()

    def test_many_requests_one_connection(self, served):
        server = served["server"]
        connection = http.client.HTTPConnection(server.host, server.port, timeout=10)
        try:
            before = request_raw(server, "GET", "/health")[2]["connections"]["total"]
            for _ in range(5):
                status, _, payload = request_raw(
                    server, "GET", "/recommend?basket=1,2", connection=connection
                )
                assert status == 200
                assert payload["recommendations"]
            after = request_raw(server, "GET", "/health")[2]["connections"]["total"]
            # The five requests shared one connection (plus the two probes).
            assert after - before <= 3
        finally:
            connection.close()

    def test_connection_close_is_honoured(self, served):
        server = served["server"]
        status, headers, _ = request_raw(
            server, "GET", "/health", headers={"Connection": "close"}
        )
        assert status == 200
        assert headers["Connection"] == "close"

    def test_http10_without_keepalive_closes(self, served):
        server = served["server"]
        with socket.create_connection((server.host, server.port), timeout=10) as sock:
            sock.sendall(b"GET /health HTTP/1.0\r\n\r\n")
            data = b""
            while True:
                chunk = sock.recv(65536)
                if not chunk:
                    break  # server closed: HTTP/1.0 default honoured
                data += chunk
        head = data.split(b"\r\n\r\n", 1)[0].decode("latin-1")
        assert "Connection: close" in head

    def test_malformed_request_is_400_and_close(self, served):
        server = served["server"]
        with socket.create_connection((server.host, server.port), timeout=10) as sock:
            sock.sendall(b"NOT-HTTP\r\n\r\n")
            data = b""
            while True:
                chunk = sock.recv(65536)
                if not chunk:
                    break
                data += chunk
        assert data.startswith(b"HTTP/1.1 400 ")


class TestMethods:
    def test_post_elsewhere_is_404(self, served):
        status, _, _ = request_raw(
            served["server"], "POST", "/rules", body=b"{}",
            headers={"Content-Type": "application/json"},
        )
        assert status == 404

    def test_other_methods_are_405_with_allow(self, served):
        status, headers, _ = request_raw(served["server"], "DELETE", "/rules")
        assert status == 405
        assert headers["Allow"] == "GET, POST"


class TestBatchRecommend:
    def post(self, server, document: object):
        body = json.dumps(document).encode("utf-8")
        return request_raw(
            server, "POST", "/recommend", body=body,
            headers={"Content-Type": "application/json"},
        )

    def test_batch_answers_every_basket_from_one_version(self, served):
        status, _, payload = self.post(
            served["server"], {"baskets": [[1], [2], [1, 2]], "k": 3}
        )
        assert status == 200
        assert payload["k"] == 3
        assert len(payload["results"]) == 3
        snapshot = served["store"].snapshot()
        assert payload["version"] == snapshot.version
        for entry, basket in zip(payload["results"], ([1], [2], [1, 2]), strict=True):
            assert entry["basket"] == basket
            expected = [r.as_dict() for r in snapshot.recommend(tuple(basket), k=3)]
            assert entry["recommendations"] == expected

    def test_k_defaults_to_five(self, served):
        status, _, payload = self.post(served["server"], {"baskets": [[1]]})
        assert status == 200
        assert payload["k"] == 5

    @pytest.mark.parametrize(
        "document",
        [
            [],  # not an object
            {},  # no baskets
            {"baskets": []},  # empty
            {"baskets": "1,2"},  # not a list of lists
            {"baskets": [[1]], "k": 0},
            {"baskets": [[1]], "k": True},
            {"baskets": [[1], []]},  # one empty basket
            {"baskets": [[1], [2, "x"]]},  # non-integer item
            {"baskets": [[1], [True]]},  # bool is not an item
        ],
    )
    def test_invalid_documents_are_400(self, served, document):
        status, _, payload = self.post(served["server"], document)
        assert status == 400
        assert "error" in payload

    def test_non_json_body_is_400(self, served):
        status, _, payload = request_raw(
            served["server"], "POST", "/recommend", body=b"\xff\xfe not json"
        )
        assert status == 400


class TestResponseCache:
    def test_repeat_query_hits_the_cache(self, served):
        server = served["server"]
        request_raw(server, "GET", "/recommend?basket=1,2&k=3")
        before = request_raw(server, "GET", "/health")[2]["cache"]
        request_raw(server, "GET", "/recommend?basket=1,2&k=3")
        after = request_raw(server, "GET", "/health")[2]["cache"]
        assert after["hits"] == before["hits"] + 1

    def test_normalized_baskets_share_an_entry(self, served):
        server = served["server"]
        request_raw(server, "GET", "/recommend?basket=1,2&k=3")
        before = request_raw(server, "GET", "/health")[2]["cache"]
        # Same basket set, different order and duplication: same cache key.
        status, _, payload = request_raw(server, "GET", "/recommend?basket=2,1,2&k=3")
        after = request_raw(server, "GET", "/health")[2]["cache"]
        assert status == 200
        assert after["hits"] == before["hits"] + 1

    def test_publication_invalidates_wholesale(self, served):
        server = served["server"]
        request_raw(server, "GET", "/recommend?basket=1,2&k=3")
        assert request_raw(server, "GET", "/health")[2]["cache"]["size"] > 0
        served["maintainer"].add_transactions([[1, 4], [2, 4]], label="live")
        health = request_raw(server, "GET", "/health")[2]
        assert health["cache"]["invalidations"] >= 1
        # The next query is answered from the new snapshot, never the cache.
        _, _, payload = request_raw(server, "GET", "/recommend?basket=1,2&k=3")
        assert payload["version"] == health["version"]

    def test_cache_size_zero_disables(self, attached_store):
        with AsyncRuleServer(attached_store, cache_size=0) as server:
            request_raw(server, "GET", "/recommend?basket=1,2")
            request_raw(server, "GET", "/recommend?basket=1,2")
            cache = request_raw(server, "GET", "/health")[2]["cache"]
        assert cache["hits"] == 0
        assert cache["size"] == 0


class TestRateLimit:
    def test_429_with_retry_after(self, attached_store):
        with AsyncRuleServer(attached_store, rate_limit=1.0, rate_burst=2.0) as server:
            statuses = [
                request_raw(
                    server, "GET", "/recommend?basket=1",
                    headers={"X-Client-Id": "impatient"},
                )[0]
                for _ in range(4)
            ]
            assert statuses[:2] == [200, 200]
            assert 429 in statuses[2:]
            status, headers, payload = request_raw(
                server, "GET", "/recommend?basket=1",
                headers={"X-Client-Id": "impatient"},
            )
            assert status == 429
            assert int(headers["Retry-After"]) >= 1
            assert payload["retry_after_seconds"] > 0
            # Limiting is per client: a different identity sails through.
            assert (
                request_raw(
                    server, "GET", "/recommend?basket=1",
                    headers={"X-Client-Id": "patient"},
                )[0]
                == 200
            )

    def test_health_is_exempt(self, attached_store):
        with AsyncRuleServer(attached_store, rate_limit=1.0, rate_burst=1.0) as server:
            for _ in range(5):
                status, _, _ = request_raw(
                    server, "GET", "/health", headers={"X-Client-Id": "probe"}
                )
                assert status == 200

    def test_limiter_stats_surface_in_health(self, attached_store):
        with AsyncRuleServer(attached_store, rate_limit=2.0) as server:
            request_raw(server, "GET", "/rules", headers={"X-Client-Id": "c"})
            health = request_raw(server, "GET", "/health")[2]
        assert health["rate_limit"]["rate"] == 2.0
        assert health["rate_limit"]["allowed"] >= 1


class TestBackpressure:
    def test_over_capacity_connection_gets_fast_503(self, attached_store):
        with AsyncRuleServer(attached_store, max_connections=1) as server:
            # Occupy the one admitted slot with an idle keep-alive connection.
            held = http.client.HTTPConnection(server.host, server.port, timeout=10)
            try:
                held.request("GET", "/health")
                held.getresponse().read()
                status, headers, payload = request_raw(server, "GET", "/health")
                assert status == 503
                assert "capacity" in payload["error"]
                assert int(headers["Retry-After"]) >= 1
                assert headers["Connection"] == "close"
            finally:
                held.close()
            # Slot released: the next connection is admitted again.
            status, _, payload = request_raw(server, "GET", "/health")
            assert status == 200
            assert payload["connections"]["rejected"] >= 1

    def test_rejects_nonpositive_bound(self, attached_store):
        with pytest.raises(ValueError):
            AsyncRuleServer(attached_store, max_connections=0)


class TestLifecycle:
    def test_close_without_start(self, attached_store):
        server = AsyncRuleServer(attached_store)
        server.close()  # never started: nothing to join, socket released

    def test_close_is_idempotent(self, attached_store):
        server = AsyncRuleServer(attached_store).start()
        server.close()
        server.close()

    def test_close_unhooks_publication_listener(self, attached_store, maintainer):
        server = AsyncRuleServer(attached_store).start()
        server.close()
        # A publication after close must not touch the dead server's cache.
        invalidations = server.cache.stats()["invalidations"]
        maintainer.add_transactions([[1, 4]], label="after-close")
        assert server.cache.stats()["invalidations"] == invalidations

    def test_bind_errors_raise_in_constructor(self, attached_store):
        with AsyncRuleServer(attached_store) as running:
            with pytest.raises(OSError):
                AsyncRuleServer(attached_store, port=running.port)

    def test_restart_after_close_needs_a_new_server(self, attached_store):
        first = AsyncRuleServer(attached_store)
        url_host = first.host
        first.close()
        second = AsyncRuleServer(attached_store, host=url_host).start()
        try:
            status, _, _ = request_raw(second, "GET", "/health")
            assert status == 200
        finally:
            second.close()
