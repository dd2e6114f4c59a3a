"""The transport-agnostic request API of the HTTP front end.

Everything in :class:`~repro.serve.async_server.AsyncRuleServer` that is not
transport plumbing lives here:

* query parsing (:func:`parse_items`, :func:`parse_positive_int`) and the
  :class:`BadRequest` error the front end answers with a 400;
* the GET routing table (:func:`route_query`): ``/health``, ``/rules``,
  ``/recommend`` and ``/itemset`` answered from exactly one snapshot read;
* response normalization (:func:`encode_json`, :func:`response_headers`):
  every response — including 4xx/5xx error bodies — carries
  ``Content-Type: application/json; charset=utf-8``, an exact
  ``Content-Length``, and an explicit ``Connection`` header, so keep-alive
  clients never have to guess whether the connection survives an error.
"""

from __future__ import annotations

import json
from http import HTTPStatus
from typing import Iterable, Mapping

from ..itemsets import Item
from .snapshot import RuleSnapshot
from .store import RuleStore

__all__ = [
    "BadRequest",
    "JSON_CONTENT_TYPE",
    "encode_json",
    "parse_items",
    "parse_positive_int",
    "reason_phrase",
    "recommend_payload",
    "response_headers",
    "route_query",
]

#: The one Content-Type every response is served with.
JSON_CONTENT_TYPE = "application/json; charset=utf-8"


class BadRequest(ValueError):
    """A malformed query (answered with a 400, not a traceback)."""


def parse_items(raw: str, parameter: str) -> tuple[Item, ...]:
    """Parse a comma-separated item list (``"1,2,3"``) from a query value."""
    try:
        items = tuple(int(token) for token in raw.split(",") if token.strip() != "")
    except ValueError:
        raise BadRequest(
            f"{parameter} must be comma-separated integers, got {raw!r}"
        ) from None
    if not items:
        raise BadRequest(f"{parameter} must name at least one item")
    return items


def parse_positive_int(raw: str, parameter: str) -> int:
    try:
        value = int(raw)
    except ValueError:
        raise BadRequest(f"{parameter} must be an integer, got {raw!r}") from None
    if value < 1:
        raise BadRequest(f"{parameter} must be positive, got {value}")
    return value


def encode_json(payload: object) -> bytes:
    """Serialize *payload* as strict JSON (no NaN/Infinity literals)."""
    return json.dumps(payload, allow_nan=False).encode("utf-8")


def response_headers(
    body: bytes,
    *,
    keep_alive: bool,
    extra: Iterable[tuple[str, str]] = (),
) -> list[tuple[str, str]]:
    """The normalized header set for one JSON response.

    Success and error paths alike carry a charset-qualified Content-Type, a Content-Length that matches the body
    byte count exactly, and an explicit Connection disposition.
    """
    headers = [
        ("Content-Type", JSON_CONTENT_TYPE),
        ("Content-Length", str(len(body))),
    ]
    headers.extend(extra)
    headers.append(("Connection", "keep-alive" if keep_alive else "close"))
    return headers


def reason_phrase(status: int) -> str:
    """The standard reason phrase for a status code (``200`` → ``"OK"``)."""
    try:
        return HTTPStatus(status).phrase
    except ValueError:  # pragma: no cover - non-standard codes unused
        return "Unknown"


def recommend_payload(snapshot: RuleSnapshot, basket: tuple[Item, ...], k: int) -> list[dict]:
    """The JSON-safe recommendation list for one basket against one snapshot.

    This is the (cacheable) body of both the single-basket ``GET`` and each
    entry of the batched ``POST`` — the async front end keys its response
    cache on ``(snapshot.version, normalized basket, k)`` around this call.
    """
    return [recommendation.as_dict() for recommendation in snapshot.recommend(basket, k=k)]


def route_query(store: RuleStore, path: str, query: Mapping[str, str]) -> tuple[int, dict]:
    """Answer one GET request against *store*; returns ``(status, payload)``.

    Each route reads the store's snapshot exactly once and answers entirely
    from that immutable object, so every response is internally consistent —
    version, rules and supports all describe the same maintenance sequence
    number even while a writer publishes mid-request.  Raises
    :class:`BadRequest` for malformed queries and
    :class:`~repro.errors.EmptyDatabaseError` when no snapshot is published
    yet; the front end maps those to 400 and 503.
    """
    if path == "/health":
        if not store.has_snapshot:
            return 503, {"status": "empty", "version": None}
        snapshot = store.snapshot()
        return 200, {
            "status": "ok",
            "version": snapshot.version,
            "database_size": snapshot.database_size,
            "rules": snapshot.rule_count,
            "itemsets": snapshot.itemset_count,
            "min_support": snapshot.min_support,
            "min_confidence": snapshot.min_confidence,
            "publications": store.publications,
            "policy": snapshot.policy,
        }
    if path == "/rules":
        snapshot = store.snapshot()
        limit = None
        if "limit" in query:
            limit = parse_positive_int(query["limit"], "limit")
        return 200, snapshot.as_dict(limit=limit)
    if path == "/recommend":
        snapshot = store.snapshot()
        if "basket" not in query:
            raise BadRequest("recommend needs a basket (e.g. ?basket=1,2,3)")
        basket = parse_items(query["basket"], "basket")
        k = parse_positive_int(query.get("k", "5"), "k")
        return 200, {
            "version": snapshot.version,
            "basket": list(basket),
            "recommendations": recommend_payload(snapshot, basket, k),
        }
    if path == "/itemset":
        snapshot = store.snapshot()
        if "items" not in query:
            raise BadRequest("itemset needs items (e.g. ?items=1,2)")
        items = parse_items(query["items"], "items")
        return 200, {
            "version": snapshot.version,
            "items": sorted(set(items)),
            "support_count": snapshot.support_count(items),
            "support": snapshot.support(items),
            "large": snapshot.is_large(items),
        }
    return 404, {"error": f"unknown endpoint {path!r}"}

