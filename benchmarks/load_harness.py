"""Closed-loop and open-loop load generator for the rule-serving tier.

Drives a running ``repro serve`` endpoint with concurrent
keep-alive clients and reports sustained q/s plus p50/p95/p99 latency — the
serving-side analogue of the counting benchmarks, so serving performance
becomes a recorded trajectory instead of an anecdote.

Two generator disciplines, because they answer different questions:

* **Closed loop** (``--mode closed``): each of ``--clients`` workers keeps
  exactly one request in flight — send, wait, repeat.  Offered load adapts
  to the server, so this measures *capacity*: the best sustained q/s the
  server gives N well-behaved keep-alive clients.  Latency here excludes
  queueing you didn't create: it is pure service time under concurrency N.
* **Open loop** (``--mode open --rate R``): arrivals are scheduled on a
  fixed clock (arrival *i* at ``i/R`` seconds) no matter how the server is
  doing, like independent users who do not coordinate.  Latency is measured
  **from the scheduled arrival time**, not from when a worker got around to
  sending — so if the server (or a saturated worker pool) falls behind, the
  queueing delay lands in the percentiles instead of being silently omitted
  (the classic coordinated-omission mistake).

Each worker owns one persistent ``http.client.HTTPConnection`` (HTTP/1.1
keep-alive); a connection that dies is reopened and the request counted as
an error.  Requests are ``GET /recommend`` by default; ``--batch B`` posts
B baskets per request to the front end's batched endpoint (q/s then
counts logical basket queries, requests × B, so batched and unbatched runs
are comparable).  Baskets are drawn from the served rule set itself
(antecedents of ``GET /rules``), so the query mix actually exercises rule
matching rather than missing everything.

Results can be merged into a ``BENCH_serving.json``-style document
(``--out``/``--section``) and gated (``--max-p99-ms``, ``--fail-on-5xx``)
so CI can run this as a smoke test — see the ``load-smoke`` job.

Usage::

    python benchmarks/load_harness.py --url http://127.0.0.1:8000 \
        --mode closed --clients 32 --seconds 5 \
        --out BENCH_serving.json --section load_smoke \
        --max-p99-ms 500 --fail-on-5xx

Needs ``PYTHONPATH=src`` (or an installed ``repro``) for the shared
latency-summary dataclass; everything else is standard library.
"""

from __future__ import annotations

import argparse
import json
import sys
import threading
import time
from dataclasses import dataclass, field
from http.client import HTTPConnection, HTTPException
from pathlib import Path
from urllib.parse import urlsplit

from repro.harness.metrics import LatencySummary

__all__ = [
    "LoadResult",
    "basket_pool_from_rules",
    "main",
    "merge_artifact_section",
    "run_load",
    "wait_until_healthy",
]

#: Statuses bucketed in the per-run report.
STATUS_CLASSES = ("2xx", "3xx", "4xx", "5xx")


@dataclass
class LoadResult:
    """Everything one generator run measured (one row of a BENCH section)."""

    mode: str
    clients: int
    rate: float | None
    batch: int
    latency: LatencySummary
    statuses: dict[str, int]
    status_429: int
    errors: int
    late_arrivals: int

    def as_dict(self) -> dict[str, object]:
        payload: dict[str, object] = {
            "mode": self.mode,
            "clients": self.clients,
            "batch": self.batch,
        }
        if self.rate is not None:
            payload["offered_rate_per_second"] = self.rate
            payload["late_arrivals"] = self.late_arrivals
        payload.update(self.latency.as_dict())
        payload["statuses"] = dict(self.statuses)
        payload["responses_429"] = self.status_429
        payload["transport_errors"] = self.errors
        return payload


@dataclass
class _WorkerState:
    """Mutable per-run accumulators, merged under one lock."""

    latencies: list[float] = field(default_factory=list)
    statuses: dict[str, int] = field(default_factory=lambda: dict.fromkeys(STATUS_CLASSES, 0))
    status_429: int = 0
    errors: int = 0
    late_arrivals: int = 0
    lock: threading.Lock = field(default_factory=threading.Lock)


def _host_port(url: str) -> tuple[str, int]:
    parsed = urlsplit(url)
    if parsed.scheme != "http" or parsed.hostname is None:
        raise ValueError(f"need an http://host:port URL, got {url!r}")
    return parsed.hostname, parsed.port or 80


def _get_json(url: str, path: str, timeout: float = 10.0) -> tuple[int, dict]:
    host, port = _host_port(url)
    connection = HTTPConnection(host, port, timeout=timeout)
    try:
        connection.request("GET", path)
        response = connection.getresponse()
        return response.status, json.loads(response.read().decode("utf-8"))
    finally:
        connection.close()


def wait_until_healthy(url: str, timeout_seconds: float) -> dict:
    """Poll ``/health`` until it reports ``status: ok``; returns the payload."""
    deadline = time.monotonic() + timeout_seconds
    last_error = "no response"
    while time.monotonic() < deadline:
        try:
            status, payload = _get_json(url, "/health", timeout=2.0)
        except (OSError, HTTPException, ValueError) as exc:
            last_error = str(exc) or type(exc).__name__
        else:
            if status == 200 and payload.get("status") == "ok":
                return payload
            last_error = f"status {status}: {payload}"
        time.sleep(0.1)
    raise TimeoutError(f"{url}/health not ready after {timeout_seconds}s ({last_error})")


def basket_pool_from_rules(url: str, limit: int = 64) -> list[list[int]]:
    """Baskets to query with: the antecedents of the served rules.

    Falls back to single-item baskets ``[1] .. [8]`` when the server has no
    rules (the harness still measures transport + routing cost honestly).
    """
    status, payload = _get_json(url, f"/rules?limit={limit}")
    baskets: list[list[int]] = []
    seen: set[tuple[int, ...]] = set()
    if status == 200:
        for rule in payload.get("rules", []):
            antecedent = rule.get("antecedent")
            if isinstance(antecedent, list) and antecedent:
                key = tuple(antecedent)
                if key not in seen:
                    seen.add(key)
                    baskets.append(list(antecedent))
    return baskets or [[item] for item in range(1, 9)]


def _request_once(
    connection: HTTPConnection,
    *,
    batch: int,
    baskets: list[list[int]],
    cursor: int,
    k: int,
    client_id: str,
) -> int:
    """Issue one request (GET, or batched POST when ``batch > 0``)."""
    headers = {"X-Client-Id": client_id}
    if batch > 0:
        chosen = [baskets[(cursor + offset) % len(baskets)] for offset in range(batch)]
        body = json.dumps({"baskets": chosen, "k": k}).encode("utf-8")
        headers["Content-Type"] = "application/json"
        connection.request("POST", "/recommend", body=body, headers=headers)
    else:
        basket = ",".join(str(item) for item in baskets[cursor % len(baskets)])
        connection.request("GET", f"/recommend?basket={basket}&k={k}", headers=headers)
    response = connection.getresponse()
    response.read()  # drain so the connection can be reused
    return response.status


def run_load(
    url: str,
    *,
    mode: str = "closed",
    clients: int = 8,
    seconds: float = 5.0,
    rate: float | None = None,
    batch: int = 0,
    k: int = 5,
    baskets: list[list[int]] | None = None,
    warmup_seconds: float = 0.0,
) -> LoadResult:
    """Run one load-generation pass and summarise it.

    ``mode="closed"``: ``clients`` workers, one outstanding request each.
    ``mode="open"``: arrivals at fixed ``rate``/second shared across the
    worker pool; latency counted from the *scheduled* arrival time.
    """
    if mode not in ("closed", "open"):
        raise ValueError(f"mode must be 'closed' or 'open', got {mode!r}")
    if mode == "open" and (rate is None or rate <= 0):
        raise ValueError("open-loop mode needs a positive --rate")
    if clients < 1:
        raise ValueError(f"clients must be positive, got {clients}")
    if seconds <= 0:
        raise ValueError(f"seconds must be positive, got {seconds}")
    if batch < 0:
        raise ValueError(f"batch must be >= 0, got {batch}")
    host, port = _host_port(url)
    pool = baskets if baskets else basket_pool_from_rules(url)

    if warmup_seconds > 0:
        _warmup(host, port, pool, k, warmup_seconds)

    state = _WorkerState()
    start = time.monotonic() + 0.05  # let every worker reach its loop first
    deadline = start + seconds
    arrival_counter = [0]
    arrival_lock = threading.Lock()

    def next_arrival() -> float | None:
        """Claim the next open-loop arrival slot; ``None`` past the deadline."""
        with arrival_lock:
            index = arrival_counter[0]
            arrival_counter[0] += 1
        scheduled = start + index / rate
        return None if scheduled >= deadline else scheduled

    def worker(worker_index: int) -> None:
        connection = HTTPConnection(host, port, timeout=30)
        client_id = f"load-{worker_index}"
        cursor = worker_index
        local = _WorkerState()
        while True:
            if mode == "open":
                scheduled = next_arrival()
                if scheduled is None:
                    break
                delay = scheduled - time.monotonic()
                if delay > 0:
                    time.sleep(delay)
                else:
                    local.late_arrivals += 1
                reference = scheduled
            else:
                now = time.monotonic()
                if now >= deadline:
                    break
                reference = now
            try:
                status = _request_once(
                    connection,
                    batch=batch,
                    baskets=pool,
                    cursor=cursor,
                    k=k,
                    client_id=client_id,
                )
            except (OSError, HTTPException):
                local.errors += 1
                connection.close()
                connection = HTTPConnection(host, port, timeout=30)
            else:
                local.latencies.append(time.monotonic() - reference)
                if status == 429:
                    local.status_429 += 1
                bucket = f"{status // 100}xx"
                if bucket in local.statuses:
                    local.statuses[bucket] += 1
            cursor += clients
        connection.close()
        with state.lock:
            state.latencies.extend(local.latencies)
            state.errors += local.errors
            state.status_429 += local.status_429
            state.late_arrivals += local.late_arrivals
            for bucket, count in local.statuses.items():
                state.statuses[bucket] += count

    threads = [
        threading.Thread(target=worker, args=(index,), name=f"load-worker-{index}")
        for index in range(clients)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    elapsed = max(time.monotonic() - start, seconds)

    return LoadResult(
        mode=mode,
        clients=clients,
        rate=rate if mode == "open" else None,
        batch=batch,
        latency=LatencySummary.from_samples(
            state.latencies, elapsed, queries_per_request=max(batch, 1)
        ),
        statuses=state.statuses,
        status_429=state.status_429,
        errors=state.errors,
        late_arrivals=state.late_arrivals,
    )


def _warmup(host: str, port: int, pool: list[list[int]], k: int, seconds: float) -> None:
    """A short single-connection warm pass (connection setup, code paths)."""
    connection = HTTPConnection(host, port, timeout=10)
    deadline = time.monotonic() + seconds
    cursor = 0
    try:
        while time.monotonic() < deadline:
            try:
                _request_once(
                    connection,
                    batch=0,
                    baskets=pool,
                    cursor=cursor,
                    k=k,
                    client_id="load-warmup",
                )
            except (OSError, HTTPException):
                connection.close()
                connection = HTTPConnection(host, port, timeout=10)
            cursor += 1
    finally:
        connection.close()


def merge_artifact_section(path: str | Path, section: str, payload: dict) -> None:
    """Merge *payload* under *section* of a serving-benchmark JSON document.

    Same merge discipline as the in-process serving benchmarks: an existing
    ``{"benchmark": "serving"}`` document keeps its other sections.  When the
    section already holds a dict, *payload*'s keys are merged into it — so
    two harness runs labelling different front ends under one section keep
    both rows instead of the second clobbering the first.
    """
    path = Path(path)
    document: dict = {"benchmark": "serving"}
    if path.exists():
        try:
            existing = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            existing = {}
        if isinstance(existing, dict) and existing.get("benchmark") == "serving":
            document = existing
    current = document.get(section)
    if isinstance(current, dict) and isinstance(payload, dict):
        current.update(payload)
    else:
        document[section] = payload
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(document, indent=2) + "\n", encoding="utf-8")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        description="Load-test a running repro serve endpoint "
        "(closed-loop capacity or open-loop fixed-arrival-rate)."
    )
    parser.add_argument("--url", required=True, help="server base URL (http://host:port)")
    parser.add_argument("--mode", choices=["closed", "open"], default="closed")
    parser.add_argument("--clients", type=int, default=8, help="concurrent keep-alive workers")
    parser.add_argument("--seconds", type=float, default=5.0, help="measured duration")
    parser.add_argument(
        "--rate", type=float, help="open-loop arrival rate, requests/second (whole run)"
    )
    parser.add_argument(
        "--batch",
        type=int,
        default=0,
        help="baskets per request via POST /recommend (0 = unbatched GETs; "
        "the batched endpoint needs the async front end)",
    )
    parser.add_argument("--k", type=int, default=5, help="recommendations per basket")
    parser.add_argument(
        "--warmup", type=float, default=0.5, help="unmeasured warm-up seconds"
    )
    parser.add_argument(
        "--wait-seconds",
        type=float,
        default=30.0,
        help="wait up to this long for /health to report ok before loading",
    )
    parser.add_argument("--out", help="merge results into this BENCH_serving-style JSON file")
    parser.add_argument(
        "--section", help="section name inside --out (default: load_<mode>)"
    )
    parser.add_argument(
        "--label", help="row label inside the section (default: the frontend reported by /health)"
    )
    parser.add_argument(
        "--max-p99-ms", type=float, help="fail (exit 1) when p99 latency exceeds this"
    )
    parser.add_argument(
        "--fail-on-5xx",
        action="store_true",
        help="fail (exit 1) when any 5xx response or transport error occurred",
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        health = wait_until_healthy(args.url, args.wait_seconds)
    except (TimeoutError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    frontend = health.get("frontend", "async")
    print(
        f"target {args.url}: frontend={frontend} version={health.get('version')} "
        f"rules={health.get('rules')}"
    )
    try:
        result = run_load(
            args.url,
            mode=args.mode,
            clients=args.clients,
            seconds=args.seconds,
            rate=args.rate,
            batch=args.batch,
            k=args.k,
            warmup_seconds=args.warmup,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    row = result.as_dict()
    row["frontend"] = frontend
    print(json.dumps(row, indent=2))

    if args.out:
        section = args.section or f"load_{args.mode}"
        label = args.label or frontend
        merge_artifact_section(args.out, section, {label: row})
        print(f"merged results into {args.out} under {section}/{label}")

    failures = []
    if result.latency.requests == 0:
        failures.append("no request ever completed")
    if args.max_p99_ms is not None and result.latency.p99_ms > args.max_p99_ms:
        failures.append(
            f"p99 latency {result.latency.p99_ms:.1f}ms exceeds --max-p99-ms {args.max_p99_ms}"
        )
    if args.fail_on_5xx and (result.statuses["5xx"] > 0 or result.errors > 0):
        failures.append(
            f"{result.statuses['5xx']} 5xx responses, {result.errors} transport errors"
        )
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
