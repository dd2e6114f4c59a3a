"""End-to-end serving load: the asyncio front end over real sockets.

The in-process serving benchmark (``test_serving_throughput``) measures the
snapshot's query data structures; this module measures the *server* — an
:class:`~repro.serve.async_server.AsyncRuleServer` over a
:class:`~repro.serve.store.RuleStore`, driven through
:mod:`benchmarks.load_harness` with concurrent keep-alive HTTP/1.1 clients:

* **closed loop**, 32 clients each keeping one request in flight — the
  sustained capacity;
* **open loop** at a fixed arrival rate well under capacity — tail latency
  under a load the server is *not* allowed to pace, measured from the
  scheduled arrival time so queueing is never silently omitted.

Every run must finish with zero 5xx responses and zero transport errors —
that is asserted unconditionally, at any scale and core count.  The
measurements are recorded with ``cpus`` and ``assertion_active`` stamped on
the row, so ``check_regression.py`` gates the closed- and open-loop q/s only
when the run was on a multi-core machine at timing-assert scale.

When ``REPRO_BENCH_ARTIFACT`` is set the rows land in ``BENCH_serving.json``
under ``closed_loop`` and ``open_loop``, next to the in-process numbers.
"""

from __future__ import annotations

import os

import pytest

from repro import (
    AprioriMiner,
    AsyncRuleServer,
    MiningOptions,
    RuleSnapshot,
    RuleStore,
    generate_rules,
)

from .conftest import (
    build_workload,
    print_report,
    timing_asserts_enabled,
    update_serving_artifact,
)
from .load_harness import run_load, wait_until_healthy

#: Same serving regime as the in-process benchmark: the lowest Figure-2
#: support gives the richest rule set.
SERVE_SUPPORT = 0.0075
SERVE_CONFIDENCE = 0.3
#: Closed-loop concurrency (32 keep-alive clients) and the open-loop offered
#: rate, chosen well under the capacity the server sustains even on one core.
CLOSED_CLIENTS = 32
OPEN_CLIENTS = 8
OPEN_RATE = 300.0
#: Measured seconds per run (plus warm-up); kept short because capacity
#: stabilises quickly.
RUN_SECONDS = 1.5
WARMUP_SECONDS = 0.3
#: Baskets drawn from the served rules' own antecedents.
BASKET_POOL = 64


def _cpus() -> int:
    return os.cpu_count() or 1


def _throughput_assert_active() -> bool:
    """Wall-time numbers only gate on a multi-core machine at timing scale."""
    return _cpus() >= 2 and timing_asserts_enabled()


@pytest.fixture(scope="module")
def served():
    """The front end serving one published snapshot, plus the query pool."""
    workload = build_workload("T10.I4.D100.d1")
    updated = workload.original.concatenate(workload.increment)
    result = AprioriMiner(
        SERVE_SUPPORT, options=MiningOptions(backend="vertical")
    ).mine(updated)
    rules = generate_rules(result.lattice, SERVE_CONFIDENCE)
    store = RuleStore()
    store.publish(
        RuleSnapshot(
            version=1,
            rules=rules,
            lattice=result.lattice,
            min_support=SERVE_SUPPORT,
            min_confidence=SERVE_CONFIDENCE,
        )
    )
    baskets: list[list[int]] = []
    seen: set[tuple[int, ...]] = set()
    for rule in rules:
        key = tuple(sorted(rule.antecedent))
        if key not in seen:
            seen.add(key)
            baskets.append(list(key))
        if len(baskets) >= BASKET_POOL:
            break
    with AsyncRuleServer(store) as server:
        wait_until_healthy(server.url, timeout_seconds=10.0)
        yield {
            "workload": workload.name,
            "rules": len(rules),
            "baskets": baskets or [[item] for item in range(1, 9)],
            "url": server.url,
        }


def _assert_clean(label: str, row) -> None:
    """Zero 5xx and zero transport errors, at any scale and core count."""
    assert row.latency.requests > 0, f"{label}: no request ever completed"
    assert row.statuses["5xx"] == 0, f"{label}: {row.statuses['5xx']} 5xx responses"
    assert row.errors == 0, f"{label}: {row.errors} transport errors"
    assert row.status_429 == 0, f"{label}: rate limiter engaged with no limit set"


def _record(section: str, row, fixture: dict, **extra) -> None:
    update_serving_artifact(
        section,
        {
            "workload": fixture["workload"],
            "rules": fixture["rules"],
            "cpus": _cpus(),
            "assertion_active": _throughput_assert_active(),
            **extra,
            "async": row.as_dict(),
        },
    )
    print_report(
        f"{section} on {fixture['workload']}",
        [row.as_dict()],
        columns=["requests", "queries_per_second", "p50_ms", "p99_ms"],
    )


@pytest.mark.benchmark(group="serving-load")
def test_closed_loop_capacity(benchmark, served):
    """32 keep-alive clients, one request in flight each: sustained q/s."""

    def drive():
        return run_load(
            served["url"],
            mode="closed",
            clients=CLOSED_CLIENTS,
            seconds=RUN_SECONDS,
            baskets=served["baskets"],
            warmup_seconds=WARMUP_SECONDS,
        )

    row = benchmark.pedantic(drive, rounds=1)
    _assert_clean("closed", row)
    _record("closed_loop", row, served, clients=CLOSED_CLIENTS, seconds=RUN_SECONDS)


@pytest.mark.benchmark(group="serving-load")
def test_open_loop_latency(benchmark, served):
    """Fixed arrival rate under capacity: tail latency with no self-pacing."""

    def drive():
        return run_load(
            served["url"],
            mode="open",
            clients=OPEN_CLIENTS,
            rate=OPEN_RATE,
            seconds=RUN_SECONDS,
            baskets=served["baskets"],
            warmup_seconds=WARMUP_SECONDS,
        )

    row = benchmark.pedantic(drive, rounds=1)
    _assert_clean("open", row)
    _record(
        "open_loop",
        row,
        served,
        clients=OPEN_CLIENTS,
        rate_per_second=OPEN_RATE,
        seconds=RUN_SECONDS,
    )
