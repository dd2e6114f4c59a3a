"""End-to-end benchmark of the maintenance loop, one workload per run.

    python3 perfbench/run.py --workload insert-large --seed 1 --seconds 20 --trace 0

Run from the root of a checkout: the program is imported from ``src/``.  One
process plays a seeded event stream through the path ``repro pipeline``
runs (``run_ingest`` -> ``TransactionIntake`` -> ``MaintenanceSession`` ->
``RuleMaintainer`` -> FUP/FUP2 -> a ``RuleStore`` attached to the
maintainer) and serves the same session the way ``repro serve --session``
does (a ``SessionFeed`` filling a second ``RuleStore`` behind an
``AsyncRuleServer``).  Feed refreshes and queries run between micro-batches,
never beside the writer.  The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and the metrics -- the
end-to-end ones with ``--trace 0``, the per-layer ones with ``--trace 1``.
The exit code is 1 when a correctness check fails.  See README.md.
"""

from __future__ import annotations

import argparse
import http.client
import json
import os
import random
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

import check
import workloads as W
from datagen import EventStream, QuestSource, RetainedRows
from spans import Tracer, Untraced, install, layer_metrics

ROOT = Path(__file__).resolve().parent.parent
#: Session directories and traces, inside the checkout (ignored by git).
WORK = ROOT / ".perfbench-work"


def snapshot_data(snapshot) -> check.Snapshot:
    rules = [
        (rule.antecedent, rule.consequent, rule.support_count, rule.confidence)
        for rule in snapshot.rules
    ]
    return snapshot.version, dict(snapshot.supports()), rules


class Meter:
    """The reader ``run_ingest`` pulls from: marks when each batch's read starts."""

    def __init__(self, reader, batcher, tracer) -> None:
        self._reader = reader
        self._batcher = batcher
        self._tracer = tracer
        self.batch_start: float | None = None
        self.batch_span = -1

    @property
    def torn_tail(self) -> bytes:
        return self._reader.torn_tail

    def events(self):
        events = self._reader.events()
        tracer = self._tracer
        while True:
            if self.batch_start is None and self._batcher.pending == 0:
                self.batch_start = time.perf_counter()
                self.batch_span = tracer.open("ingest.batch")
            read = tracer.open("ingest.read")
            try:
                event = next(events, None)
            finally:
                tracer.close(read)
            if event is None:
                return
            yield event


def query(connection, basket) -> tuple[float, int, dict | None]:
    """One closed-loop ``GET /recommend``: round trip in seconds, status, payload."""
    path = f"/recommend?basket={','.join(map(str, basket))}&k={W.QUERY_K}"
    started = time.perf_counter()
    connection.request("GET", path)
    response = connection.getresponse()
    body = response.read()
    elapsed = time.perf_counter() - started
    return elapsed, response.status, json.loads(body) if response.status == 200 else None


def run(spec: W.Workload, seed: int, seconds: int, tracer, work: Path) -> dict:
    from repro.core.options import FupOptions
    from repro.core.policy import SlidingWindowPolicy
    from repro.core.session import MaintenanceSession
    from repro.ingest import MicroBatcher, run_ingest
    from repro.ingest.readers import EventStreamReader
    from repro.serve import AsyncRuleServer, RuleStore, SessionFeed

    rng = random.Random(seed)
    source = QuestSource(
        rng,
        pattern_seed=spec.pattern_seed,
        items=spec.items,
        patterns=spec.patterns,
        mean_size=spec.mean_size,
        mean_pattern=spec.mean_pattern,
    )
    initial = [source.transaction() for _ in range(spec.initial_rows)]
    baskets = [source.transaction() for _ in range(W.BASKET_POOL)]
    query_rng = random.Random(f"{seed}-queries")
    cycles = max(1, round(seconds / W.CYCLE_SECONDS))
    total_batches = cycles * W.CHECKPOINT_INTERVAL + W.TAIL_BATCHES
    errors: list[str] = []
    failed = 0
    setup_seconds: list[float] = []
    recovery_seconds: list[float] = []
    if isinstance(tracer, Tracer):
        install(tracer)

    def set_up(directory: Path):
        """Session create, the feed's first publication, server start, first answer."""
        tracer.phase = "setup"
        started = time.perf_counter()
        session = MaintenanceSession.create(
            directory,
            initial,
            min_support=spec.min_support,
            min_confidence=spec.min_confidence,
            fup_options=FupOptions(backend="vertical"),
            policy=SlidingWindowPolicy(spec.window) if spec.window else None,
        )
        feed_store = RuleStore()
        feed = SessionFeed(feed_store, directory)
        feed.refresh(strict=True)
        server = AsyncRuleServer(feed_store).start()
        connection = http.client.HTTPConnection(server.host, server.port)
        connection.request("GET", "/health")
        health = connection.getresponse()
        health.read()
        setup_seconds.append(time.perf_counter() - started)
        if health.status != 200:
            errors.append(f"set-up: /health answered {health.status}")
        return session, feed_store, feed, server, connection

    def recover(directory: Path, applied: int, supports) -> None:
        """Time one ``MaintenanceSession.open`` and check what it recovered."""
        tracer.phase = "recover"
        span = tracer.open("session.recover")
        started = time.perf_counter()
        reopened = MaintenanceSession.open(directory)
        recovery_seconds.append(time.perf_counter() - started)
        tracer.close(span)
        if (reopened.applied_seq, reopened.pending_batches) != (applied, W.TAIL_BATCHES):
            errors.append(
                f"recovery at {applied}: applied {reopened.applied_seq}, "
                f"pending {reopened.pending_batches}"
            )
        elif dict(reopened.result.lattice.supports()) != supports:
            errors.append(f"recovery at {applied}: supports differ from the writer's")
        reopened.close()

    directory = work / "session"
    session, feed_store, feed, server, connection = set_up(directory)

    # --- The loop.  Between batches, in on_batch: with REFRESH_AT batches
    # journaled, a feed refresh and the queries; with TAIL_BATCHES journaled,
    # a recovery on a copy of the session; every SETUP_PERIOD batches one more
    # set-up, torn down at once.  Spreading recoveries and set-ups over the
    # run keeps their medians from resting on one moment of the host.
    writer_store = RuleStore()
    writer_store.attach(session.maintainer)
    published: list[float] = []
    writer_store.on_publish(lambda snapshot: published.append(time.perf_counter()))
    retained = RetainedRows(initial, spec.window)
    stream = EventStream(
        rng,
        source,
        retained,
        batch_events=W.BATCH_EVENTS,
        duplicates=W.DUPLICATES,
        deletes=spec.deletes,
    )
    stream.fill(min(3, total_batches))
    batcher = MicroBatcher(max_events=W.BATCH_EVENTS)
    meter = Meter(EventStreamReader(stream, "jsonl", name="<perfbench>"), batcher, tracer)
    publish_ms: list[float] = []
    refresh_ms: list[float] = []
    query_ms: list[float] = []
    done = 0
    aside = 0.0  # seconds spent in on_batch, outside the ingest side

    def on_batch(intake) -> None:
        nonlocal done, aside, failed
        entered = time.perf_counter()
        tracer.close(meter.batch_span)
        if writer_store.version != intake.seq:
            errors.append(f"batch {intake.seq}: writer store at {writer_store.version}")
        publish_ms.append((published[-1] - meter.batch_start) * 1000)
        meter.batch_start = None
        done += 1
        report, result = intake.report, intake.report.result
        tracer.count(f"{report.algorithm}.transactions_read", result.transactions_read)
        tracer.count(f"{report.algorithm}.database_scans", result.database_scans)
        tracer.count("candidates.counted_in_db", result.candidates_generated)
        tracer.count("policy.evicted", report.evicted_transactions)
        if done % W.CHECKPOINT_INTERVAL == W.REFRESH_AT:
            version = writer_store.version
            tracer.phase = "feed"
            started = time.perf_counter()
            refreshed = feed.refresh()
            refresh_ms.append((time.perf_counter() - started) * 1000)
            if not refreshed:
                failed += 1
            elif feed_store.version != version:
                errors.append(f"refresh after batch {done}: feed at {feed_store.version}")
            tracer.phase = "query"
            for _ in range(W.QUERIES_PER_REFRESH):
                basket = query_rng.choice(baskets)
                elapsed, status, payload = query(connection, basket)
                if status != 200:
                    failed += 1
                    continue
                query_ms.append(elapsed * 1000)
                errors.extend(check.check_answer(basket, payload, version, W.QUERY_K))
        if done % W.CHECKPOINT_INTERVAL == W.TAIL_BATCHES and done < total_batches:
            copy = work / "recovery"
            shutil.copytree(directory, copy)
            recover(copy, done, writer_store.snapshot().supports())
            shutil.rmtree(copy)
        if done % W.SETUP_PERIOD == W.SETUP_OFFSET:
            extra_session, _, _, extra_server, extra_connection = set_up(work / "setup")
            extra_connection.close()
            extra_server.close()
            extra_session.close()
            shutil.rmtree(work / "setup")
        tracer.phase = "ingest"
        stream.fill(min(total_batches, done + 3) - stream.batches)
        aside += time.perf_counter() - entered

    tracer.phase = "ingest"
    cpu_before = os.times()
    started = time.perf_counter()
    summary = run_ingest(
        session, meter, batcher, on_batch=on_batch, stop=lambda: done >= total_batches
    )
    wall = time.perf_counter() - started
    cpu_after = os.times()

    # --- Correctness, untimed: the final state against the benchmark's record.
    tracer.phase = "check"
    feed.refresh()
    writer = snapshot_data(writer_store.snapshot())
    rows = retained.rows
    bitmaps = check.item_bitmaps(rows)
    recounted = {itemset: check.recount(bitmaps, itemset, len(rows)) for itemset in writer[1]}
    errors += check.check_lattice(rows, writer[1], spec.min_support, bitmaps)
    errors += check.check_rules(recounted, writer[2], spec.min_confidence)
    errors += check.check_same_snapshot(writer, snapshot_data(feed_store.snapshot()))
    errors += check.check_rows(session.database.transactions(), rows, spec.window)
    errors += check.check_counts(
        {
            "events": summary.events,
            "applied": summary.applied,
            "duplicates": summary.duplicates,
            "batches": summary.batches,
        },
        {
            "events": total_batches * W.BATCH_EVENTS,
            "applied": total_batches * (W.BATCH_EVENTS - W.DUPLICATES),
            "duplicates": total_batches * W.DUPLICATES,
            "batches": total_batches,
        },
    )
    cache = server.cache.stats()
    connection.close()
    server.close()
    session.close()
    disk_bytes = sum(path.stat().st_size for path in directory.iterdir() if path.is_file())
    # The final session, TAIL_BATCHES journaled: the last recovery sample.
    recover(directory, total_batches, writer[1])

    if isinstance(tracer, Tracer):
        tracer.restore()
        tracer.write(WORK / "traces" / f"{spec.name}-seed{seed}.jsonl")
        cpu = (cpu_after.user - cpu_before.user) + (cpu_after.system - cpu_before.system)
        metrics = layer_metrics(
            tracer,
            {
                "batches": summary.batches,
                "refreshes": len(refresh_ms),
                "recoveries": len(recovery_seconds),
                "duplicates": summary.duplicates,
                "rules": len(writer[2]),
                "cache": cache,
                "cpu_per_wall": cpu / wall,
                "publish_ms": publish_ms,
            },
        )
    else:
        metrics = {
            "setup_s": (statistics.median(setup_seconds), "s"),
            "events_per_s": (summary.events / (wall - aside), "1/s"),
            "publish_ms_p50": (statistics.median(publish_ms), "ms"),
            "feed_refresh_ms_p50": (statistics.median(refresh_ms), "ms"),
            "query_ms_p50": (statistics.median(query_ms), "ms"),
            "recovery_s": (statistics.median(recovery_seconds), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            "disk_mb": (disk_bytes / 2**20, "MB"),
        }
    attempted = (
        summary.events
        + len(refresh_ms)
        + cycles * W.QUERIES_PER_REFRESH
        + len(setup_seconds)
        + len(recovery_seconds)
    )
    return {
        "correct": not errors,
        "errors": errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(W.WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    # Nothing in a run overlaps, so a second CPU would only add cross-CPU
    # wake-ups between the client and the server thread, whose cost in a
    # virtual machine varies with the host; one CPU keeps them out.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        outcome = run(
            W.WORKLOADS[args.workload],
            args.seed,
            args.seconds,
            Tracer() if args.trace else Untraced(),
            work,
        )
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for error in outcome.pop("errors"):
        print(f"check failed: {error}", file=sys.stderr)
    print(json.dumps(outcome))
    return 0 if outcome["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
