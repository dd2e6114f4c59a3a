"""Spans around the program's layers, recorded from outside.

:class:`Tracer` replaces public functions and methods of ``repro`` with thin
wrappers for the length of a traced run and puts the originals back after.
A span is ``[name, start, end, parent, phase]``; the phase says what the
benchmark was doing (``ingest``, ``feed``, ``recover``, ...), so one layer's
time can be split between the writer and the feed that replays its work.
Spans stay in memory until the run ends.
"""

from __future__ import annotations

import json
import statistics
import time
from collections import defaultdict
from pathlib import Path
from typing import Callable


class Untraced:
    """The tracer of an untraced run: the benchmark's own spans cost nothing."""

    phase = ""

    def open(self, name: str) -> int:
        return -1

    def close(self, index: int) -> None:
        pass

    def count(self, name: str, value: int) -> None:
        pass


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: dict[tuple[str, str], int] = defaultdict(int)
        self.phase = "setup"
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.phase])
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        popped = self._stack.pop()
        if popped != index:
            raise RuntimeError(f"span {self.spans[index][0]} closed out of order")

    def count(self, name: str, value: int) -> None:
        self.counts[self.phase, name] += value

    def wrap(
        self,
        owner: object,
        attribute: str,
        name: str,
        counter: Callable[[object], int] | None = None,
    ) -> None:
        """Record a span *name* around every call of ``owner.attribute``.

        *counter*, given the call's result, adds to the count of the same name.
        """
        original = getattr(owner, attribute)
        tracer = self

        def traced(*args, **kwargs):
            index = tracer.open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer.close(index)
            if counter is not None:
                tracer.count(name, counter(result))
            return result

        self._patches.append((owner, attribute, owner.__dict__[attribute]))
        setattr(owner, attribute, traced)

    def restore(self) -> None:
        for owner, attribute, original in reversed(self._patches):
            setattr(owner, attribute, original)
        self._patches.clear()

    def totals(self) -> tuple[dict, dict]:
        """Inclusive and self seconds per ``(phase, name)``."""
        inclusive: dict[tuple[str, str], float] = defaultdict(float)
        self_time: dict[tuple[str, str], float] = defaultdict(float)
        for name, start, end, parent, phase in self.spans:
            duration = end - start
            inclusive[phase, name] += duration
            self_time[phase, name] += duration
            if parent >= 0:
                outer = self.spans[parent]
                self_time[outer[4], outer[0]] -= duration
        return inclusive, self_time

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="ascii") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")


def install(tracer: Tracer) -> None:
    """Wrap the layer calls the per-layer metrics are made of."""
    from repro.core import fup, fup2, maintenance, policy, session
    from repro.db.transaction_db import TransactionDatabase
    from repro.ingest.intake import TransactionIntake
    from repro.ingest.ledger import IntakeLedger
    from repro.mining.backends.vertical import VerticalBackend
    from repro.serve import feed
    from repro.serve.store import RuleStore

    tracer.wrap(TransactionIntake, "submit", "ingest.intake")
    tracer.wrap(IntakeLedger, "commit", "ingest.ledger_commit")
    tracer.wrap(session.MaintenanceSession, "apply", "session.apply")
    tracer.wrap(session.MaintenanceSession, "checkpoint", "session.checkpoint")
    tracer.wrap(session, "write_snapshot", "db.snapshot_write")
    tracer.wrap(maintenance.RuleMaintainer, "apply", "maintainer.apply")
    for cls in (policy.MaintenancePolicy, policy.SlidingWindowPolicy):
        tracer.wrap(cls, "plan", "policy.plan")
    tracer.wrap(fup.FupUpdater, "update", "fup.update")
    tracer.wrap(fup2.Fup2Updater, "update", "fup2.update")
    for module in (fup, fup2):
        tracer.wrap(module, "apriori_gen", "candidates.apriori_gen", len)
    tracer.wrap(VerticalBackend, "count_candidates", "kernels.count", len)
    tracer.wrap(VerticalBackend, "count_items", "kernels.count_items")
    tracer.wrap(maintenance, "generate_rules", "rules.generate")
    tracer.wrap(maintenance, "diff_rules", "rules.diff")
    tracer.wrap(TransactionDatabase, "extend", "db.extend")
    tracer.wrap(TransactionDatabase, "remove_batch", "db.remove_batch")
    tracer.wrap(RuleStore, "publish_from", "store.publish")
    tracer.wrap(feed, "read_session_state", "feed.read_state")


def span_cost() -> float:
    """Seconds one traced call adds, measured on a no-op."""

    class Probe:
        def call(self) -> None:
            pass

    probe = Probe()
    calls = 20_000
    started = time.perf_counter()
    for _ in range(calls):
        probe.call()
    plain = time.perf_counter() - started
    tracer = Tracer()
    tracer.wrap(Probe, "call", "probe")
    started = time.perf_counter()
    for _ in range(calls):
        probe.call()
    traced = time.perf_counter() - started
    tracer.restore()
    return max(0.0, traced - plain) / calls


def layer_metrics(tracer: Tracer, run: dict) -> dict[str, tuple[float, str]]:
    """The per-layer metrics of a traced run, as ``name: (value, unit)``.

    Times on the ingest side are means per micro-batch, feed times per
    refresh, recovery per reopening; *run* carries the run's own figures.
    """
    inclusive, own = tracer.totals()
    spans: dict[tuple[str, str], int] = defaultdict(int)
    for name, _, _, _, phase in tracer.spans:
        spans[phase, name] += 1
    batches = run["batches"]
    refreshes = run["refreshes"]
    checkpoints = spans["ingest", "session.checkpoint"]

    def per(count, name, phase="ingest", table=inclusive):
        return table.get((phase, name), 0.0) * 1000 / max(1, count)

    def counted(name):
        return tracer.counts.get(("ingest", name), 0) / batches

    ingest_spans = sum(n for (phase, _), n in spans.items() if phase == "ingest")
    cache = run["cache"]
    lookups = cache["hits"] + cache["misses"]
    return {
        "ingest.read_ms": (per(batches, "ingest.read"), "ms"),
        "ingest.intake_self_ms": (per(batches, "ingest.intake", table=own), "ms"),
        "ingest.ledger_commit_ms": (per(batches, "ingest.ledger_commit"), "ms"),
        "ingest.duplicates": (run["duplicates"], "count"),
        "session.apply_self_ms": (per(batches, "session.apply", table=own), "ms"),
        "session.checkpoint_ms": (per(checkpoints, "session.checkpoint"), "ms"),
        "session.checkpoints": (checkpoints, "count"),
        "db.snapshot_write_ms": (per(checkpoints, "db.snapshot_write"), "ms"),
        "session.recover_ms": (per(run["recoveries"], "session.recover", "recover"), "ms"),
        "maintainer.apply_self_ms": (per(batches, "maintainer.apply", table=own), "ms"),
        "policy.plan_ms": (per(batches, "policy.plan"), "ms"),
        "policy.evicted": (counted("policy.evicted"), "count/batch"),
        "fup.update_ms": (per(batches, "fup.update"), "ms"),
        "fup2.update_ms": (per(batches, "fup2.update"), "ms"),
        "fup.transactions_read": (counted("fup.transactions_read"), "count/batch"),
        "fup.database_scans": (counted("fup.database_scans"), "count/batch"),
        "fup2.transactions_read": (counted("fup2.transactions_read"), "count/batch"),
        "candidates.apriori_gen_ms": (per(batches, "candidates.apriori_gen"), "ms"),
        "candidates.generated": (counted("candidates.apriori_gen"), "count/batch"),
        "candidates.counted_in_db": (counted("candidates.counted_in_db"), "count/batch"),
        "kernels.count_ms": (
            per(batches, "kernels.count") + per(batches, "kernels.count_items"),
            "ms",
        ),
        "kernels.candidates_counted": (counted("kernels.count"), "count/batch"),
        "rules.generate_ms": (per(batches, "rules.generate"), "ms"),
        "rules.diff_ms": (per(batches, "rules.diff"), "ms"),
        "rules.count": (run["rules"], "count"),
        "db.extend_ms": (per(batches, "db.extend"), "ms"),
        "db.remove_batch_ms": (per(batches, "db.remove_batch"), "ms"),
        "store.publish_ms": (per(batches, "store.publish"), "ms"),
        "feed.read_state_ms": (per(refreshes, "feed.read_state", "feed"), "ms"),
        "feed.batches_replayed": (
            spans["feed", "maintainer.apply"] / refreshes,
            "count/refresh",
        ),
        "serve.cache_hit_ratio": (cache["hits"] / lookups, "ratio"),
        "process.cpu_per_wall": (run["cpu_per_wall"], "ratio"),
        "trace.publish_ms_p50": (statistics.median(run["publish_ms"]), "ms"),
        "trace.accounted_share": (
            1.0 - own["ingest", "ingest.batch"] / inclusive["ingest", "ingest.batch"],
            "ratio",
        ),
        "trace.spans_per_batch": (ingest_spans / batches, "count/batch"),
        "trace.overhead_ms": (ingest_spans / batches * span_cost() * 1000, "ms"),
    }
