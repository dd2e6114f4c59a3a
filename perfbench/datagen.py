"""Seeded inputs for the benchmark: baskets, the event stream, query baskets.

The generator is the benchmark's own (a compact Quest-style model after
Agrawal & Srikant), not ``repro.datagen``: a change to the program must not
be able to change what the benchmark feeds it.

A workload's pattern pool is fixed by the workload (``pattern_seed``); the
run's ``--seed`` draws the transactions, the stream's duplicates and deletes,
and the query baskets.  Every seed therefore samples the same distribution,
which keeps the lattice, and with it the per-batch work, alike across seeds.
"""

from __future__ import annotations

import bisect
import itertools
import json
import math
import random
from collections import deque

Row = tuple[int, ...]


class QuestSource:
    """Quest-style baskets: each transaction is a union of corrupted patterns."""

    def __init__(
        self,
        rng: random.Random,
        *,
        pattern_seed: int,
        items: int,
        patterns: int,
        mean_size: float,
        mean_pattern: float,
    ) -> None:
        self._rng = rng
        self._mean_size = mean_size
        build = random.Random(pattern_seed)
        self._patterns: list[Row] = []
        self._corruption: list[float] = []
        weights: list[float] = []
        previous: Row = ()
        for _ in range(patterns):
            size = max(1, min(items, _poisson(build, mean_pattern)))
            # Consecutive patterns share about half their items (Quest's
            # clustering), and item popularity is skewed toward low ids.
            shared = min(len(previous), round(size / 2))
            chosen = set(build.sample(previous, shared)) if shared else set()
            while len(chosen) < size:
                chosen.add(int(build.random() ** 2 * items))
            previous = tuple(sorted(chosen))
            self._patterns.append(previous)
            weights.append(build.expovariate(1.0))
            self._corruption.append(min(0.9, max(0.0, build.gauss(0.5, 0.1))))
        self._cumulative = list(itertools.accumulate(weights))

    def transaction(self) -> Row:
        """One canonical (sorted, duplicate-free) basket."""
        rng = self._rng
        size = max(1, _poisson(rng, self._mean_size))
        basket: set[int] = set()
        total = self._cumulative[-1]
        last = len(self._patterns) - 1
        while len(basket) < size:
            index = min(bisect.bisect_left(self._cumulative, rng.random() * total), last)
            kept = list(self._patterns[index])
            # Quest corruption: drop items while a coin stays below the
            # pattern's corruption level.
            while kept and rng.random() < self._corruption[index]:
                kept.pop(rng.randrange(len(kept)))
            if not kept:
                continue
            if len(basket) + len(kept) > size and basket and rng.random() < 0.5:
                break
            basket.update(kept)
        return tuple(sorted(basket))


def _poisson(rng: random.Random, mean: float) -> int:
    # Knuth's method: fine for the small means used here.
    limit = math.exp(-mean)
    count, product = 0, rng.random()
    while product > limit:
        count += 1
        product *= rng.random()
    return count


class RetainedRows:
    """The benchmark's own record of what the session must hold.

    It follows the program's documented semantics: a batch's deletions name
    rows present before the batch and remove the earliest stored copy of each
    value; a window of W then evicts the oldest survivors; insertions append
    in stream order.
    """

    def __init__(self, rows: list[Row], window: int | None) -> None:
        self.window = window
        self.rows = list(rows)
        if window is not None:
            del self.rows[: max(0, len(self.rows) - window)]

    def apply(self, insertions: list[Row], deletions: list[Row]) -> None:
        for row in deletions:
            self.rows.remove(row)  # list.remove drops the earliest copy
        if self.window is not None:
            del self.rows[: max(0, len(self.rows) + len(insertions) - self.window)]
        self.rows.extend(insertions)


class EventStream:
    """A readable byte stream of JSONL intake events, generated batch by batch.

    ``EventStreamReader`` pulls from it like a file.  :meth:`fill` appends
    whole micro-batches (``batch_events`` raw events each, the batcher's count
    watermark); the benchmark calls it between batches, outside every timed
    region, and keeps at least two batches ahead of the reader so the reader
    never sees the end of the stream mid-run.

    Every batch holds exactly ``duplicates`` redelivered events and
    ``deletes`` deletions of rows present before the batch; the rest are
    fresh inserts.  A redelivery repeats an earlier event verbatim (same
    key), so the intake must drop it.
    """

    def __init__(
        self,
        rng: random.Random,
        source: QuestSource,
        retained: RetainedRows,
        *,
        batch_events: int,
        duplicates: int,
        deletes: int,
    ) -> None:
        if duplicates + deletes >= batch_events:
            raise ValueError("a batch needs at least one insert")
        self._rng = rng
        self._source = source
        self.retained = retained
        self._batch_events = batch_events
        self._duplicates = duplicates
        self._deletes = deletes
        self._buffer = bytearray()
        self._recent: deque[bytes] = deque(maxlen=2 * batch_events)
        self._next_key = 0
        self.batches = 0

    def read(self, size: int = -1) -> bytes:
        if size < 0:
            size = len(self._buffer)
        chunk = bytes(self._buffer[:size])
        del self._buffer[:size]
        return chunk

    def fill(self, batches: int) -> None:
        """Append *batches* more micro-batches to the stream."""
        for _ in range(batches):
            self._buffer += self._batch()

    def _batch(self) -> bytes:
        rng = self._rng
        rows = self.retained.rows
        victims = [rows[index] for index in rng.sample(range(len(rows)), self._deletes)]
        fresh = [("delete", row) for row in victims]
        inserts = self._batch_events - self._duplicates - self._deletes
        fresh += [("insert", self._source.transaction()) for _ in range(inserts)]
        rng.shuffle(fresh)
        lines: list[bytes] = []
        for op, row in fresh:
            line = json.dumps({"key": f"e{self._next_key}", "op": op, "items": row})
            self._next_key += 1
            lines.append(line.encode("ascii") + b"\n")
        earlier = list(self._recent)
        self._recent.extend(lines)
        for _ in range(self._duplicates):
            pick = rng.randrange(len(earlier) + len(lines))
            if pick < len(earlier):
                lines.insert(rng.randrange(len(lines) + 1), earlier[pick])
            else:
                # A copy of this batch's own event goes after the original,
                # so the first delivery, which the intake keeps, stays where
                # the retained-rows record put it.
                original = pick - len(earlier)
                lines.insert(rng.randrange(original + 1, len(lines) + 1), lines[original])
        self.retained.apply(
            [row for op, row in fresh if op == "insert"],
            [row for op, row in fresh if op == "delete"],
        )
        self.batches += 1
        return b"".join(lines)
