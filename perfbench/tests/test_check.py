"""Each correctness check passes on a true input and fails on a perturbed one.

    python3 -m pytest perfbench/tests
"""

from __future__ import annotations

import random
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

import check  # noqa: E402
from datagen import EventStream, QuestSource, RetainedRows  # noqa: E402

ROWS = [(1, 2, 3), (1, 2), (2, 3), (1, 2, 3), (1, 3), (2,), (1, 2, 4)]
MIN_SUPPORT = 0.4  # threshold: 3 of 7 rows
MIN_CONFIDENCE = 0.6


def true_supports() -> dict:
    return {(1,): 5, (2,): 6, (3,): 4, (1, 2): 4, (1, 3): 3, (2, 3): 3}


def true_rules() -> list:
    derived = check.derive_rules(true_supports(), MIN_CONFIDENCE)
    return [(a, c, n, conf) for (a, c), (n, conf) in derived.items()]


def test_lattice_check():
    assert check.check_lattice(ROWS, true_supports(), MIN_SUPPORT) == []
    off_by_one = {**true_supports(), (1, 3): 4}
    assert check.check_lattice(ROWS, off_by_one, MIN_SUPPORT)
    missing = {k: v for k, v in true_supports().items() if k != (2, 3)}
    assert check.check_lattice(ROWS, missing, MIN_SUPPORT)  # (2, 3) is on the border
    small = {**true_supports(), (4,): 1}
    assert check.check_lattice(ROWS, small, MIN_SUPPORT)
    orphan = {k: v for k, v in true_supports().items() if k != (3,)}
    assert check.check_lattice(ROWS, orphan, MIN_SUPPORT)


def test_negative_border_joins_large_itemsets():
    border = check.negative_border(true_supports(), {1, 2, 3, 4})
    assert border == {(4,), (1, 2, 3)}
    assert check.recount(check.item_bitmaps(ROWS), (1, 2, 3), len(ROWS)) == 2


def test_threshold_is_exact():
    assert check.threshold(0.015, 40_000) == 600
    assert check.threshold(0.4, 7) == 3


def test_rules_check():
    assert check.check_rules(true_supports(), true_rules(), MIN_CONFIDENCE) == []
    rules = true_rules()
    assert check.check_rules(true_supports(), rules[1:], MIN_CONFIDENCE)
    a, c, n, conf = rules[0]
    assert check.check_rules(true_supports(), [(a, c, n + 1, conf)] + rules[1:], MIN_CONFIDENCE)
    assert check.check_rules(true_supports(), rules + [((3,), (1, 2), 3, 0.75)], MIN_CONFIDENCE)
    assert check.check_rules(true_supports(), rules + rules[:1], MIN_CONFIDENCE)


def test_same_snapshot_check():
    writer = (9, true_supports(), true_rules())
    assert check.check_same_snapshot(writer, (9, true_supports(), true_rules())) == []
    assert check.check_same_snapshot(writer, (8, true_supports(), true_rules()))
    assert check.check_same_snapshot(writer, (9, {**true_supports(), (1,): 4}, true_rules()))
    assert check.check_same_snapshot(writer, (9, true_supports(), true_rules()[1:]))


def test_counts_check():
    expected = {"applied": 194, "duplicates": 6}
    assert check.check_counts(dict(expected), expected) == []
    assert check.check_counts({"applied": 194, "duplicates": 5}, expected)


def test_rows_check():
    assert check.check_rows(ROWS[-4:], ROWS[-4:], 4) == []
    assert check.check_rows(ROWS[-4:], ROWS[-4:], None) == []
    assert check.check_rows(ROWS[-5:], ROWS[-4:], 4)
    assert check.check_rows(list(reversed(ROWS[-4:])), ROWS[-4:], 4)
    assert check.check_rows(ROWS[-4:], ROWS[-4:], 5)


def test_answer_check():
    good = {
        "version": 3,
        "recommendations": [
            {"item": 3, "rule": "{1, 2} => {3} (support=0.2857, confidence=0.7500)"}
        ],
    }
    assert check.check_answer((1, 2, 5), good, 3, 5) == []
    assert check.check_answer((1, 2, 5), good, 4, 5)
    assert check.check_answer((1, 5), good, 3, 5)  # antecedent not in basket
    assert check.check_answer((1, 2, 3), good, 3, 5)  # recommends an owned item
    assert check.check_answer((1, 2, 5), good, 3, 0)


def test_retained_rows_follow_earliest_copy_deletes_and_the_window():
    retained = RetainedRows([(1,), (2,), (1,), (3,)], window=3)
    assert retained.rows == [(2,), (1,), (3,)]
    retained.apply(insertions=[(4,), (5,)], deletions=[(1,)])
    assert retained.rows == [(3,), (4,), (5,)]


def test_stream_batches_hold_the_stated_mix():
    rng = random.Random(7)
    source = QuestSource(
        rng, pattern_seed=1, items=50, patterns=20, mean_size=4, mean_pattern=2
    )
    initial = [source.transaction() for _ in range(100)]
    stream = EventStream(
        rng, source, RetainedRows(initial, 100), batch_events=20, duplicates=3, deletes=4
    )
    stream.fill(5)
    lines = stream.read().splitlines()
    assert len(lines) == 5 * 20
    for start in range(0, len(lines), 20):
        batch = lines[start : start + 20]
        assert sum(b'"delete"' in line for line in batch) >= 4
    keys = [line.split(b'"')[3] for line in lines]
    assert len(keys) - len(set(keys)) == 5 * 3
    assert len(stream.retained.rows) == 100
