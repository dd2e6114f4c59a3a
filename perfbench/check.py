"""Correctness checks made apart from the program.

Nothing here imports ``repro``: supports are recounted with the benchmark's
own item bitmaps over its own record of the retained rows, and rules are
derived from that recount.  Each ``check_*`` function returns a list of
failure messages (empty when the check passes), so a run reports every
failure rather than the first.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

Itemset = tuple[int, ...]
#: (antecedent, consequent, support_count, confidence)
Rule = tuple[Itemset, Itemset, int, float]
#: What a served snapshot is reduced to before comparison.
Snapshot = tuple[int, Mapping[Itemset, int], Sequence[Rule]]


def item_bitmaps(rows: Sequence[Itemset]) -> dict[int, int]:
    """One int per item whose bit *t* is set when row *t* holds the item."""
    width = (len(rows) + 7) // 8
    buffers: dict[int, bytearray] = {}
    for tid, row in enumerate(rows):
        byte, bit = tid >> 3, 1 << (tid & 7)
        for item in row:
            buffer = buffers.get(item)
            if buffer is None:
                buffer = buffers[item] = bytearray(width)
            buffer[byte] |= bit
    return {item: int.from_bytes(buffer, "little") for item, buffer in buffers.items()}


def recount(bitmaps: Mapping[int, int], itemset: Itemset, rows: int) -> int:
    mask = (1 << rows) - 1
    for item in itemset:
        mask &= bitmaps.get(item, 0)
    return mask.bit_count()


def threshold(min_support: float, rows: int) -> int:
    """Smallest count with ``count >= s * |DB|``, in exact decimal arithmetic."""
    return math.ceil(Fraction(repr(min_support)) * rows)


def negative_border(large: Iterable[Itemset], universe: Iterable[int]) -> set[Itemset]:
    """Itemsets that are not large but whose every proper subset is."""
    large = set(large)
    border = {(item,) for item in universe if (item,) not in large}
    by_prefix: dict[Itemset, list[int]] = {}
    for itemset in large:
        by_prefix.setdefault(itemset[:-1], []).append(itemset[-1])
    for prefix, tails in by_prefix.items():
        tails.sort()
        for index, first in enumerate(tails):
            for second in tails[index + 1 :]:
                joined = prefix + (first, second)
                if joined in large:
                    continue
                if all(joined[:i] + joined[i + 1 :] in large for i in range(len(joined))):
                    border.add(joined)
    return border


def check_lattice(
    rows: Sequence[Itemset],
    served: Mapping[Itemset, int],
    min_support: float,
    bitmaps: Mapping[int, int] | None = None,
) -> list[str]:
    """Served supports equal a recount; the negative border is all below threshold."""
    bitmaps = item_bitmaps(rows) if bitmaps is None else bitmaps
    needed = threshold(min_support, len(rows))
    errors = []
    for itemset, count in served.items():
        for index in range(len(itemset) if len(itemset) > 1 else 0):
            subset = itemset[:index] + itemset[index + 1 :]
            if subset not in served:
                errors.append(f"itemset {itemset}: served without its subset {subset}")
        actual = recount(bitmaps, itemset, len(rows))
        if actual != count:
            errors.append(f"itemset {itemset}: served support {count}, recount {actual}")
        elif actual < needed:
            errors.append(f"itemset {itemset}: served with support {actual} < {needed}")
    for itemset in negative_border(served, bitmaps):
        actual = recount(bitmaps, itemset, len(rows))
        if actual >= needed:
            errors.append(f"itemset {itemset}: support {actual} >= {needed} but not served")
    return errors


def derive_rules(supports: Mapping[Itemset, int], min_confidence: float) -> dict:
    """Every rule ``X => Y`` with ``X ∪ Y`` in *supports* and confidence ≥ the bound."""
    rules = {}
    for joint, joint_count in supports.items():
        size = len(joint)
        for mask in range(1, (1 << size) - 1):
            antecedent = tuple(joint[i] for i in range(size) if mask >> i & 1)
            consequent = tuple(joint[i] for i in range(size) if not mask >> i & 1)
            antecedent_count = supports.get(antecedent)
            if not antecedent_count:
                continue  # a lattice without its subsets fails check_lattice
            confidence = joint_count / antecedent_count
            if confidence >= min_confidence:
                rules[antecedent, consequent] = (joint_count, confidence)
    return rules


def check_rules(
    supports: Mapping[Itemset, int], served: Sequence[Rule], min_confidence: float
) -> list[str]:
    """The served rules are exactly those derivable from *supports*."""
    expected = derive_rules(supports, min_confidence)
    errors = []
    seen = set()
    for antecedent, consequent, count, confidence in served:
        key = (antecedent, consequent)
        seen.add(key)
        if key not in expected:
            errors.append(f"rule {key}: served but not derivable")
            continue
        want_count, want_confidence = expected[key]
        if count != want_count or abs(confidence - want_confidence) > 1e-12:
            errors.append(
                f"rule {key}: served ({count}, {confidence}), "
                f"derived ({want_count}, {want_confidence})"
            )
    if len(seen) != len(served):
        errors.append(f"{len(served) - len(seen)} rule(s) served twice")
    errors += [f"rule {key}: derivable but not served" for key in expected.keys() - seen]
    return errors


def check_same_snapshot(writer: Snapshot, feed: Snapshot) -> list[str]:
    """The feed serves exactly the writer's snapshot, version included."""
    errors = []
    if writer[0] != feed[0]:
        errors.append(f"feed serves version {feed[0]}, writer published {writer[0]}")
    if dict(writer[1]) != dict(feed[1]):
        errors.append("feed and writer serve different support tables")
    if list(writer[2]) != list(feed[2]):
        errors.append("feed and writer serve different rule lists")
    return errors


def check_counts(actual: Mapping[str, int], expected: Mapping[str, int]) -> list[str]:
    return [
        f"{name}: {actual.get(name)} reported, the stream holds {value}"
        for name, value in expected.items()
        if actual.get(name) != value
    ]


def check_rows(
    stored: Sequence[Itemset], retained: Sequence[Itemset], window: int | None
) -> list[str]:
    """The session holds exactly the retained rows, in order (the last W under a window)."""
    errors = []
    if window is not None and len(retained) != window:
        errors.append(f"retained record holds {len(retained)} rows, window is {window}")
    if list(stored) != list(retained):
        first = next(
            (i for i, pair in enumerate(zip(stored, retained)) if pair[0] != pair[1]),
            min(len(stored), len(retained)),
        )
        errors.append(
            f"database differs from the retained rows at row {first} "
            f"({len(stored)} stored, {len(retained)} retained)"
        )
    return errors


def _itemset(text: str) -> Itemset:
    return tuple(int(token) for token in text.strip().strip("{}").split(",") if token.strip())


def check_answer(basket: Itemset, payload: Mapping, version: int, k: int) -> list[str]:
    """One 200 ``/recommend`` answer: current version, rules that apply to the basket."""
    errors = []
    if payload.get("version") != version:
        errors.append(f"basket {basket}: version {payload.get('version')}, current {version}")
    recommendations = payload.get("recommendations", [])
    if len(recommendations) > k:
        errors.append(f"basket {basket}: {len(recommendations)} recommendations, k={k}")
    members = set(basket)
    for entry in recommendations:
        rule = entry["rule"].split(" (")[0]
        antecedent, consequent = (_itemset(side) for side in rule.split("=>"))
        if not set(antecedent) <= members:
            errors.append(f"basket {basket}: cites {rule}, antecedent not in the basket")
        if entry["item"] in members or entry["item"] not in consequent:
            errors.append(f"basket {basket}: recommends {entry['item']} from {rule}")
    return errors
