"""Maintenance policies: deciding which updates matter and which data still counts.

The paper's algorithms (FUP, FUP2) answer *how* to maintain large itemsets
cheaply when the database changes.  This module answers the question one
level up — *what work a batch should actually cause* — and keeps that
decision out of the updaters, the session, and the CLI:

* :class:`UnboundedPolicy` — every transaction counts forever (the
  behaviour every earlier PR shipped; still the default).
* :class:`SlidingWindowPolicy` — retain only the last ``W`` transactions.
  Overflowing rows are synthesised as *deletion deltas* and ride the
  existing FUP2 path, so the maintained lattice is at every step exactly
  what re-mining the window contents from scratch would produce.
* :class:`TimeDecayPolicy` — age-weighted support.  Transactions age by
  one batch per update; once a row's decayed weight ``2^(-age/half_life)``
  falls below a floor it is evicted (again through FUP2), and the policy
  reports the decayed effective support threshold alongside the exact one.
* :class:`TopKPolicy` — bound the *served* rule set to the ``k`` best by
  (confidence, support) so snapshots stay fixed-size as the database grows.

Policies are **pure planners**: :meth:`MaintenancePolicy.plan` turns an
incoming batch plus the current database into a :class:`MaintenancePlan`
(the effective batch to run, including synthesised evictions) without
touching any state, and :meth:`MaintenancePolicy.commit` installs the
plan's bookkeeping only after the maintainer has applied it.  Nothing in
this module writes to disk — durability (journal, ledger, manifest) stays
in :mod:`repro.core.session`, which persists policies via
:meth:`MaintenancePolicy.as_dict` / :func:`policy_from_dict`.  Lint rule
RPR050 enforces the purity contract.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import TYPE_CHECKING, Mapping, Sequence

from ..db.transaction_db import Transaction, TransactionDatabase
from ..db.update import UpdateBatch
from ..errors import PolicyError
from ..mining.result import required_support_count

if TYPE_CHECKING:
    from ..mining.rules import AssociationRule

__all__ = [
    "MaintenancePlan",
    "MaintenancePolicy",
    "UnboundedPolicy",
    "SlidingWindowPolicy",
    "TimeDecayPolicy",
    "TopKPolicy",
    "parse_policy",
    "policy_from_dict",
]


@dataclass(frozen=True)
class MaintenancePlan:
    """What one incoming batch should actually cause.

    ``batch`` is the *effective* batch the maintainer runs: the caller's
    insertions (possibly trimmed) plus the caller's deletions followed by
    any policy-synthesised evictions.  ``evictions`` lists just the
    synthesised part, oldest first.  ``state`` carries policy-private
    bookkeeping (e.g. decay age segments) from the pure planning step to
    :meth:`MaintenancePolicy.commit`.
    """

    batch: UpdateBatch
    evictions: tuple[Transaction, ...] = ()
    trimmed_insertions: int = 0
    state: object | None = None

    @property
    def evicted(self) -> int:
        """Number of transactions this plan evicts beyond the caller's deletions."""
        return len(self.evictions)


def _synthesise_evictions(
    database: TransactionDatabase,
    user_deletions: Sequence[Transaction],
    count: int,
) -> tuple[Transaction, ...]:
    """Pick *count* eviction victims: the oldest stored rows not already deleted.

    ``TransactionDatabase.remove_batch`` removes the *earliest* occurrence
    of each listed value (both the indexed and the scan path), so claiming
    the user's own deletions against the oldest matching rows first keeps
    the synthesised batch aligned with what the deletion pass will really
    remove — the residual database is exactly the positional window.
    """
    if count <= 0:
        return ()
    claimed: Counter[Transaction] = Counter(user_deletions)
    evictions: list[Transaction] = []
    for transaction in database.transactions():
        if len(evictions) == count:
            break
        if claimed[transaction] > 0:
            claimed[transaction] -= 1
            continue
        evictions.append(transaction)
    return tuple(evictions)


class MaintenancePolicy:
    """Base contract (and the unbounded default behaviour).

    Subclasses override :meth:`plan` (and optionally :meth:`admit`,
    :meth:`commit`, :meth:`bound_rules`) but must stay pure planners:
    no filesystem, journal, or ledger access — RPR050 audits this module.
    """

    name = "unbounded"

    def plan(self, batch: UpdateBatch, database: TransactionDatabase) -> MaintenancePlan:
        """Plan the effective work for *batch* against the current *database*."""
        return MaintenancePlan(batch=batch)

    def admit(self, database: TransactionDatabase) -> MaintenancePlan:
        """Plan the trim that brings a freshly adopted database within bounds.

        Called once when a policy first takes over an existing database
        (session creation or a live policy switch) — unlike :meth:`plan`
        it must not advance any per-batch clock.
        """
        return MaintenancePlan(batch=UpdateBatch(label="policy-admit"))

    def commit(self, plan: MaintenancePlan) -> None:
        """Install *plan*'s bookkeeping after the maintainer applied it."""

    def bound_rules(self, rules: list["AssociationRule"]) -> list["AssociationRule"]:
        """Bound the served rule list (identity for every size-unbounded policy)."""
        return rules

    def params(self) -> dict[str, object]:
        """JSON-safe constructor parameters (manifest persistence)."""
        return {}

    def state(self) -> dict[str, object]:
        """JSON-safe mutable state (manifest persistence); empty when stateless."""
        return {}

    def restore_state(self, state: Mapping[str, object]) -> None:
        """Restore :meth:`state` output after recovery."""

    @classmethod
    def from_params(cls, params: Mapping[str, object]) -> "MaintenancePolicy":
        """Rebuild a policy from its persisted :meth:`params`."""
        return cls()

    def as_dict(self) -> dict[str, object]:
        """Full persistable form: type + params + state."""
        return {"type": self.name, "params": self.params(), "state": self.state()}

    def describe(self) -> str:
        """Short ``--policy``-style spec string (``window:500``, ``unbounded``…)."""
        return self.name

    def info(self) -> dict[str, object]:
        """JSON-safe live description for reports, ``session status`` and ``/health``."""
        return {"policy": self.describe(), **self.params()}


class UnboundedPolicy(MaintenancePolicy):
    """Every transaction counts forever — the pre-policy behaviour."""


class SlidingWindowPolicy(MaintenancePolicy):
    """Retain only the last *window* transactions.

    Insertions beyond the window are trimmed to the newest ``W`` before
    they are ever counted; stored rows that overflow are synthesised as
    deletions and handled by FUP2, so the maintained lattice is identical
    to re-mining the window contents from scratch (the pinned invariant).
    """

    name = "window"

    def __init__(self, window: int) -> None:
        window = int(window)
        if window < 1:
            raise PolicyError(f"window size must be positive, got {window}")
        self.window = window

    def params(self) -> dict[str, object]:
        return {"window": self.window}

    @classmethod
    def from_params(cls, params: Mapping[str, object]) -> "SlidingWindowPolicy":
        return cls(int(params["window"]))  # type: ignore[call-overload]

    def describe(self) -> str:
        return f"window:{self.window}"

    def _windowed(self, batch: UpdateBatch, database: TransactionDatabase) -> MaintenancePlan:
        insertions = batch.insertions
        trimmed = 0
        if len(insertions) > self.window:
            trimmed = len(insertions) - self.window
            insertions = insertions[trimmed:]
        survivors = len(database) - len(batch.deletions)
        overflow = survivors + len(insertions) - self.window
        evictions = _synthesise_evictions(database, batch.deletions, overflow)
        if not evictions and not trimmed:
            return MaintenancePlan(batch=batch)
        effective = UpdateBatch(
            insertions=insertions,
            deletions=batch.deletions + evictions,
            label=batch.label,
        )
        return MaintenancePlan(batch=effective, evictions=evictions, trimmed_insertions=trimmed)

    def plan(self, batch: UpdateBatch, database: TransactionDatabase) -> MaintenancePlan:
        return self._windowed(batch, database)

    def admit(self, database: TransactionDatabase) -> MaintenancePlan:
        return self._windowed(UpdateBatch(label="policy-admit"), database)


class TimeDecayPolicy(MaintenancePolicy):
    """Age-weighted support: old transactions fade, negligible ones leave.

    Each applied batch ages every stored transaction by one step; a row of
    age ``a`` contributes weight ``2^(-a / half_life)``.  Rows whose weight
    would drop below *weight_floor* are evicted (synthesised deletions
    through FUP2, like the window policy), so exact counts stay exact over
    the retained horizon.  The *decayed* database size — the sum of all
    retained weights — yields :meth:`effective_threshold`, the periodic
    re-threshold the policy surfaces next to the exact one: under pure
    aging it is monotonically non-increasing, so rules never get *harder*
    to keep merely because time passed.

    Ages are tracked as contiguous segments ``[age, count]`` (oldest
    first), an O(horizon) structure that persists in the manifest and
    replays deterministically.  When deletions interleave they are
    attributed to the oldest segments — consistent with eviction order and
    with ``remove_batch``'s earliest-occurrence semantics.
    """

    name = "decay"

    DEFAULT_WEIGHT_FLOOR = 1.0 / 1024.0

    def __init__(self, half_life: float, weight_floor: float = DEFAULT_WEIGHT_FLOOR) -> None:
        half_life = float(half_life)
        weight_floor = float(weight_floor)
        if not half_life > 0:
            raise PolicyError(f"decay half-life must be positive, got {half_life}")
        if not 0 < weight_floor < 1:
            raise PolicyError(f"weight floor must be in (0, 1), got {weight_floor}")
        self.half_life = half_life
        self.weight_floor = weight_floor
        # Age (in batches) past which 2^(-age/half_life) < weight_floor.
        self.horizon = max(1, math.ceil(half_life * math.log2(1.0 / weight_floor)))
        self._segments: list[list[int]] = []

    def params(self) -> dict[str, object]:
        return {"half_life": self.half_life, "weight_floor": self.weight_floor}

    @classmethod
    def from_params(cls, params: Mapping[str, object]) -> "TimeDecayPolicy":
        return cls(
            float(params["half_life"]),  # type: ignore[arg-type]
            float(params.get("weight_floor", cls.DEFAULT_WEIGHT_FLOOR)),  # type: ignore[arg-type]
        )

    def state(self) -> dict[str, object]:
        return {"segments": [[age, count] for age, count in self._segments]}

    def restore_state(self, state: Mapping[str, object]) -> None:
        segments = state.get("segments", [])
        self._segments = [[int(age), int(count)] for age, count in segments]  # type: ignore[union-attr]

    def describe(self) -> str:
        return f"decay:{self.half_life:g}"

    def decayed_size(self) -> float:
        """Sum of retained transaction weights (the decayed database size)."""
        return sum(count * 2.0 ** (-age / self.half_life) for age, count in self._segments)

    def effective_threshold(self, min_support: float) -> int:
        """Support count needed against the *decayed* size (the re-threshold)."""
        return required_support_count(min_support, math.ceil(self.decayed_size()))

    def info(self) -> dict[str, object]:
        return {
            "policy": self.describe(),
            "half_life": self.half_life,
            "horizon": self.horizon,
            "decayed_size": round(self.decayed_size(), 2),
        }

    def _current_segments(self, database: TransactionDatabase) -> list[list[int]]:
        """Segments consistent with the database (fresh adoption → all age 0)."""
        segments = [[age, count] for age, count in self._segments]
        if sum(count for _, count in segments) != len(database):
            return [[0, len(database)]] if len(database) else []
        return segments

    def plan(self, batch: UpdateBatch, database: TransactionDatabase) -> MaintenancePlan:
        segments = self._current_segments(database)
        # The caller's deletions remove the earliest occurrences → attribute
        # them to the oldest segments (keeps the count invariant exact even
        # when the attributed rows are approximate).
        remaining = len(batch.deletions)
        survivors: list[list[int]] = []
        for age, count in segments:
            if remaining >= count:
                remaining -= count
                continue
            survivors.append([age, count - remaining])
            remaining = 0
        # Everything surviving ages by one batch; rows past the horizon leave.
        aged = [[age + 1, count] for age, count in survivors]
        expired = sum(count for age, count in aged if age >= self.horizon)
        kept = [[age, count] for age, count in aged if age < self.horizon]
        evictions = _synthesise_evictions(database, batch.deletions, expired)
        if batch.insertions:
            kept.append([0, len(batch.insertions)])
        if evictions:
            effective = UpdateBatch(
                insertions=batch.insertions,
                deletions=batch.deletions + evictions,
                label=batch.label,
            )
        else:
            effective = batch
        return MaintenancePlan(batch=effective, evictions=evictions, state=kept)

    def admit(self, database: TransactionDatabase) -> MaintenancePlan:
        # Freshly adopted rows all start at age 0 — nothing can be expired yet.
        return MaintenancePlan(
            batch=UpdateBatch(label="policy-admit"),
            state=self._current_segments(database),
        )

    def commit(self, plan: MaintenancePlan) -> None:
        if plan.state is not None:
            self._segments = [[int(age), int(count)] for age, count in plan.state]  # type: ignore[union-attr]


class TopKPolicy(MaintenancePolicy):
    """Serve only the *k* best rules (by confidence, then support).

    The lattice and counts stay exact and unbounded — only the published
    rule list is cut, so snapshots stay fixed-size as the database grows.
    ``generate_rules`` already sorts best-first, making the bound a slice.
    """

    name = "topk"

    def __init__(self, k: int) -> None:
        k = int(k)
        if k < 1:
            raise PolicyError(f"top-k bound must be positive, got {k}")
        self.k = k

    def params(self) -> dict[str, object]:
        return {"k": self.k}

    @classmethod
    def from_params(cls, params: Mapping[str, object]) -> "TopKPolicy":
        return cls(int(params["k"]))  # type: ignore[call-overload]

    def describe(self) -> str:
        return f"topk:{self.k}"

    def bound_rules(self, rules: list["AssociationRule"]) -> list["AssociationRule"]:
        return rules[: self.k] if len(rules) > self.k else rules


_POLICY_TYPES: dict[str, type[MaintenancePolicy]] = {
    UnboundedPolicy.name: UnboundedPolicy,
    SlidingWindowPolicy.name: SlidingWindowPolicy,
    TimeDecayPolicy.name: TimeDecayPolicy,
    TopKPolicy.name: TopKPolicy,
}


def policy_from_dict(payload: Mapping[str, object] | None) -> MaintenancePolicy:
    """Rebuild a policy from its :meth:`MaintenancePolicy.as_dict` form.

    ``None`` (manifests written before the policy layer existed) restores
    the unbounded default.
    """
    if not payload:
        return UnboundedPolicy()
    kind = str(payload.get("type", "unbounded"))
    cls = _POLICY_TYPES.get(kind)
    if cls is None:
        raise PolicyError(f"unknown maintenance policy type {kind!r} in manifest")
    params = payload.get("params") or {}
    policy = cls.from_params(params)  # type: ignore[arg-type]
    state = payload.get("state") or {}
    policy.restore_state(state)  # type: ignore[arg-type]
    return policy


def parse_policy(spec: str | None) -> MaintenancePolicy:
    """Parse a ``--policy`` spec: ``unbounded``, ``window:W``, ``decay:H``, ``topk:K``."""
    if spec is None:
        return UnboundedPolicy()
    text = spec.strip()
    if not text or text == "unbounded":
        return UnboundedPolicy()
    kind, _, argument = text.partition(":")
    try:
        if kind == "window":
            return SlidingWindowPolicy(int(argument))
        if kind == "decay":
            return TimeDecayPolicy(float(argument))
        if kind == "topk":
            return TopKPolicy(int(argument))
    except ValueError as error:
        raise PolicyError(f"bad {kind} policy argument {argument!r}: {error}") from None
    raise PolicyError(
        f"unknown policy {spec!r}; expected unbounded, window:W, decay:HALFLIFE or topk:K"
    )
