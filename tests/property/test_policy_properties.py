"""Property tests for the maintenance-policy layer.

Three pinned behaviours, driven with random workloads:

* **window ≡ re-mine** — a sliding-window maintainer's lattice equals a
  from-scratch Apriori mine of the window contents after *every* batch, on
  both counting backends.  This is the PR's
  acceptance invariant: evictions riding the FUP2 deletion path must be
  indistinguishable from rebuilding the window.
* **decay re-threshold monotonicity** — under pure aging (no arrivals) the
  decayed database size can only shrink, so the effective support-count
  threshold is monotonically non-increasing: rules never get harder to
  keep merely because time passed.
* **top-k bound under growth** — a top-k maintainer's served rules are
  always the exact ``k``-prefix of the unbounded ranking, and never more
  than ``k``, no matter how the database grows.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (
    AprioriMiner,
    FupOptions,
    RuleMaintainer,
    SlidingWindowPolicy,
    TimeDecayPolicy,
    TopKPolicy,
    TransactionDatabase,
    UpdateBatch,
)
from repro.mining.backends import BACKEND_NAMES

from .strategies import build_database, transactions

#: Small initial databases keep each example's repeated re-mines fast.
initial_databases = st.lists(transactions, min_size=4, max_size=16)

#: A stream of insert-only batches.
insert_streams = st.lists(
    st.lists(transactions, min_size=1, max_size=4), min_size=1, max_size=4
)

@pytest.mark.parametrize("backend", BACKEND_NAMES)
@settings(max_examples=6, deadline=None)
@given(initial=initial_databases, stream=insert_streams, window=st.integers(4, 12))
def test_window_equals_remine_at_every_step(backend, initial, stream, window):
    maintainer = RuleMaintainer(
        0.25,
        0.5,
        fup_options=FupOptions(backend=backend),
        policy=SlidingWindowPolicy(window),
    )
    maintainer.initialise(build_database(initial))
    for number, rows in enumerate([[]] + stream):  # [] covers the admit trim
        if rows:
            maintainer.apply(UpdateBatch.from_iterables(insertions=rows, label=f"b{number}"))
        assert len(maintainer.database) <= window
        remined = AprioriMiner(0.25).mine(
            TransactionDatabase(maintainer.database.transactions())
        )
        assert maintainer.result.lattice.supports() == remined.lattice.supports()


@settings(max_examples=25, deadline=None)
@given(
    half_life=st.sampled_from([1.0, 2.0, 4.0]),
    shape=st.lists(
        st.tuples(st.integers(0, 10), st.integers(1, 5)), min_size=1, max_size=6
    ),
    min_support=st.sampled_from([0.1, 0.25, 0.5]),
    steps=st.integers(1, 6),
)
def test_decay_threshold_is_monotone_under_pure_aging(half_life, shape, min_support, steps):
    policy = TimeDecayPolicy(half_life)
    segments = [[min(age, policy.horizon - 1), count] for age, count in shape]
    policy.restore_state({"segments": segments})
    database = TransactionDatabase([[1]] * sum(count for _, count in segments))

    threshold = policy.effective_threshold(min_support)
    for _ in range(steps):
        plan = policy.plan(UpdateBatch(label="age"), database)
        database.remove_batch(list(plan.evictions))
        policy.commit(plan)
        aged = policy.effective_threshold(min_support)
        assert aged <= threshold
        assert policy.decayed_size() >= 0
        threshold = aged


@settings(max_examples=10, deadline=None)
@given(initial=initial_databases, stream=insert_streams, k=st.integers(1, 8))
def test_topk_serves_the_exact_prefix_under_growth(initial, stream, k):
    bounded = RuleMaintainer(0.25, 0.5, policy=TopKPolicy(k))
    unbounded = RuleMaintainer(0.25, 0.5)
    bounded.initialise(build_database(initial))
    unbounded.initialise(build_database(initial))
    assert bounded.rules == unbounded.rules[:k]
    for number, rows in enumerate(stream):
        batch = UpdateBatch.from_iterables(insertions=rows, label=f"b{number}")
        bounded.apply(batch)
        unbounded.apply(batch)
        assert len(bounded.rules) <= k
        assert bounded.rules == unbounded.rules[:k]
        # The lattice itself stays exact — only the served list is cut.
        assert bounded.result.lattice.supports() == unbounded.result.lattice.supports()
