"""Unit tests for the maintenance-policy layer (docs/maintenance-policies.md).

The property suite (`tests/property/test_policy_properties.py`) pins the
big invariants — window ≡ re-mine, decay monotonicity, top-k bounds —
across backends; this file covers the contract edges: spec
parsing, manifest round trips, plan shapes, and the report/info surfaces.
"""

from __future__ import annotations

import pytest

from repro import (
    AprioriMiner,
    PolicyError,
    RuleMaintainer,
    SlidingWindowPolicy,
    TimeDecayPolicy,
    TopKPolicy,
    TransactionDatabase,
    UnboundedPolicy,
    UpdateBatch,
    parse_policy,
)
from repro.core.policy import policy_from_dict

BASE = [
    [1, 2, 3],
    [1, 2],
    [2, 3],
    [1, 3],
    [1, 2, 3],
    [2, 4],
    [3, 4],
    [1, 2, 4],
]


class TestParsePolicy:
    def test_default_and_unbounded(self):
        assert isinstance(parse_policy(None), UnboundedPolicy)
        assert isinstance(parse_policy("unbounded"), UnboundedPolicy)
        assert isinstance(parse_policy("  "), UnboundedPolicy)

    def test_specs(self):
        window = parse_policy("window:5")
        assert isinstance(window, SlidingWindowPolicy) and window.window == 5
        decay = parse_policy("decay:2.5")
        assert isinstance(decay, TimeDecayPolicy) and decay.half_life == 2.5
        topk = parse_policy("topk:7")
        assert isinstance(topk, TopKPolicy) and topk.k == 7

    @pytest.mark.parametrize(
        "spec",
        ["window:", "window:zero", "decay:soon", "topk:many", "lru:3", "window"],
    )
    def test_bad_specs_raise(self, spec):
        with pytest.raises(PolicyError):
            parse_policy(spec)

    @pytest.mark.parametrize("spec", ["window:0", "decay:0", "topk:0", "decay:-1"])
    def test_non_positive_arguments_raise(self, spec):
        with pytest.raises(PolicyError):
            parse_policy(spec)


class TestManifestRoundTrip:
    @pytest.mark.parametrize("spec", [None, "window:4", "decay:3", "topk:2"])
    def test_as_dict_round_trips(self, spec):
        policy = parse_policy(spec)
        restored = policy_from_dict(policy.as_dict())
        assert type(restored) is type(policy)
        assert restored.params() == policy.params()
        assert restored.describe() == policy.describe()

    def test_decay_state_round_trips(self):
        policy = TimeDecayPolicy(half_life=2)
        database = TransactionDatabase(BASE)
        plan = policy.plan(UpdateBatch.from_iterables(insertions=[[1, 4]]), database)
        policy.commit(plan)
        restored = policy_from_dict(policy.as_dict())
        assert restored.state() == policy.state()
        assert restored.decayed_size() == policy.decayed_size()

    def test_pre_policy_manifest_restores_unbounded(self):
        assert isinstance(policy_from_dict(None), UnboundedPolicy)
        assert isinstance(policy_from_dict({}), UnboundedPolicy)

    def test_unknown_manifest_type_raises(self):
        with pytest.raises(PolicyError):
            policy_from_dict({"type": "lru", "params": {}})


class TestSlidingWindowPlan:
    def test_evictions_are_oldest_rows_first(self):
        policy = SlidingWindowPolicy(len(BASE))
        database = TransactionDatabase(BASE)
        batch = UpdateBatch.from_iterables(insertions=[[1, 4], [2, 4]])
        plan = policy.plan(batch, database)
        assert plan.evictions == ((1, 2, 3), (1, 2))
        assert plan.batch.insertions == batch.insertions
        assert plan.batch.deletions == batch.deletions + plan.evictions
        assert plan.evicted == 2

    def test_user_deletions_count_against_the_window(self):
        policy = SlidingWindowPolicy(len(BASE))
        database = TransactionDatabase(BASE)
        batch = UpdateBatch.from_iterables(insertions=[[1, 4]], deletions=[[2, 3]])
        plan = policy.plan(batch, database)
        # One deletion already frees a slot; no synthesised eviction needed.
        assert plan.evictions == ()
        assert plan.batch is batch

    def test_window_matches_remine_through_maintainer(self):
        maintainer = RuleMaintainer(0.2, 0.5, policy=SlidingWindowPolicy(len(BASE)))
        maintainer.initialise(TransactionDatabase(BASE))
        report = maintainer.apply(
            UpdateBatch.from_iterables(insertions=[[1, 2, 4], [2, 3, 4], [1, 3, 4]])
        )
        assert report.evicted_transactions == 3
        assert len(maintainer.database) == len(BASE)
        remined = AprioriMiner(0.2).mine(
            TransactionDatabase(maintainer.database.transactions())
        )
        assert maintainer.result.lattice.supports() == remined.lattice.supports()


class TestTimeDecay:
    def test_effective_threshold_never_rises_under_pure_aging(self):
        policy = TimeDecayPolicy(half_life=2)
        maintainer = RuleMaintainer(0.25, 0.5, policy=policy)
        maintainer.initialise(TransactionDatabase(BASE))
        thresholds = [policy.effective_threshold(0.25)]
        for _ in range(policy.horizon + 2):
            maintainer.apply(UpdateBatch.from_iterables(insertions=[]))
            thresholds.append(policy.effective_threshold(0.25))
        assert thresholds == sorted(thresholds, reverse=True)

    def test_rows_past_the_horizon_are_evicted(self):
        policy = TimeDecayPolicy(half_life=1, weight_floor=0.25)
        maintainer = RuleMaintainer(0.25, 0.5, policy=policy)
        maintainer.initialise(TransactionDatabase(BASE))
        rounds = policy.horizon + 1
        evicted = 0
        for _ in range(rounds):
            # Empty batches don't advance the policy clock; age with one row.
            evicted += maintainer.apply(
                UpdateBatch.from_iterables(insertions=[[9]])
            ).evicted_transactions
        # Every seed row aged past the horizon, plus the aging rows that did.
        assert evicted == len(BASE) + rounds - policy.horizon
        assert maintainer.database.transactions() == [(9,)] * policy.horizon


class TestTopK:
    def test_bound_is_a_best_first_prefix(self):
        maintainer = RuleMaintainer(0.2, 0.5, policy=TopKPolicy(3))
        maintainer.initialise(TransactionDatabase(BASE))
        unbounded = RuleMaintainer(0.2, 0.5)
        unbounded.initialise(TransactionDatabase(BASE))
        assert len(unbounded.rules) > 3
        assert maintainer.rules == unbounded.rules[:3]
        # The lattice itself stays exact and unbounded.
        assert (
            maintainer.result.lattice.supports() == unbounded.result.lattice.supports()
        )


class TestSurfaces:
    def test_report_summary_carries_policy_columns(self):
        maintainer = RuleMaintainer(0.2, 0.5, policy=SlidingWindowPolicy(len(BASE)))
        maintainer.initialise(TransactionDatabase(BASE))
        report = maintainer.apply(UpdateBatch.from_iterables(insertions=[[1, 2, 4]]))
        summary = report.summary()
        assert summary["policy"] == f"window:{len(BASE)}"
        assert summary["evicted"] == 1
