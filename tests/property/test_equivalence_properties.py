"""Property-based tests of the central correctness invariants.

The single most important property in this reproduction is the FUP
equivalence: for *any* original database, increment and threshold, the
incremental update must produce exactly the large itemsets (with exactly the
support counts) that re-mining the updated database from scratch produces.
Hypothesis hammers that invariant with adversarial small databases — empty
increments, increments larger than the database, items that vanish, items
that appear out of nowhere.
"""

from __future__ import annotations

from itertools import combinations

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import (
    BACKEND_NAMES,
    AprioriMiner,
    DhpMiner,
    Fup2Updater,
    FupOptions,
    FupUpdater,
    MiningOptions,
    TransactionDatabase,
    make_backend,
)
from repro.mining.result import required_support_count

from .strategies import build_database, increment_lists, supports, transaction_lists

#: Counting-engine names, as a strategy for the backend-equivalence properties.
backends = st.sampled_from(BACKEND_NAMES)
shard_counts = st.integers(min_value=1, max_value=5)

RELAXED = settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@RELAXED
@given(rows=transaction_lists, increment=increment_lists, min_support=supports)
def test_fup_equals_apriori_on_updated_database(rows, increment, min_support):
    original = build_database(rows)
    increment_db = build_database(increment) if increment else TransactionDatabase()
    initial = AprioriMiner(min_support).mine(original)
    fup = FupUpdater(min_support).update(original, initial, increment_db)
    remined = AprioriMiner(min_support).mine(original.concatenate(increment_db))
    assert fup.lattice.supports() == remined.lattice.supports()


@RELAXED
@given(rows=transaction_lists, increment=increment_lists, min_support=supports)
def test_fup_with_all_optimisations_disabled_is_still_exact(rows, increment, min_support):
    original = build_database(rows)
    increment_db = build_database(increment) if increment else TransactionDatabase()
    initial = AprioriMiner(min_support).mine(original)
    fup = FupUpdater(min_support, options=FupOptions.all_disabled()).update(
        original, initial, increment_db
    )
    remined = AprioriMiner(min_support).mine(original.concatenate(increment_db))
    assert fup.lattice.supports() == remined.lattice.supports()


@RELAXED
@given(rows=transaction_lists, min_support=supports)
def test_dhp_equals_apriori(rows, min_support):
    database = build_database(rows)
    apriori = AprioriMiner(min_support).mine(database)
    dhp = DhpMiner(min_support).mine(database)
    assert dhp.lattice.supports() == apriori.lattice.supports()


@RELAXED
@given(
    rows=transaction_lists,
    insertions=increment_lists,
    delete_count=st.integers(min_value=0, max_value=20),
    min_support=supports,
)
def test_fup2_equals_apriori_on_modified_database(rows, insertions, delete_count, min_support):
    original = build_database(rows)
    delete_count = min(delete_count, len(original))
    deletions = original.slice(len(original) - delete_count)
    remaining = original.slice(0, len(original) - delete_count)
    insert_db = build_database(insertions) if insertions else TransactionDatabase()

    initial = AprioriMiner(min_support).mine(original)
    result = Fup2Updater(min_support).update(original, initial, insert_db, deletions)
    remined = AprioriMiner(min_support).mine(remaining.concatenate(insert_db))
    assert result.lattice.supports() == remined.lattice.supports()


@RELAXED
@given(rows=transaction_lists, increment=increment_lists, min_support=supports)
def test_fup_support_counts_are_true_counts(rows, increment, min_support):
    original = build_database(rows)
    increment_db = build_database(increment) if increment else TransactionDatabase()
    updated = original.concatenate(increment_db)
    initial = AprioriMiner(min_support).mine(original)
    fup = FupUpdater(min_support).update(original, initial, increment_db)
    for candidate, count in fup.lattice.supports().items():
        assert count == updated.count_itemset(candidate)


@RELAXED
@given(rows=transaction_lists, backend=backends, shards=shard_counts)
def test_backends_count_candidates_identically(rows, backend, shards):
    """Every engine returns byte-identical counts to the horizontal scan."""
    database = build_database(rows)
    items = sorted(database.items())
    candidates = [(item,) for item in items]
    candidates += [(a, b) for a in items[:6] for b in items[:6] if a < b]
    candidates += [tuple(items[:3])] if len(items) >= 3 else []
    reference = make_backend("horizontal").count_candidates(database, candidates)
    engine = make_backend(backend, shards=shards)
    assert engine.count_candidates(database, candidates) == reference
    assert engine.count_items(database) == make_backend("horizontal").count_items(database)


@RELAXED
@given(
    rows=transaction_lists,
    increment=increment_lists,
    min_support=supports,
    backend=backends,
    shards=shard_counts,
)
def test_miners_and_updaters_backend_invariant(rows, increment, min_support, backend, shards):
    """Mining and updating produce identical supports on every engine."""
    original = build_database(rows)
    increment_db = build_database(increment) if increment else TransactionDatabase()
    reference_mine = AprioriMiner(min_support).mine(original)
    mined = AprioriMiner(
        min_support, options=MiningOptions(backend=backend, shards=shards)
    ).mine(original)
    assert mined.lattice.supports() == reference_mine.lattice.supports()

    reference_update = FupUpdater(min_support).update(original, reference_mine, increment_db)
    updated = FupUpdater(
        min_support, options=FupOptions(backend=backend, shards=shards)
    ).update(original, reference_mine, increment_db)
    assert updated.lattice.supports() == reference_update.lattice.supports()


def join_pools(updated, old, delta, floor):
    """Brute-force ``apriori_gen(L'_{k-1}) − L_k`` and its survivors of *floor*.

    Maps each level k ≥ 2 the updater reaches (while ``L'_{k-1}`` is
    non-empty) to the pair (size of the join minus ``L_k``, how many of
    those have ``count_delta(X) ≥ floor``).  The join is enumerated from
    scratch, not by ``apriori_gen``.
    """
    pools = {}
    size = 2
    while previous := set(updated.level(size - 1)):
        items = sorted({item for itemset in previous for item in itemset})
        joined = [
            candidate
            for candidate in combinations(items, size)
            if all(subset in previous for subset in combinations(candidate, size - 1))
            and candidate not in old.level(size)
        ]
        survivors = sum(1 for candidate in joined if delta.count_itemset(candidate) >= floor)
        pools[size] = (len(joined), survivors)
        size += 1
    return pools


def fup_options(backend, prune):
    """Options whose level-k pool is defined by Lemma 5 alone on *backend*.

    The horizontal engine runs the literal ``apriori_gen(L'_{k-1}) − L_k``;
    its hash filter and Reduce-db trims are switched off there so its pool
    is the same quantity the engine modes' seeded join produces.
    """
    if backend == "horizontal":
        return FupOptions(
            use_hash_filter=False,
            reduce_databases=False,
            prune_candidates_by_increment=prune,
        )
    return FupOptions(backend=backend, shards=3, prune_candidates_by_increment=prune)


@RELAXED
@given(
    rows=transaction_lists,
    increment=increment_lists,
    min_support=supports,
    backend=backends,
    prune=st.booleans(),
)
def test_fup_counts_exactly_the_lemma5_pool(rows, increment, min_support, backend, prune):
    """FUP ≡ re-mine, and its DB-counted pool is the Lemma 5 survivors of the full join."""
    original = build_database(rows)
    increment_db = build_database(increment) if increment else TransactionDatabase()
    initial = AprioriMiner(min_support).mine(original)
    fup = FupUpdater(min_support, options=fup_options(backend, prune)).update(
        original, initial, increment_db
    )
    remined = AprioriMiner(min_support).mine(original.concatenate(increment_db))
    assert fup.lattice.supports() == remined.lattice.supports()
    if not increment:
        assert fup.candidates_per_level == {}
        return
    floor = required_support_count(min_support, len(increment_db)) if prune else 0
    levels = {size: n for size, n in fup.candidates_per_level.items() if size >= 2}
    pools = join_pools(fup.lattice, initial.lattice, increment_db, floor)
    assert levels == {size: survivors for size, (_, survivors) in pools.items()}


@RELAXED
@given(rows=transaction_lists, increment=increment_lists, min_support=supports)
def test_seeded_fup_does_the_work_of_the_literal_join(rows, increment, min_support):
    """Seeding narrows what is generated, never the accounted scans or DB pool."""
    original = build_database(rows)
    increment_db = build_database(increment) if increment else TransactionDatabase()
    initial = AprioriMiner(min_support).mine(original)
    literal = FupUpdater(min_support, options=fup_options("horizontal", True))
    seeded = FupUpdater(min_support, options=fup_options("vertical", True))
    expected = literal.update(original, initial, increment_db)
    result = seeded.update(original, initial, increment_db)
    assert result.lattice.supports() == expected.lattice.supports()
    assert result.candidates_per_level == expected.candidates_per_level
    assert result.database_scans == expected.database_scans
    assert result.increment_scans == expected.increment_scans
    assert result.transactions_read == expected.transactions_read


@RELAXED
@given(
    rows=transaction_lists,
    insertions=increment_lists,
    delete_count=st.integers(min_value=0, max_value=20),
    min_support=supports,
    backend=backends,
)
def test_fup2_counts_exactly_the_floor_pool(rows, insertions, delete_count, min_support, backend):
    """FUP2 ≡ re-mine, its DB-counted pool is the floor survivors of the full
    join, and it reads what the unseeded join reads: past level 1, each level
    whose ``L_k`` or full join is non-empty reads both deltas once, and each
    non-empty pool reads DB once."""
    original = build_database(rows)
    original.items()  # a warm item universe: the shrink fallback reads nothing
    delete_count = min(delete_count, len(original))
    deletions = original.slice(len(original) - delete_count)
    remaining = original.slice(0, len(original) - delete_count)
    insert_db = build_database(insertions) if insertions else TransactionDatabase()

    initial = AprioriMiner(min_support).mine(original)
    updater = Fup2Updater(min_support, options=MiningOptions(backend=backend, shards=3))
    result = updater.update(original, initial, insert_db, deletions)
    remined = AprioriMiner(min_support).mine(remaining.concatenate(insert_db))
    assert result.lattice.supports() == remined.lattice.supports()
    if not insertions and not delete_count or not len(remaining) + len(insert_db):
        return
    required_old = required_support_count(min_support, len(original))
    required_new = required_support_count(min_support, len(remaining) + len(insert_db))
    floor = required_new - max(required_old - 1, 0)
    levels = {size: n for size, n in result.candidates_per_level.items() if size >= 2}
    pools = join_pools(result.lattice, initial.lattice, insert_db, floor)
    assert levels == {size: survivors for size, (_, survivors) in pools.items()}

    level_one = Fup2Updater(min_support, max_itemset_size=1, options=updater.backend).update(
        original, initial, insert_db, deletions
    )
    expected_reads = level_one.transactions_read
    for size, (joined, survivors) in pools.items():
        if joined or initial.lattice.level(size):
            expected_reads += len(insert_db) + delete_count
        if survivors:
            expected_reads += len(original)
    assert result.transactions_read == expected_reads
