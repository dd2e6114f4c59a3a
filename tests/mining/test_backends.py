"""Tests of the pluggable counting backends.

The central contract: every engine returns byte-identical support counts for
any (transactions, candidates) input, and every miner/updater produces
identical large itemsets and supports regardless of the engine it runs on.
The slow-but-obviously-correct ``TransactionDatabase.count_itemset`` scan is
the oracle.
"""

from __future__ import annotations

import pytest

from repro import (
    BACKEND_NAMES,
    AprioriMiner,
    DhpMiner,
    DhpOptions,
    Fup2Updater,
    FupOptions,
    FupUpdater,
    MiningOptions,
    ReproError,
    TransactionDatabase,
    make_backend,
)
from repro.mining.backends import (
    HorizontalBackend,
    PartitionedBackend,
    VerticalBackend,
    build_vertical_index,
    split_into_shards,
)

BACKENDS = list(BACKEND_NAMES)


@pytest.fixture()
def database() -> TransactionDatabase:
    return TransactionDatabase(
        [
            [1, 2, 3],
            [1, 2],
            [2, 4],
            [1, 3],
            [3, 4],
            [1, 2, 4],
            [],
            [5],
            [1, 2, 3, 4, 5],
        ],
        name="fixture",
    )


CANDIDATES = [
    (1,),
    (2,),
    (5,),
    (9,),  # zero support
    (1, 2),
    (1, 3),
    (2, 4),
    (4, 5),  # zero support beyond the kitchen-sink transaction
    (1, 2, 3),
    (1, 2, 4),
    (1, 9),  # zero support with one unknown item
]


def reference_counts(database: TransactionDatabase) -> dict[tuple[int, ...], int]:
    return {candidate: database.count_itemset(candidate) for candidate in CANDIDATES}


# --------------------------------------------------------------------- #
# Engine-level equivalence
# --------------------------------------------------------------------- #
@pytest.mark.parametrize("name", BACKENDS)
def test_count_candidates_matches_oracle(name, database):
    backend = make_backend(name, shards=3)
    assert backend.count_candidates(database, CANDIDATES) == reference_counts(database)


@pytest.mark.parametrize("name", BACKENDS)
@pytest.mark.parametrize("shape", [list, iter], ids=["list", "one-shot-iterator"])
def test_count_candidates_accepts_plain_transaction_lists(name, shape, database):
    """Lists and one-shot iterators count like the database they came from."""
    backend = make_backend(name, shards=3)
    rows = list(database)
    assert backend.count_candidates(shape(rows), CANDIDATES) == reference_counts(database)
    assert backend.count_items(shape(rows)) == database.item_counts()


@pytest.mark.parametrize("name", BACKENDS)
def test_count_items_matches_database_item_counts(name, database):
    backend = make_backend(name, shards=3)
    assert backend.count_items(database) == database.item_counts()


@pytest.mark.parametrize("name", BACKENDS)
def test_count_candidates_empty_inputs(name):
    backend = make_backend(name, shards=3)
    empty = TransactionDatabase()
    assert backend.count_candidates(empty, [(1,), (1, 2)]) == {(1,): 0, (1, 2): 0}
    assert backend.count_candidates(empty, []) == {}
    assert backend.count_items(empty) == {}


@pytest.mark.parametrize("name", BACKENDS)
def test_count_pools_splits_like_separate_counts(name, database):
    backend = make_backend(name, shards=3)
    pool_a = [(1,), (1, 2)]
    pool_b = [(2, 4), (9,)]
    counted_a, counted_b = backend.count_pools(database, [pool_a, pool_b])
    assert counted_a == backend.count_candidates(database, pool_a)
    assert counted_b == backend.count_candidates(database, pool_b)


def test_make_backend_rejects_unknown_names():
    with pytest.raises(ReproError):
        make_backend("columnar")
    with pytest.raises(ReproError):
        MiningOptions(backend="columnar")


def test_make_backend_passes_instances_through():
    engine = VerticalBackend()
    assert make_backend(engine) is engine


def test_partitioned_backend_shard_knob():
    assert PartitionedBackend(shards=7).shards == 7
    with pytest.raises(ValueError):
        PartitionedBackend(shards=0)
    with pytest.raises(ValueError):
        MiningOptions(shards=0)


def test_partitioned_more_shards_than_transactions(database):
    backend = PartitionedBackend(shards=64)
    assert backend.count_candidates(database, CANDIDATES) == reference_counts(database)


def test_partitioned_inner_engine_is_swappable(database):
    backend = PartitionedBackend(shards=2, inner=VerticalBackend())
    assert backend.count_candidates(database, CANDIDATES) == reference_counts(database)


def test_split_into_shards_covers_in_order():
    rows = [(i,) for i in range(10)]
    parts = split_into_shards(rows, 3)
    assert [len(part) for part in parts] == [4, 3, 3]
    assert [row for part in parts for row in part] == rows
    assert split_into_shards([], 3) == []


# --------------------------------------------------------------------- #
# The vertical representation and its cache
# --------------------------------------------------------------------- #
def test_build_vertical_index_bit_semantics():
    index = build_vertical_index([(1, 2), (2,), (1,)])
    assert index == {1: 0b101, 2: 0b011}


def test_database_vertical_is_cached_and_delta_maintained(database):
    first = database.vertical()
    assert database.vertical() is first  # cached

    database.append([1, 7])
    maintained = database.vertical()
    assert maintained is first  # maintained in place, never rebuilt
    assert maintained[7].bit_count() == 1

    database.extend([[7], [7]])
    assert database.vertical()[7].bit_count() == 3

    database.remove_batch([[1, 7]])
    assert database.vertical()[7].bit_count() == 2
    assert dict(database.vertical()) == build_vertical_index(database.transactions())


def test_database_partition_balanced_and_distributive(database):
    shards = database.partition(4)
    assert sum(len(shard) for shard in shards) == len(database)
    sizes = [len(shard) for shard in shards]
    assert max(sizes) - min(sizes) <= 1
    assert [t for shard in shards for t in shard] == list(database)
    for candidate in CANDIDATES:
        assert database.count_itemset(candidate) == sum(
            shard.count_itemset(candidate) for shard in shards
        )
    with pytest.raises(ValueError):
        database.partition(0)


# --------------------------------------------------------------------- #
# Miner / updater equivalence across engines
# --------------------------------------------------------------------- #
MINE_DB = TransactionDatabase(
    [[1, 2, 3, 4], [1, 2, 4], [2, 3], [1, 4], [2, 4, 5], [1, 2, 3], [3, 5], [1, 2, 4, 5]] * 3
)
INCREMENT = TransactionDatabase([[1, 2, 4], [2, 5], [1, 2, 3, 4], [6, 7], [6, 7]])
DELETIONS = TransactionDatabase([[2, 3], [3, 5]])
SUPPORTS = [0.15, 0.3, 0.55]


def _options(name: str) -> MiningOptions:
    return MiningOptions(backend=name, shards=3)


@pytest.mark.parametrize("min_support", SUPPORTS)
@pytest.mark.parametrize("name", BACKENDS)
def test_apriori_identical_across_backends(name, min_support):
    reference = AprioriMiner(min_support).mine(MINE_DB)
    result = AprioriMiner(min_support, options=_options(name)).mine(MINE_DB)
    assert result.lattice.supports() == reference.lattice.supports()
    assert result.candidates_per_level == reference.candidates_per_level
    assert result.database_scans == reference.database_scans


@pytest.mark.parametrize("min_support", SUPPORTS)
@pytest.mark.parametrize("name", BACKENDS)
def test_dhp_identical_across_backends(name, min_support):
    reference = DhpMiner(min_support).mine(MINE_DB)
    options = DhpOptions(backend=name, shards=3)
    result = DhpMiner(min_support, options=options).mine(MINE_DB)
    assert result.lattice.supports() == reference.lattice.supports()


@pytest.mark.parametrize("min_support", SUPPORTS)
@pytest.mark.parametrize("name", BACKENDS)
def test_fup_identical_across_backends(name, min_support):
    initial = AprioriMiner(min_support).mine(MINE_DB)
    reference = FupUpdater(min_support).update(MINE_DB, initial, INCREMENT)
    options = FupOptions(backend=name, shards=3)
    result = FupUpdater(min_support, options=options).update(MINE_DB, initial, INCREMENT)
    assert result.lattice.supports() == reference.lattice.supports()


@pytest.mark.parametrize("min_support", SUPPORTS)
@pytest.mark.parametrize("name", BACKENDS)
def test_fup2_identical_across_backends(name, min_support):
    initial = AprioriMiner(min_support).mine(MINE_DB)
    reference = Fup2Updater(min_support).update(MINE_DB, initial, INCREMENT, DELETIONS)
    result = Fup2Updater(min_support, options=_options(name)).update(
        MINE_DB, initial, INCREMENT, DELETIONS
    )
    assert result.lattice.supports() == reference.lattice.supports()


@pytest.mark.parametrize("name", BACKENDS)
def test_fup_backends_agree_with_remining(name):
    min_support = 0.2
    initial = AprioriMiner(min_support).mine(MINE_DB)
    options = FupOptions(backend=name, shards=3)
    updated = FupUpdater(min_support, options=options).update(MINE_DB, initial, INCREMENT)
    remined = AprioriMiner(min_support).mine(MINE_DB.concatenate(INCREMENT))
    assert updated.lattice.supports() == remined.lattice.supports()


def test_horizontal_is_the_only_pruning_backend():
    assert HorizontalBackend().supports_transaction_pruning
    assert not VerticalBackend().supports_transaction_pruning
    assert not PartitionedBackend().supports_transaction_pruning
