"""Tests of the pluggable counting backends.

The central contract: every engine returns byte-identical support counts for
any (transactions, candidates) input, and every miner/updater produces
identical large itemsets and supports regardless of the engine it runs on.
The slow-but-obviously-correct ``TransactionDatabase.count_itemset`` scan is
the oracle.
"""

from __future__ import annotations

import random
from itertools import combinations

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
    VerticalBackend,
    build_vertical_index,
)
from repro.mining.result import required_support_count

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
    backend = make_backend(name)
    assert backend.count_candidates(database, CANDIDATES) == reference_counts(database)


@pytest.mark.parametrize("name", BACKENDS)
@pytest.mark.parametrize("shape", [list, iter], ids=["list", "one-shot-iterator"])
def test_count_candidates_accepts_plain_transaction_lists(name, shape, database):
    """Lists and one-shot iterators count like the database they came from."""
    backend = make_backend(name)
    rows = list(database)
    assert backend.count_candidates(shape(rows), CANDIDATES) == reference_counts(database)
    assert backend.count_items(shape(rows)) == database.item_counts()


@pytest.mark.parametrize("name", BACKENDS)
def test_count_items_matches_database_item_counts(name, database):
    backend = make_backend(name)
    assert backend.count_items(database) == database.item_counts()


@pytest.mark.parametrize("name", BACKENDS)
def test_count_candidates_empty_inputs(name):
    backend = make_backend(name)
    empty = TransactionDatabase()
    assert backend.count_candidates(empty, [(1,), (1, 2)]) == {(1,): 0, (1, 2): 0}
    assert backend.count_candidates(empty, []) == {}
    assert backend.count_items(empty) == {}


@pytest.mark.parametrize("name", BACKENDS)
def test_count_pools_splits_like_separate_counts(name, database):
    backend = make_backend(name)
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


@pytest.mark.parametrize("retired", ["partitioned"])
def test_retired_engines_are_refused_with_the_valid_names(retired):
    assert BACKEND_NAMES == ("horizontal", "vertical")
    with pytest.raises(ReproError, match="horizontal, vertical"):
        make_backend(retired)
    with pytest.raises(ReproError, match="horizontal, vertical"):
        MiningOptions(backend=retired)
    with pytest.raises(ValueError, match="horizontal, vertical"):
        FupOptions(backend=retired)
    with pytest.raises(ValueError, match="horizontal, vertical"):
        DhpOptions(backend=retired)


@pytest.mark.parametrize("name", BACKENDS)
def test_make_backend_builds_the_named_engine(name):
    engine = make_backend(name)
    assert engine.name == name
    assert type(engine) is {"horizontal": HorizontalBackend, "vertical": VerticalBackend}[name]
    assert MiningOptions(backend=name).make_backend().name == name


@pytest.mark.parametrize("name", BACKENDS)
def test_engine_selection_projects_between_option_shapes(name):
    mining = MiningOptions(backend=name)
    fup = FupOptions.from_mining(mining, use_hash_filter=False)
    assert fup.backend == name and not fup.use_hash_filter
    assert fup.mining_options() == mining
    assert DhpOptions.from_mining(mining).backend == name


@pytest.mark.parametrize("name", BACKENDS)
def test_miners_describe_a_name_or_an_instance_as_options(name):
    by_name = AprioriMiner(0.2, options=name)
    by_instance = AprioriMiner(0.2, options=make_backend(name))
    assert by_name.options == by_instance.options == MiningOptions(backend=name)
    assert by_name.backend.name == by_instance.backend.name == name


def test_make_backend_passes_instances_through():
    engine = VerticalBackend()
    assert make_backend(engine) is engine


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
    return MiningOptions(backend=name)


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
    options = DhpOptions(backend=name)
    result = DhpMiner(min_support, options=options).mine(MINE_DB)
    assert result.lattice.supports() == reference.lattice.supports()


@pytest.mark.parametrize("min_support", SUPPORTS)
@pytest.mark.parametrize("name", BACKENDS)
def test_fup_identical_across_backends(name, min_support):
    initial = AprioriMiner(min_support).mine(MINE_DB)
    reference = FupUpdater(min_support).update(MINE_DB, initial, INCREMENT)
    options = FupOptions(backend=name)
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
    options = FupOptions(backend=name)
    updated = FupUpdater(min_support, options=options).update(MINE_DB, initial, INCREMENT)
    remined = AprioriMiner(min_support).mine(MINE_DB.concatenate(INCREMENT))
    assert updated.lattice.supports() == remined.lattice.supports()


def test_horizontal_is_the_only_pruning_backend():
    assert HorizontalBackend().supports_transaction_pruning
    assert not VerticalBackend().supports_transaction_pruning


# --------------------------------------------------------------------- #
# Every engine against exhaustive enumeration
# --------------------------------------------------------------------- #
def brute_force_large_itemsets(database: TransactionDatabase, min_support: float):
    """Every itemset over the database's items with support ≥ s·D, found by
    counting all subsets of the item universe with the database's own scan."""
    required = max(required_support_count(min_support, len(database)), 1)
    items = sorted(database.item_counts())
    large = {}
    for size in range(1, len(items) + 1):
        level = {}
        for candidate in combinations(items, size):
            count = database.count_itemset(candidate)
            if count >= required:
                level[candidate] = count
        if not level:
            break
        large.update(level)
    return large


def small_random_database(seed: int) -> TransactionDatabase:
    rng = random.Random(seed)
    return TransactionDatabase(
        [rng.sample(range(8), rng.randint(1, 6)) for _ in range(60)], name=f"enum-{seed}"
    )


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("name", BACKENDS)
@pytest.mark.parametrize("miner", ["apriori", "dhp"])
def test_miners_match_exhaustive_enumeration(miner, name, seed):
    database = small_random_database(seed)
    if miner == "apriori":
        result = AprioriMiner(0.15, options=name).mine(database)
    else:
        result = DhpMiner(0.15, options=DhpOptions(backend=name)).mine(database)
    assert result.lattice.supports() == brute_force_large_itemsets(database, 0.15)
