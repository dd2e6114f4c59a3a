"""repro — reproduction of "Maintenance of Discovered Association Rules in
Large Databases: An Incremental Updating Technique" (Cheung, Han, Ng, Wong,
ICDE 1996).

The package provides:

* the **FUP** incremental update algorithm (:class:`repro.core.FupUpdater`)
  and its deletion-capable generalisation (:class:`repro.core.Fup2Updater`),
* the **Apriori** and **DHP** baseline miners the paper compares against,
* association-rule generation, a transaction-database substrate with
  delta-maintained indexes, two counting engines (the horizontal reference
  scan and the vertical bitmask engine), the Quest-style synthetic data
  generator the paper's evaluation uses, and the experiment harness — with
  the declarative ``repro reproduce`` matrix — that regenerates every figure
  of the evaluation section,
* a lock-free rule-serving subsystem (:mod:`repro.serve`): versioned
  immutable snapshots published by atomic reference swap, basket/recommend
  queries over an inverted antecedent-item index, and the ``repro serve``
  HTTP endpoint.

Quickstart::

    from repro import AprioriMiner, FupUpdater, TransactionDatabase

    original = TransactionDatabase([[1, 2, 3], [1, 2], [2, 4], [1, 3]])
    initial = AprioriMiner(min_support=0.5).mine(original)

    increment = TransactionDatabase([[1, 2, 4], [2, 4]])
    updated_state = FupUpdater(min_support=0.5).update(original, initial, increment)
    print(updated_state.large_itemsets)
"""

from .errors import (
    EmptyDatabaseError,
    ExperimentError,
    GeneratorConfigError,
    InvalidItemsetError,
    InvalidThresholdError,
    InvalidTransactionError,
    PolicyError,
    ReproError,
    StaleStateError,
    StorageError,
)
from .itemsets import Item, Itemset, itemset
from .db import (
    DatabaseStats,
    Transaction,
    TransactionDatabase,
    UpdateBatch,
    UpdateLog,
    VerticalIndex,
    compute_stats,
    load_database,
    save_database,
)
from .mining import (
    BACKEND_NAMES,
    AprioriMiner,
    AssociationRule,
    CountingBackend,
    DhpMiner,
    DhpOptions,
    HashTree,
    HorizontalBackend,
    ItemsetLattice,
    MiningOptions,
    MiningResult,
    VerticalBackend,
    apriori_gen,
    generate_rules,
    make_backend,
    mine_apriori,
    mine_dhp,
)
from .core import (
    Fup2Updater,
    FupOptions,
    FupUpdater,
    MaintenancePlan,
    MaintenancePolicy,
    MaintenanceReport,
    MaintenanceSession,
    RuleMaintainer,
    SessionStatus,
    SlidingWindowPolicy,
    TimeDecayPolicy,
    TopKPolicy,
    UnboundedPolicy,
    parse_policy,
    policy_from_dict,
    read_session_state,
    update_with_fup,
    update_with_fup2,
)
from .serve import AsyncRuleServer, RuleSnapshot, RuleStore, SessionFeed
from .datagen import (
    SyntheticConfig,
    SyntheticDataGenerator,
    Workload,
    generate_database,
    make_workload,
    paper_workload,
    parse_workload_name,
    scaled_paper_workload,
)

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # errors
    "ReproError",
    "InvalidItemsetError",
    "InvalidTransactionError",
    "InvalidThresholdError",
    "EmptyDatabaseError",
    "StaleStateError",
    "StorageError",
    "GeneratorConfigError",
    "ExperimentError",
    "PolicyError",
    # itemsets
    "Item",
    "Itemset",
    "itemset",
    # db
    "Transaction",
    "TransactionDatabase",
    "VerticalIndex",
    "UpdateBatch",
    "UpdateLog",
    "DatabaseStats",
    "compute_stats",
    "load_database",
    "save_database",
    # mining
    "AprioriMiner",
    "DhpMiner",
    "DhpOptions",
    "HashTree",
    "ItemsetLattice",
    "MiningResult",
    "AssociationRule",
    "apriori_gen",
    "generate_rules",
    "mine_apriori",
    "mine_dhp",
    # counting backends
    "BACKEND_NAMES",
    "CountingBackend",
    "HorizontalBackend",
    "VerticalBackend",
    "MiningOptions",
    "make_backend",
    # core
    "FupUpdater",
    "Fup2Updater",
    "FupOptions",
    "RuleMaintainer",
    "MaintenanceReport",
    "MaintenanceSession",
    "SessionStatus",
    "MaintenancePlan",
    "MaintenancePolicy",
    "UnboundedPolicy",
    "SlidingWindowPolicy",
    "TimeDecayPolicy",
    "TopKPolicy",
    "parse_policy",
    "policy_from_dict",
    "read_session_state",
    "update_with_fup",
    "update_with_fup2",
    # serve
    "AsyncRuleServer",
    "RuleSnapshot",
    "RuleStore",
    "SessionFeed",
    # datagen
    "SyntheticConfig",
    "SyntheticDataGenerator",
    "Workload",
    "generate_database",
    "make_workload",
    "paper_workload",
    "parse_workload_name",
    "scaled_paper_workload",
]
