"""Frequent-itemset mining substrate and the two baseline miners.

The paper compares FUP against re-running **Apriori** (Agrawal & Srikant,
VLDB '94) and **DHP** (Park, Chen & Yu, SIGMOD '95) on the updated database,
so both baselines are implemented here in full, sharing the same hash-tree
counting machinery that FUP uses.  Rule generation from large itemsets — the
second sub-problem of association-rule mining — lives in :mod:`repro.mining.rules`.
"""

from .result import ItemsetLattice, MiningResult
from .hash_tree import HashTree
from .backends import (
    BACKEND_NAMES,
    CountingBackend,
    HorizontalBackend,
    MiningOptions,
    VerticalBackend,
    make_backend,
)
from .candidates import apriori_gen, generate_level_one_candidates, prune_by_subsets
from .apriori import AprioriMiner, mine_apriori
from .dhp import DhpMiner, DhpOptions, mine_dhp
from .rules import (
    AssociationRule,
    generate_rules,
    rule_confidence,
    rule_lift,
    rule_leverage,
    rule_conviction,
)

__all__ = [
    "ItemsetLattice",
    "MiningResult",
    "HashTree",
    "apriori_gen",
    "generate_level_one_candidates",
    "prune_by_subsets",
    "AprioriMiner",
    "mine_apriori",
    "DhpMiner",
    "DhpOptions",
    "mine_dhp",
    "BACKEND_NAMES",
    "CountingBackend",
    "HorizontalBackend",
    "VerticalBackend",
    "MiningOptions",
    "make_backend",
    "AssociationRule",
    "generate_rules",
    "rule_confidence",
    "rule_lift",
    "rule_leverage",
    "rule_conviction",
]
