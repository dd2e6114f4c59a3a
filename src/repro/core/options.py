"""Feature switches for the FUP algorithm.

Every optimisation the paper describes can be toggled independently so that
the ablation benchmark (``benchmarks/test_ablation_fup_features.py``) can
quantify what each one contributes.  The defaults enable everything, which is
the configuration the paper evaluates.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..mining.backends import (
    BACKEND_NAMES,
    DEFAULT_EXECUTOR,
    DEFAULT_SHARDS,
    EXECUTOR_NAMES,
    KERNEL_NAMES,
    HorizontalBackend,
    MiningOptions,
)

__all__ = ["FupOptions"]


@dataclass(frozen=True)
class FupOptions:
    """Configuration of the FUP updater.

    Attributes
    ----------
    prune_candidates_by_increment:
        Apply Lemmas 2 and 5: drop a candidate whose support inside the
        increment is below ``s × d`` before scanning the original database.
        This is FUP's central optimisation.  It shrinks the pool counted
        against the original database, which is what
        ``MiningResult.candidates_generated`` reports.  On the engine
        (non-horizontal) backends it also seeds candidate generation with the
        increment, so the candidates it would drop are never generated or
        counted in the increment either; switched off, every level counts the
        full ``apriori_gen(L'_{k-1}) − L_k`` in both databases.
    filter_losers_by_subsets:
        Apply Lemma 3: remove an old large k-itemset from consideration as
        soon as one of its (k−1)-subsets is known to be a loser, without
        counting it against the increment.
    reduce_databases:
        Apply the Section 3.4 size reductions: the ``P``-set item removal
        during the first original-database scan, ``Reduce-db`` trimming of the
        increment and ``Reduce-DB`` trimming of the original database at later
        iterations.
    use_hash_filter:
        Integrate DHP's direct-hashing technique to further prune the size-2
        candidate set (Section 3.4, last paragraph).
    hash_table_size:
        Bucket count of the direct-hashing table (the paper's DHP runs use
        100 buckets).
    backend:
        Counting engine running the support scans (see
        :data:`repro.mining.backends.BACKEND_NAMES`).  The database
        reductions and the hash filter are woven into the horizontal
        per-transaction scan loop; when a non-horizontal engine is selected
        the scans run through the engine instead and those two interleaved
        optimisations are skipped (they are lossless prunes, so the resulting
        large itemsets and support counts are identical — only
        instrumentation like candidate counts can differ).
    shards:
        Partition count used by the ``"partitioned"`` engine.
    executor:
        Shard executor used by the ``"partitioned"`` engine
        (:data:`repro.mining.backends.EXECUTOR_NAMES`): ``"threads"`` or the
        process-parallel ``"processes"``.
    workers:
        Cap on the ``"partitioned"`` engine's concurrent lanes (``None``:
        one per shard).
    kernel:
        Bitmap kernel for the vertical counting core (see
        :data:`repro.mining.backends.KERNEL_NAMES`): ``"bigint"``,
        ``"numpy"``, ``"auto"``, or ``None`` for the default.
    """

    prune_candidates_by_increment: bool = True
    filter_losers_by_subsets: bool = True
    reduce_databases: bool = True
    use_hash_filter: bool = True
    hash_table_size: int = 100
    backend: str = HorizontalBackend.name
    shards: int = DEFAULT_SHARDS
    executor: str = DEFAULT_EXECUTOR
    workers: int | None = None
    kernel: str | None = None

    def __post_init__(self) -> None:
        if self.hash_table_size < 1:
            raise ValueError(f"hash_table_size must be positive, got {self.hash_table_size}")
        if self.backend not in BACKEND_NAMES:
            raise ValueError(
                f"unknown counting backend {self.backend!r}; "
                f"expected one of {', '.join(BACKEND_NAMES)}"
            )
        if self.shards < 1:
            raise ValueError(f"shards must be positive, got {self.shards}")
        if self.executor not in EXECUTOR_NAMES:
            raise ValueError(
                f"unknown executor {self.executor!r}; "
                f"expected one of {', '.join(EXECUTOR_NAMES)}"
            )
        if self.workers is not None and self.workers < 1:
            raise ValueError(f"workers must be positive, got {self.workers}")
        if self.kernel is not None and self.kernel not in KERNEL_NAMES:
            raise ValueError(
                f"unknown kernel {self.kernel!r}; "
                f"expected one of {', '.join(KERNEL_NAMES)}"
            )

    def mining_options(self) -> "MiningOptions":
        """The engine-selection slice of these options as a MiningOptions."""
        return MiningOptions(
            backend=self.backend,
            shards=self.shards,
            executor=self.executor,
            workers=self.workers,
            kernel=self.kernel,
        )

    @classmethod
    def from_mining(cls, mining: MiningOptions, **overrides) -> "FupOptions":
        """FUP options carrying a MiningOptions engine selection.

        Together with :meth:`mining_options` this is the only projection
        between the two shapes — new engine knobs are threaded here once.
        """
        return cls(
            backend=mining.backend,
            shards=mining.shards,
            executor=mining.executor,
            workers=mining.workers,
            kernel=mining.kernel,
            **overrides,
        )

    @classmethod
    def all_disabled(cls) -> "FupOptions":
        """Return options with every optimisation switched off (ablation baseline)."""
        return cls(
            prune_candidates_by_increment=False,
            filter_losers_by_subsets=False,
            reduce_databases=False,
            use_hash_filter=False,
        )
