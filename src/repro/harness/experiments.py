"""The declarative paper-reproduction experiment suite.

The paper's central claim is empirical: maintaining the mined state with FUP
beats re-running Apriori or DHP on the updated database by 2–16× across
increment sizes and support thresholds (Figures 2–4, Sections 4.4–4.6).
This module turns that evaluation section into a declarative, runnable
matrix:

* :class:`ExperimentMatrix` names the sweep — workload × increment size ×
  support threshold × counting engine × maintenance policy — as
  plain data;
* :func:`run_matrix` executes every cell through the harness's
  :func:`~repro.harness.runner.compare_update_strategies` template (FUP with
  the saved state vs. Apriori and DHP from scratch) and verifies all three
  strategies agree on the large itemsets.  ``window`` cells route the same
  increment through a :class:`~repro.core.policy.SlidingWindowPolicy`
  maintainer instead — evictions ride the FUP2 deletion path — and the
  consistency check becomes the policy layer's pinned invariant: the
  maintained lattice must equal re-mining the resulting window from
  scratch;
* :class:`ReproductionReport` renders the results three ways: measured
  **timing** tables/charts (machine-dependent; written to
  ``BENCH_reproduction.json`` for the perf trajectory), deterministic
  **work-ratio** tables (derived from exact candidate and transaction-read
  counts, so a seeded run regenerates them byte-identically on any machine
  — these are what ``docs/reproduction.md`` embeds and CI re-checks), and
  ASCII bar charts of either.

The CLI front door is ``repro reproduce`` (see ``docs/cli.md``); the
``--quick`` preset is the configuration CI runs on every push, and
``--update-docs`` / ``--check-docs`` maintain the generated block of
``docs/reproduction.md``.

Work-ratio semantics
--------------------

Wall-clock speedups do not survive a change of machine, but the quantities
that *cause* them do: how many candidates an algorithm counts and how many
transactions its scans read.  For every cell the report derives

* ``cand baseline/fup`` — candidates generated by the re-run baseline per
  candidate FUP generates.  Support counting dominates runtime and its cost
  tracks the candidate pool, so this is the machine-independent analogue of
  the paper's Figure-2 timing bars (Figure 3 plots its reciprocal); and
* ``reads apriori/fup`` — transactions read by the baseline per transaction
  FUP reads (>1 only where FUP's database reductions shrink the scans).

>>> work_speedup(120_000, 15_000)
8.0
>>> work_speedup(0, 15_000)
0.0
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from ..core.maintenance import RuleMaintainer
from ..core.options import FupOptions
from ..core.policy import SlidingWindowPolicy
from ..datagen.workloads import scaled_paper_workload
from ..db.transaction_db import TransactionDatabase
from ..db.update import UpdateBatch
from ..errors import ExperimentError
from ..mining.apriori import AprioriMiner
from ..mining.backends import BACKEND_NAMES, MiningOptions
from ..mining.dhp import DhpMiner
from ..mining.result import MiningResult
from .figures import grouped_bar_chart
from .reporting import format_table
from .runner import UpdateComparison, _dhp_options, compare_update_strategies

__all__ = [
    "EngineSpec",
    "ExperimentMatrix",
    "ExperimentCell",
    "ReproductionReport",
    "run_matrix",
    "work_speedup",
    "DOCS_BEGIN",
    "DOCS_END",
    "embed_generated_block",
    "generated_block_drift",
    "first_divergence",
]

#: Markers delimiting the generated block inside ``docs/reproduction.md``.
DOCS_BEGIN = "<!-- repro:reproduce:tables:begin -->"
DOCS_END = "<!-- repro:reproduce:tables:end -->"


def work_speedup(baseline_reads: int, fup_reads: int) -> float:
    """Deterministic analogue of a timing speedup: reads baseline / reads FUP.

    >>> work_speedup(1000, 250)
    4.0
    >>> work_speedup(1000, 0)  # FUP read nothing at all: treat as 1-read
    1000.0
    """
    return baseline_reads / max(fup_reads, 1)


@dataclass(frozen=True)
class EngineSpec:
    """One counting-engine configuration of the sweep: a backend name.

    >>> EngineSpec.parse("vertical").label
    'vertical'
    """

    backend: str = "horizontal"

    @classmethod
    def parse(cls, text: str) -> "EngineSpec":
        """Parse an engine name from :data:`~repro.mining.backends.BACKEND_NAMES`."""
        name = text.strip()
        if not name:
            raise ExperimentError(f"empty engine spec in {text!r}")
        if name not in BACKEND_NAMES:
            raise ExperimentError(
                f"unknown engine spec {name!r}; expected one of {', '.join(BACKEND_NAMES)}"
            )
        return cls(name)

    @property
    def label(self) -> str:
        """Display and round-trip form: the backend name."""
        return self.backend

    def mining_options(self) -> MiningOptions:
        """The equivalent engine selection for the miners and updaters."""
        return MiningOptions(backend=self.backend)


@dataclass(frozen=True)
class ExperimentMatrix:
    """A declarative sweep over the paper's experimental dimensions.

    ``increment_fractions`` scale the workload's generated increment ``d``:
    a fraction ``f`` takes the first ``round(f × |d|)`` increment
    transactions, which is how the Section 4.4 increment-size sweep is
    expressed without generating a workload per point (the prefix of a
    seeded increment is itself deterministic).
    """

    workload: str = "T10.I4.D100.d10"
    scale: float = 0.01
    seed: int | None = None  # None: the generator's fixed default seed
    supports: tuple[float, ...] = (0.03, 0.02, 0.015)
    increment_fractions: tuple[float, ...] = (0.25, 0.5, 1.0)
    engines: tuple[EngineSpec, ...] = (EngineSpec("horizontal"), EngineSpec("vertical"))
    #: Maintenance-policy dimension: ``unbounded`` is the paper's setting
    #: (DB ∪ db keeps everything); ``window`` maintains a sliding window of
    #: |DB| transactions, so the increment's arrival evicts the oldest rows
    #: through the FUP2 deletion path.
    policies: tuple[str, ...] = ("unbounded",)
    label: str = "default"

    @classmethod
    def quick(cls) -> "ExperimentMatrix":
        """The CI preset: small enough to run on every push, still covering
        both engines, the increment × support plane, and both policies."""
        return cls(
            supports=(0.03, 0.02),
            increment_fractions=(0.5, 1.0),
            policies=("unbounded", "window"),
            label="quick",
        )

    def cli_arguments(self) -> str:
        """The ``repro reproduce`` flags that re-run exactly this matrix.

        >>> ExperimentMatrix.quick().cli_arguments()
        '--quick'
        >>> ExperimentMatrix().cli_arguments()
        ''
        """
        if self.label == "quick":
            return "--quick"
        if self == ExperimentMatrix():
            return ""
        flags = [
            f"--workload {self.workload}",
            f"--scale {self.scale:g}",
            f"--supports {','.join(f'{s:g}' for s in self.supports)}",
            f"--increments {','.join(f'{f:g}' for f in self.increment_fractions)}",
            f"--engines {','.join(engine.label for engine in self.engines)}",
            f"--policies {','.join(self.policies)}",
        ]
        if self.seed is not None:
            flags.append(f"--seed {self.seed}")
        return " ".join(flags)

    def describe(self) -> dict[str, object]:
        """Flat JSON-ready description of the matrix."""
        return {
            "label": self.label,
            "workload": self.workload,
            "scale": self.scale,
            "seed": self.seed,
            "supports": list(self.supports),
            "increment_fractions": list(self.increment_fractions),
            "engines": [engine.label for engine in self.engines],
            "policies": list(self.policies),
        }


@dataclass(frozen=True)
class ExperimentCell:
    """One matrix point: a full FUP-vs-baselines comparison.

    For ``policy == "window"`` the ``fup`` leg is the sliding-window
    maintainer (evictions riding FUP2) and the Apriori/DHP legs re-mine the
    resulting *window*, so :meth:`UpdateComparison.consistent` checks the
    policy layer's pinned window ≡ re-mine invariant.
    """

    workload: str
    engine: str
    increment_fraction: float
    increment_size: int
    min_support: float
    comparison: UpdateComparison
    policy: str = "unbounded"

    def rows(self) -> list[dict[str, object]]:
        """One flat row per strategy (the ``BENCH_reproduction.json`` shape)."""
        shared = {
            "workload": self.workload,
            "engine": self.engine,
            "policy": self.policy,
            "increment_fraction": self.increment_fraction,
            "increment_size": self.increment_size,
            "min_support": self.min_support,
        }
        rows = []
        for strategy, result in (
            ("fup", self.comparison.fup),
            ("apriori", self.comparison.apriori),
            ("dhp", self.comparison.dhp),
        ):
            rows.append(
                {
                    **shared,
                    "strategy": strategy,
                    "seconds": round(result.elapsed_seconds, 6),
                    "candidates": result.candidates_generated,
                    "db_scans": result.database_scans,
                    "incr_scans": result.increment_scans,
                    "transactions_read": result.transactions_read,
                    "large_itemsets": len(result.lattice),
                }
            )
        return rows

    def work_row(self) -> dict[str, object]:
        """The deterministic work-ratio row the docs tables embed.

        The headline is the candidate-pool speedup (baseline candidates per
        FUP candidate): support counting dominates every algorithm's runtime
        and its cost tracks the candidate pool, so this ratio is the
        machine-independent analogue of the paper's Figure-2 timing bars
        (Figure 3 plots its reciprocal).  The reads ratio stays >1 only where
        FUP's database reductions actually shrink the scans.
        """
        comparison = self.comparison
        return {
            "engine": self.engine,
            "policy": self.policy,
            "min_support": self.min_support,
            "cand apriori/fup": round(
                work_speedup(
                    comparison.apriori.candidates_generated,
                    comparison.fup.candidates_generated,
                ),
                2,
            ),
            "cand dhp/fup": round(
                work_speedup(
                    comparison.dhp.candidates_generated,
                    comparison.fup.candidates_generated,
                ),
                2,
            ),
            "reads apriori/fup": round(
                work_speedup(
                    comparison.apriori.transactions_read,
                    comparison.fup.transactions_read,
                ),
                3,
            ),
            "itemsets": len(comparison.fup.lattice),
        }

    def timing_row(self) -> dict[str, object]:
        """The measured-speedup row (machine-dependent)."""
        return {
            "engine": self.engine,
            "policy": self.policy,
            "min_support": self.min_support,
            "fup_s": round(self.comparison.fup.elapsed_seconds, 4),
            "apriori_s": round(self.comparison.apriori.elapsed_seconds, 4),
            "dhp_s": round(self.comparison.dhp.elapsed_seconds, 4),
            "speedup vs apriori": round(self.comparison.against_apriori.speedup, 2),
            "speedup vs dhp": round(self.comparison.against_dhp.speedup, 2),
        }


def run_matrix(
    matrix: ExperimentMatrix,
    progress: Callable[[str], None] | None = None,
) -> "ReproductionReport":
    """Execute every cell of *matrix* and return the report.

    The initial mining result of the original database is computed once per
    (engine, support) and shared across the increment sweep — exactly the
    paper's setup, where the pre-update state is a given.  Every cell is
    verified for cross-strategy agreement on the large itemsets; disagreement
    raises :class:`~repro.errors.ExperimentError` (it would mean a counting
    engine or updater bug, and a report built on it would be fiction).
    """
    say = progress or (lambda message: None)
    for policy in matrix.policies:
        if policy not in ("unbounded", "window"):
            raise ExperimentError(
                f"unknown policy {policy!r} in the experiment matrix; "
                "expected 'unbounded' or 'window'"
            )
    workload = scaled_paper_workload(matrix.workload, scale=matrix.scale, seed=matrix.seed)
    original, increment = workload.original, workload.increment
    cells: list[ExperimentCell] = []
    initial_cache: dict[tuple[str, float], object] = {}
    for engine in matrix.engines:
        mining = engine.mining_options()
        for fraction in matrix.increment_fractions:
            size = max(1, round(fraction * len(increment)))
            part = increment.slice(0, size, name=f"{workload.name}.d x{fraction:g}")
            for min_support in matrix.supports:
                key = (engine.label, min_support)
                for policy in matrix.policies:
                    say(
                        f"[{engine.label}] |d|={size} s={min_support:g} "
                        f"policy={policy} "
                        f"({'cached' if key in initial_cache else 'mining'} "
                        "initial state)"
                    )
                    if key not in initial_cache:
                        initial_cache[key] = AprioriMiner(
                            min_support, options=mining
                        ).mine(original)
                    if policy == "window":
                        comparison = _windowed_comparison(
                            original,
                            part,
                            min_support,
                            workload=workload.name,
                            initial=initial_cache[key],  # type: ignore[arg-type]
                            mining=mining,
                        )
                    else:
                        comparison = compare_update_strategies(
                            original,
                            part,
                            min_support,
                            workload=workload.name,
                            initial=initial_cache[key],  # type: ignore[arg-type]
                            mining=mining,
                        )
                    if not comparison.consistent():
                        raise ExperimentError(
                            f"strategies disagree on the large itemsets at engine="
                            f"{engine.label}, |d|={size}, s={min_support}, "
                            f"policy={policy}"
                        )
                    cells.append(
                        ExperimentCell(
                            workload=workload.name,
                            engine=engine.label,
                            increment_fraction=fraction,
                            increment_size=size,
                            min_support=min_support,
                            comparison=comparison,
                            policy=policy,
                        )
                    )
    return ReproductionReport(matrix=matrix, database_size=len(original), cells=cells)


def _windowed_comparison(
    original: TransactionDatabase,
    part: TransactionDatabase,
    min_support: float,
    workload: str,
    initial: MiningResult,
    mining: MiningOptions,
) -> UpdateComparison:
    """One sliding-window cell: the policy-driven maintainer vs the window re-mines.

    The maintainer holds a window of ``|DB|`` transactions, so applying the
    increment evicts its ``|d|`` oldest rows through the FUP2 deletion path
    (exactly what a windowed session does).  The Apriori and DHP legs then
    re-mine the *resulting window* from scratch — making
    :meth:`UpdateComparison.consistent` the policy layer's pinned invariant
    rather than a separate assertion.
    """
    maintainer = RuleMaintainer(
        min_support,
        0.5,
        fup_options=FupOptions.from_mining(mining),
        policy=SlidingWindowPolicy(len(original)),
    )
    maintainer.restore(original.copy(), initial.lattice)
    maintainer.apply(
        UpdateBatch.from_iterables(insertions=part.transactions(), label="window-cell")
    )
    window = TransactionDatabase(
        maintainer.database.transactions(), name=f"{workload}.window"
    )
    apriori_result = AprioriMiner(min_support, options=mining).mine(window)
    dhp_result = DhpMiner(min_support, options=_dhp_options(mining)).mine(window)
    return UpdateComparison(
        workload=workload,
        min_support=min_support,
        fup=maintainer.result,
        apriori=apriori_result,
        dhp=dhp_result,
        initial=initial,
    )


@dataclass(frozen=True)
class ReproductionReport:
    """Every cell of an executed matrix, renderable as tables, charts, JSON."""

    matrix: ExperimentMatrix
    database_size: int
    cells: list[ExperimentCell]

    # ------------------------------------------------------------------ #
    def _by_fraction(self) -> list[tuple[float, int, list[ExperimentCell]]]:
        groups: dict[float, list[ExperimentCell]] = {}
        for cell in self.cells:
            groups.setdefault(cell.increment_fraction, []).append(cell)
        return [
            (fraction, group[0].increment_size, group)
            for fraction, group in sorted(groups.items())
        ]

    # ------------------------------------------------------------------ #
    # Deterministic rendering (embedded in docs/, drift-checked by CI)
    # ------------------------------------------------------------------ #
    def work_tables(self) -> str:
        """The deterministic work-ratio tables, one per increment size."""
        sections = []
        for fraction, size, group in self._by_fraction():
            sections.append(
                format_table(
                    [cell.work_row() for cell in group],
                    title=(
                        f"work ratios at |d| = {size} "
                        f"({fraction:g} x d, |DB| = {self.database_size})"
                    ),
                )
            )
        return "\n\n".join(sections)

    def work_chart(self) -> str:
        """Deterministic bar chart of the candidate-pool speedups (first engine)."""
        engine = self.matrix.engines[0].label
        groups = []
        for _fraction, size, group in self._by_fraction():
            for cell in group:
                # The chart reproduces the paper's figure: first engine,
                # classic unbounded DB ∪ db semantics.
                if cell.engine != engine or cell.policy != "unbounded":
                    continue
                row = cell.work_row()
                groups.append(
                    (
                        f"|d|={size} s={cell.min_support:g}",
                        [
                            ("vs apriori", float(row["cand apriori/fup"])),
                            ("vs dhp", float(row["cand dhp/fup"])),
                        ],
                    )
                )
        return grouped_bar_chart(
            groups,
            title=f"candidate-pool ratio, baseline/FUP (engine: {engine})",
            value_format="{:.2f}x",
        )

    def deterministic_markdown(self) -> str:
        """The generated block of ``docs/reproduction.md`` (between markers).

        Everything here derives from exact work counts of a seeded run, so
        re-running the same matrix regenerates it byte-identically on any
        machine; CI fails when this text and the committed docs drift.
        """
        matrix = self.matrix
        flags = matrix.cli_arguments()
        command = f"repro reproduce {flags} --update-docs docs/reproduction.md".replace(
            "  ", " "
        )
        lines = [
            f"_Generated by `{command}`.  Do **not** edit between the markers —",
            "CI regenerates this block and fails on drift._",
            "",
            f"Workload `{matrix.workload}` at scale {matrix.scale:g} "
            f"(|DB| = {self.database_size}, seed = "
            f"{matrix.seed if matrix.seed is not None else 'generator default'}), "
            f"engines: {', '.join(f'`{e.label}`' for e in matrix.engines)}, "
            f"policies: {', '.join(f'`{p}`' for p in matrix.policies)}.  "
            "In `window` rows the FUP leg is a sliding-window maintainer "
            "(evictions ride FUP2 deletions) and the baselines re-mine the "
            "resulting window, so every ratio doubles as the window ≡ re-mine "
            "consistency check.",
            "",
            "```text",
            self.work_tables(),
            "",
            self.work_chart(),
            "```",
        ]
        return "\n".join(lines)

    # ------------------------------------------------------------------ #
    # Measured rendering (machine-dependent; printed + JSON artifact)
    # ------------------------------------------------------------------ #
    def timing_tables(self) -> str:
        """Measured speedup tables (wall-clock; varies per machine)."""
        sections = []
        for fraction, size, group in self._by_fraction():
            sections.append(
                format_table(
                    [cell.timing_row() for cell in group],
                    title=(
                        f"measured speedups at |d| = {size} "
                        f"({fraction:g} x d, |DB| = {self.database_size})"
                    ),
                )
            )
        return "\n\n".join(sections)

    def timing_chart(self) -> str:
        """Bar chart of measured FUP speedups (first engine of the matrix)."""
        engine = self.matrix.engines[0].label
        groups = []
        for _fraction, size, group in self._by_fraction():
            for cell in group:
                if cell.engine != engine or cell.policy != "unbounded":
                    continue
                groups.append(
                    (
                        f"|d|={size} s={cell.min_support:g}",
                        [
                            ("vs apriori", cell.comparison.against_apriori.speedup),
                            ("vs dhp", cell.comparison.against_dhp.speedup),
                        ],
                    )
                )
        return grouped_bar_chart(
            groups,
            title=f"measured FUP speedup (engine: {engine})",
            value_format="{:.2f}x",
        )

    def as_json(self) -> dict[str, object]:
        """The ``BENCH_reproduction.json`` payload."""
        return {
            "benchmark": "paper_reproduction",
            "matrix": self.matrix.describe(),
            "database_size": self.database_size,
            "cpus": os.cpu_count(),
            "rows": [row for cell in self.cells for row in cell.rows()],
        }

    def write_json(self, path: str | Path) -> Path:
        """Write :meth:`as_json` to *path* (pretty-printed, trailing newline)."""
        path = Path(path)
        path.write_text(json.dumps(self.as_json(), indent=2) + "\n", encoding="ascii")
        return path


# --------------------------------------------------------------------- #
# Docs embedding
# --------------------------------------------------------------------- #
def embed_generated_block(content: str, generated: str) -> str:
    """Replace the marker-delimited block of *content* with *generated*.

    >>> doc = "intro\\n" + DOCS_BEGIN + "\\nold\\n" + DOCS_END + "\\noutro"
    >>> DOCS_BEGIN + "\\nnew\\n" + DOCS_END in embed_generated_block(doc, "new")
    True
    """
    try:
        head, rest = content.split(DOCS_BEGIN, 1)
        _, tail = rest.split(DOCS_END, 1)
    except ValueError:
        raise ExperimentError(
            f"docs file lacks the {DOCS_BEGIN} ... {DOCS_END} marker pair"
        ) from None
    return f"{head}{DOCS_BEGIN}\n{generated}\n{DOCS_END}{tail}"


def first_divergence(committed: str, regenerated: str) -> str:
    """Name the first line where two should-be-identical texts part ways.

    Shared by every docs drift check (the CLI-reference check and the
    generated-tables check) so their reporting cannot drift apart.

    >>> print(first_divergence("a\\nb", "a\\nc"))
    first divergence at line 2:
      committed: 'b'
      regenerated: 'c'
    """
    committed_lines, fresh_lines = committed.splitlines(), regenerated.splitlines()
    for index, (have, want) in enumerate(zip(committed_lines, fresh_lines, strict=False)):
        if have != want:
            return (
                f"first divergence at line {index + 1}:\n"
                f"  committed: {have!r}\n"
                f"  regenerated: {want!r}"
            )
    return (
        f"length changed: committed {len(committed_lines)} line(s), "
        f"regenerated {len(fresh_lines)}"
    )


def generated_block_drift(content: str, generated: str) -> str | None:
    """Drift between *content*'s generated block and *generated*, if any.

    Returns ``None`` when the committed block is byte-identical to the fresh
    text, otherwise a short summary naming the first divergence.
    """
    if embed_generated_block(content, generated) == content:
        return None
    committed = content.split(DOCS_BEGIN, 1)[1].split(DOCS_END, 1)[0].strip("\n")
    return first_divergence(committed, generated.strip("\n"))
