"""Command-line interface for the library.

The CLI covers the workflows a user of the original system would run from a
shell, each as a subcommand:

``generate``
    Produce a synthetic ``Tx.Iy.Dm.dn`` workload (Table 1 parameters) and
    write the database and increment to files.
``mine``
    Mine the large itemsets (and optionally the rules) of a transaction file
    with Apriori or DHP and write the itemsets to a state file.
``update``
    Apply an increment file to a database file with FUP, starting from a
    previously saved state file, and report what changed.
``rules``
    Derive the strong association rules from a saved itemset state file.
``compare``
    Run the paper's three-way comparison (FUP vs. re-running Apriori and DHP)
    on a database + increment pair and print the Figure-2/3 style numbers.
``maintain``
    Drive a multi-batch maintenance session: mine the database, split the
    increment (and, optionally, a deletion file) into ``--batches`` update
    batches, apply them one by one through the :class:`RuleMaintainer` and
    print the per-batch cost and state churn — the same scenario the
    maintenance-session benchmark measures, against any workload.
``reproduce``
    Run the declarative paper-reproduction experiment matrix (FUP/FUP2 vs.
    re-running Apriori/DHP across increment sizes × support thresholds ×
    counting engines), print the speedup tables and charts, write
    ``BENCH_reproduction.json``, and maintain the generated block of
    ``docs/reproduction.md`` (``--update-docs`` / ``--check-docs``).
``docs``
    Render the CLI reference (``docs/cli.md``) from this very argparse tree,
    or ``--check`` the committed file for drift (the CI docs job does).
``serve``
    Serve the maintained rules over HTTP (``/rules``, ``/recommend``,
    ``/itemset``, ``/health``): either mine a transaction file and serve the
    result, or serve from a durable session directory — polling it (without
    the writer lock) so batches applied by other processes show up as new
    snapshot versions while the server keeps answering.  The front end is
    one asyncio event loop: keep-alive + batched ``POST /recommend``, a
    version-keyed response cache via ``--cache-size``, per-client
    token-bucket rate limiting via ``--rate-limit`` / ``--rate-burst``, and
    bounded-connection backpressure via ``--max-connections``.
``snapshot inspect | migrate``
    Operate on binary snapshot files: ``inspect`` prints the header fields of
    a v1 or v2 snapshot without loading the transactions (exit 2 on a corrupt
    or unrecognised file); ``migrate`` rewrites a v1 record-stream snapshot as
    the memory-mappable v2 format with the lane section included, so serving
    tiers reopen it in O(1).
``ingest``
    Stream intake events (JSONL or CSV: client key + operation +
    transaction) into an existing session with idempotent at-least-once
    delivery: events are micro-batched on count/time watermarks, each key
    is applied at most once (deduplicated through the durable intake
    ledger), and a crashed producer can simply replay its whole stream.
    Reads a file, stdin, or — with ``--follow`` — a file another process
    is appending to, tolerating a torn final record.
``pipeline``
    Compose ingest → maintain → serve over one session directory: the same
    intake loop, with the rule store subscribed to the session's
    maintainer so every applied micro-batch republishes the served
    snapshot immediately (no polling lag), and the HTTP front end answering
    ``/rules``, ``/recommend`` and ``/health`` the whole time.
``session init | apply | status | checkpoint``
    The durable flavour of ``maintain``: a
    :class:`~repro.core.session.MaintenanceSession` persisted to a session
    directory.  ``init`` mines a database into a fresh session; ``apply``
    reopens the session (recovering from any crash by strict journal
    replay), applies insertion/deletion files in batches and exits —
    process death between invocations loses nothing; ``status`` reports the
    on-disk state without replaying; ``checkpoint`` compacts the journal
    into a fresh snapshot.

All files use the plain-text transaction format (one transaction per line,
items as space-separated integers), so the CLI interoperates with the common
frequent-itemset benchmark datasets.  Itemset state files are JSON.

Run ``python -m repro.cli --help`` for the full usage.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path
from typing import Callable, Iterable, Sequence

from . import __version__
from .core.fup import FupUpdater
from .core.maintenance import MaintenanceReport, RuleMaintainer
from .core.options import FupOptions
from .core.policy import parse_policy
from .core.session import (
    DEFAULT_CHECKPOINT_INTERVAL,
    MaintenanceSession,
    load_state,
    save_state,
)
from .datagen.synthetic import SyntheticConfig, SyntheticDataGenerator
from .db.store import (
    inspect_snapshot,
    load_database,
    migrate_snapshot,
    save_database,
)
from .db.transaction_db import shard_bounds
from .db.update import UpdateBatch
from .errors import ReproError
from .harness.reporting import format_table
from .ingest import DEFAULT_BATCH_EVENTS, FORMAT_NAMES
from .harness.runner import compare_update_strategies
from .mining.apriori import AprioriMiner
from .mining.backends import BACKEND_NAMES, MiningOptions
from .mining.dhp import DhpMiner, DhpOptions
from .mining.rules import generate_rules
from .serve.async_server import DEFAULT_MAX_CONNECTIONS
from .serve.cache import DEFAULT_CACHE_SIZE

__all__ = ["main", "build_parser"]


# save_state / load_state live in repro.core.session; re-exported here
# because the state files are a CLI-facing format.


def _batched_updates(insertions, deletions, batches, label):
    """Split insertion/deletion databases into update batches.

    Each side is sliced into *batches* balanced contiguous chunks (via
    :func:`shard_bounds`); *label* maps the batch index to its label.  Shared
    by ``maintain`` and ``session apply`` so their splitting semantics cannot
    drift apart.
    """
    insert_bounds = shard_bounds(len(insertions), batches) if insertions else []
    delete_bounds = shard_bounds(len(deletions), batches) if deletions else []
    for index in range(max(len(insert_bounds), len(delete_bounds))):
        yield UpdateBatch.from_iterables(
            insertions=(
                insertions.transactions()[slice(*insert_bounds[index])]
                if index < len(insert_bounds)
                else ()
            ),
            deletions=(
                deletions.transactions()[slice(*delete_bounds[index])]
                if index < len(delete_bounds)
                else ()
            ),
            label=label(index),
        )


# --------------------------------------------------------------------- #
# Subcommand implementations
# --------------------------------------------------------------------- #
def _cmd_generate(args: argparse.Namespace) -> int:
    config = SyntheticConfig(
        database_size=args.database_size,
        increment_size=args.increment_size,
        mean_transaction_size=args.transaction_size,
        mean_pattern_size=args.pattern_size,
        pattern_count=args.patterns,
        item_count=args.items,
        seed=args.seed,
    )
    original, increment = SyntheticDataGenerator(config).generate()
    save_database(original, args.database)
    print(f"wrote {len(original)} transactions to {args.database}")
    if args.increment:
        save_database(increment, args.increment)
        print(f"wrote {len(increment)} transactions to {args.increment}")
    return 0


def _mining_options(args: argparse.Namespace) -> MiningOptions:
    """The engine selection of the shared --backend flag."""
    return MiningOptions(backend=args.backend)


def _fup_options(args: argparse.Namespace) -> FupOptions:
    """The same engine selection as FUP feature switches."""
    return FupOptions.from_mining(_mining_options(args))


def _make_miner(name: str, min_support: float, mining: MiningOptions):
    if name == "dhp":
        return DhpMiner(min_support, options=DhpOptions.from_mining(mining))
    return AprioriMiner(min_support, options=mining)


def _cmd_mine(args: argparse.Namespace) -> int:
    database = load_database(args.database)
    result = _make_miner(
        args.algorithm, args.min_support, _mining_options(args)
    ).mine(database)
    print(
        f"{result.algorithm}: {len(result.lattice)} large itemsets "
        f"(max size {result.lattice.max_size()}) from {len(database)} transactions "
        f"in {result.elapsed_seconds:.3f}s"
    )
    if args.state:
        save_state(result, args.state)
        print(f"wrote itemset state to {args.state}")
    if args.min_confidence is not None:
        rules = generate_rules(result.lattice, args.min_confidence)
        print(f"{len(rules)} strong rules at confidence >= {args.min_confidence}")
        for rule in rules[: args.top]:
            print(f"  {rule}")
    return 0


def _cmd_update(args: argparse.Namespace) -> int:
    original = load_database(args.database)
    increment = load_database(args.increment)
    lattice, min_support = load_state(args.state)
    options = _fup_options(args)
    result = FupUpdater(min_support, options=options).update(original, lattice, increment)

    before = set(lattice.itemsets())
    after = set(result.lattice.itemsets())
    print(
        f"fup: updated {len(original)} + {len(increment)} transactions in "
        f"{result.elapsed_seconds:.3f}s; {len(result.lattice)} large itemsets "
        f"({len(after - before)} new, {len(before - after)} no longer large)"
    )
    if args.out_state:
        save_state(result, args.out_state)
        print(f"wrote updated itemset state to {args.out_state}")
    if args.out_database:
        save_database(original.concatenate(increment), args.out_database)
        print(f"wrote updated database to {args.out_database}")
    return 0


def _session_policy_overrides(session, args: argparse.Namespace) -> None:
    """Apply a ``--policy`` override to an opened session.

    Left alone, the session keeps the policy its manifest records; a passed
    flag durably switches it (``--policy unbounded`` resets the policy).
    """
    if args.policy is not None:
        session.set_policy(parse_policy(args.policy))


def _apply_batches(
    apply: Callable[[UpdateBatch], MaintenanceReport],
    batches: Iterable[UpdateBatch],
    column: str,
    key: Callable[[MaintenanceReport], object],
) -> tuple[list[dict[str, object]], float, int]:
    """Apply *batches* one by one, timing each (``maintain`` and ``session apply``).

    Returns the table rows (first column *column*, valued ``key(report)``),
    the total apply seconds and the transactions the policy evicted.
    """
    rows: list[dict[str, object]] = []
    total_seconds = 0.0
    evicted = 0
    for batch in batches:
        began = time.perf_counter()
        report = apply(batch)
        seconds = time.perf_counter() - began
        total_seconds += seconds
        evicted += report.evicted_transactions
        rows.append(
            {
                column: key(report),
                "algorithm": report.algorithm,
                "seconds": round(seconds, 4),
                "size": report.database_size,
                "itemsets +/-": f"+{len(report.itemsets_added)}/-{len(report.itemsets_removed)}",
                "rules +/-/~": f"+{len(report.rules_added)}/-{len(report.rules_removed)}"
                f"/~{len(report.rules_updated)}",
            }
        )
    return rows, total_seconds, evicted


def _print_policy_summary(maintainer: RuleMaintainer, evicted: int) -> None:
    """One policy line after a maintain or apply run (none when unbounded)."""
    if maintainer.policy.name != "unbounded":
        line = f"policy: {maintainer.policy.describe()}"
        if evicted:
            line += f", {evicted} transaction(s) evicted"
        print(line)


def _cmd_maintain(args: argparse.Namespace) -> int:
    original = load_database(args.database)
    increment = load_database(args.increment)
    deletions = load_database(args.deletions) if args.deletions else None

    maintainer = RuleMaintainer(
        args.min_support,
        args.min_confidence,
        miner=args.miner,
        fup_options=_fup_options(args),
        policy=parse_policy(args.policy),
    )
    began = time.perf_counter()
    maintainer.initialise(original)
    initial_seconds = time.perf_counter() - began

    rows, total_seconds, evicted = _apply_batches(
        maintainer.apply,
        _batched_updates(increment, deletions, args.batches, label=lambda index: f"batch-{index}"),
        "batch",
        lambda report: report.batch_label,
    )
    print(
        format_table(
            rows,
            title=(
                f"maintenance session: {len(rows)} batches over {args.database} "
                f"(initial {args.miner} mine: {initial_seconds:.3f}s)"
            ),
        )
    )
    print(
        f"applied {maintainer.update_log.total_insertions} insertions and "
        f"{maintainer.update_log.total_deletions} deletions in {total_seconds:.3f}s; "
        f"{len(maintainer.large_itemsets)} large itemsets, {len(maintainer.rules)} rules"
    )
    _print_policy_summary(maintainer, evicted)
    if args.out_state:
        save_state(maintainer.result, args.out_state)
        print(f"wrote final itemset state to {args.out_state}")
    return 0


def _cmd_session_init(args: argparse.Namespace) -> int:
    database = load_database(args.database)
    with MaintenanceSession.create(
        args.session_dir,
        database,
        min_support=args.min_support,
        min_confidence=args.min_confidence,
        miner=args.miner,
        fup_options=_fup_options(args),
        checkpoint_interval=args.checkpoint_interval,
        policy=parse_policy(args.policy),
    ) as session:
        status = session.status()
    print(
        f"initialised session in {args.session_dir}: {status.database_size} "
        f"transactions, {status.itemsets} large itemsets, {status.rules} rules "
        f"(checkpoint every {status.checkpoint_interval} batches)"
    )
    if status.policy != "unbounded":
        print(f"policy: {status.policy}")
    return 0


def _cmd_session_apply(args: argparse.Namespace) -> int:
    insertions = load_database(args.insertions) if args.insertions else None
    deletions = load_database(args.deletions) if args.deletions else None
    if insertions is None and deletions is None:
        print("error: session apply needs --insertions and/or --deletions", file=sys.stderr)
        return 2
    with MaintenanceSession.open(args.session_dir) as session:
        recovered = session.pending_batches
        _session_policy_overrides(session, args)
        start_seq = session.applied_seq
        rows, total_seconds, evicted = _apply_batches(
            session.apply,
            _batched_updates(
                insertions,
                deletions,
                args.batches,
                label=lambda index: args.label or f"batch-{start_seq + index + 1}",
            ),
            "seq",
            lambda report: session.applied_seq,
        )
        status = session.status()
        maintainer = session.maintainer
    print(
        format_table(
            rows,
            title=(
                f"session {args.session_dir}: applied {len(rows)} batch(es) "
                f"in {total_seconds:.3f}s (journal replayed {recovered} on open)"
            ),
        )
    )
    print(
        f"now at batch {status.applied_seq} (checkpoint {status.checkpoint_seq}, "
        f"{status.pending_batches} journaled); {status.database_size} transactions, "
        f"{status.itemsets} itemsets, {status.rules} rules"
    )
    _print_policy_summary(maintainer, evicted)
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import threading

    from .serve import AsyncRuleServer, RuleStore, SessionFeed

    if bool(args.session) == bool(args.database):
        print(
            "error: serve needs exactly one of --session DIR or a database file",
            file=sys.stderr,
        )
        return 2
    if args.rate_burst is not None and args.rate_limit is None:
        print("error: --rate-burst needs --rate-limit", file=sys.stderr)
        return 2
    if args.cache_size < 0:
        print(f"error: --cache-size must be >= 0, got {args.cache_size}", file=sys.stderr)
        return 2
    if args.rate_limit is not None and args.rate_limit <= 0:
        print(f"error: --rate-limit must be positive, got {args.rate_limit}", file=sys.stderr)
        return 2
    if args.rate_burst is not None and args.rate_burst < 1:
        print(f"error: --rate-burst must be >= 1, got {args.rate_burst}", file=sys.stderr)
        return 2

    store = RuleStore()
    feed = None
    if args.session:
        interval = 1.0 if args.refresh is None else args.refresh
        if interval <= 0:
            print(
                f"error: --refresh must be positive, got {args.refresh}",
                file=sys.stderr,
            )
            return 2
        # Session mode serves the configuration the session manifest records;
        # silently ignoring mining flags would make re-thresholding *look*
        # like it worked.  All these flags default to None, so any explicit
        # use — even at a flag's database-mode default value — is caught.
        ignored = [
            flag
            for flag, value in (
                ("--min-support", args.min_support),
                ("--min-confidence", args.min_confidence),
                ("--miner", args.miner),
                ("--backend", args.backend),
            )
            if value is not None
        ]
        if ignored:
            print(
                f"error: {', '.join(ignored)} only apply when mining a database "
                f"file; --session serves the thresholds and engine recorded in "
                f"the session manifest",
                file=sys.stderr,
            )
            return 2
        feed = SessionFeed(store, args.session, interval=interval)
        # The feed's first tick does the initial publication (and records the
        # freshness marker, so its polling loop does not redo the recovery).
        # One retry covers the transient window where the read races a
        # writer's checkpoint commit — the same race the polling loop
        # tolerates by design; a persistent failure raises the real
        # diagnosis, which main() turns into a clean CLI error.
        try:
            feed.refresh(strict=True)
        except (ReproError, OSError):
            time.sleep(min(interval, 0.2))
            try:
                feed.refresh(strict=True)
            except OSError as exc:
                # ReproError falls through to main()'s handler; a raw
                # filesystem error (unreadable directory) gets the same
                # clean exit-2 treatment here.
                print(
                    f"error: cannot read session {args.session}: {exc}",
                    file=sys.stderr,
                )
                return 2
    else:
        if args.refresh is not None:
            print(
                "error: --refresh only applies with --session (database mode "
                "serves one mined state)",
                file=sys.stderr,
            )
            return 2
        if args.min_support is None:
            print("error: serving a database file needs --min-support", file=sys.stderr)
            return 2
        maintainer = RuleMaintainer(
            args.min_support,
            0.5 if args.min_confidence is None else args.min_confidence,
            miner=args.miner or "apriori",
            fup_options=FupOptions(backend=args.backend or "vertical"),
        )
        store.attach(maintainer)  # publishes on initialise (and any later apply)
        maintainer.initialise(load_database(args.database))

    try:
        server = AsyncRuleServer(
            store,
            host=args.host,
            port=args.port,
            cache_size=args.cache_size,
            rate_limit=args.rate_limit,
            rate_burst=args.rate_burst,
            max_connections=args.max_connections,
        )
    except OSError as exc:
        print(f"error: cannot serve on {args.host}:{args.port}: {exc}", file=sys.stderr)
        return 2
    if feed is not None:
        feed.start()
    print(
        f"serving rules on {server.url} ({store.snapshot().describe()})",
        flush=True,
    )
    timer = None
    if args.max_seconds is not None:
        timer = threading.Timer(args.max_seconds, server.shutdown)
        # Daemonised so an early Ctrl-C exits immediately instead of the
        # interpreter waiting out the rest of the timeout.
        timer.daemon = True
        timer.start()
    try:
        server.serve_forever()
    except KeyboardInterrupt:  # pragma: no cover - interactive shutdown
        pass
    finally:
        if timer is not None:
            timer.cancel()
        server.close()
        if feed is not None:
            feed.stop()
    return 0


def _check_ingest_flags(args: argparse.Namespace) -> int:
    """Shared flag validation for ``ingest`` and ``pipeline`` (0 ok, 2 bad)."""
    if args.source == "-" and getattr(args, "follow", False):
        print(
            "error: --follow needs a file source (stdin already blocks until "
            "the producer closes the pipe)",
            file=sys.stderr,
        )
        return 2
    if args.batch_seconds is not None and args.batch_seconds <= 0:
        print(
            f"error: --batch-seconds must be positive, got {args.batch_seconds}",
            file=sys.stderr,
        )
        return 2
    if args.poll <= 0:
        print(f"error: --poll must be positive, got {args.poll}", file=sys.stderr)
        return 2
    return 0


def _print_intake_batch(report) -> None:
    line = (
        f"batch {report.seq}: {report.applied} applied, "
        f"{report.duplicates} duplicate(s) dropped"
    )
    evicted = getattr(report.report, "evicted_transactions", 0)
    if evicted:
        line += f", {evicted} evicted"
    print(line, flush=True)


def _print_ingest_summary(summary, status) -> None:
    print(
        f"ingested {summary.events} event(s) in {summary.batches} batch(es): "
        f"{summary.applied} applied, {summary.duplicates} deduplicated"
        + (f", {summary.recovered_keys} key(s) recovered on open" if summary.recovered_keys else "")
        + (f", {summary.torn_tail} torn byte(s) pending" if summary.torn_tail else "")
    )
    print(
        f"now at batch {status.applied_seq} (checkpoint {status.checkpoint_seq}); "
        f"{status.database_size} transactions, {status.itemsets} itemsets, "
        f"{status.rules} rules"
    )


def _cmd_ingest(args: argparse.Namespace) -> int:
    from .ingest import MicroBatcher, open_event_stream, run_ingest

    bad = _check_ingest_flags(args)
    if bad:
        return bad
    with open_event_stream(args.source, args.format) as reader:
        with MaintenanceSession.open(args.session_dir) as session:
            _session_policy_overrides(session, args)
            batcher = MicroBatcher(
                max_events=args.batch_size, max_seconds=args.batch_seconds
            )
            summary = run_ingest(
                session,
                reader,
                batcher,
                follow=args.follow,
                poll_interval=args.poll,
                max_seconds=args.max_seconds,
                on_batch=_print_intake_batch,
            )
            status = session.status()
    _print_ingest_summary(summary, status)
    return 0


def _cmd_pipeline(args: argparse.Namespace) -> int:
    from .ingest import MicroBatcher, open_event_stream, run_ingest
    from .serve import AsyncRuleServer, RuleStore

    args.follow = not args.once
    bad = _check_ingest_flags(args)
    if bad:
        return bad
    with open_event_stream(args.source, args.format) as reader:
        with MaintenanceSession.open(args.session_dir) as session:
            _session_policy_overrides(session, args)
            # In-process composition: the store subscribes to the session's
            # maintainer, so every applied micro-batch republishes the rule
            # snapshot immediately — no SessionFeed polling loop, no
            # freshness lag between the writer and the server.
            store = RuleStore()
            store.attach(session.maintainer)
            try:
                server = AsyncRuleServer(store, host=args.host, port=args.port)
            except OSError as exc:
                print(
                    f"error: cannot serve on {args.host}:{args.port}: {exc}",
                    file=sys.stderr,
                )
                return 2
            server.start()
            print(
                f"pipeline serving on {server.url} "
                f"({store.snapshot().describe()}); ingesting {args.source}",
                flush=True,
            )
            try:
                batcher = MicroBatcher(
                    max_events=args.batch_size, max_seconds=args.batch_seconds
                )
                summary = run_ingest(
                    session,
                    reader,
                    batcher,
                    follow=args.follow,
                    poll_interval=args.poll,
                    max_seconds=args.max_seconds,
                    on_batch=_print_intake_batch,
                )
                status = session.status()
            except KeyboardInterrupt:  # pragma: no cover - interactive shutdown
                return 0
            finally:
                server.close()
    _print_ingest_summary(summary, status)
    return 0


def _cmd_session_status(args: argparse.Namespace) -> int:
    status = MaintenanceSession.peek(args.session_dir)
    for key, value in status.as_dict().items():
        print(f"{key}: {value}")
    return 0


def _cmd_session_checkpoint(args: argparse.Namespace) -> int:
    with MaintenanceSession.open(args.session_dir) as session:
        pending = session.pending_batches
        seq = session.checkpoint()
    print(
        f"checkpointed {args.session_dir} at batch {seq} "
        f"({pending} journaled batch(es) compacted into the snapshot)"
    )
    return 0


def _cmd_snapshot_inspect(args: argparse.Namespace) -> int:
    info = inspect_snapshot(Path(args.snapshot))
    for key, value in info.as_dict().items():
        print(f"{key}: {value}")
    return 0


def _cmd_snapshot_migrate(args: argparse.Namespace) -> int:
    info = migrate_snapshot(Path(args.source), Path(args.destination))
    lanes = (
        f"{info.distinct_items} item lanes x {info.lane_words} words"
        if info.lanes_present
        else "no lane section"
    )
    print(
        f"migrated {args.source} -> {args.destination} (format v{info.format_version}, "
        f"{info.transactions} transactions, {lanes}, {info.byte_size} bytes)"
    )
    return 0


def _cmd_reproduce(args: argparse.Namespace) -> int:
    from dataclasses import replace

    from .harness.experiments import (
        EngineSpec,
        ExperimentMatrix,
        embed_generated_block,
        generated_block_drift,
        run_matrix,
    )

    matrix = ExperimentMatrix.quick() if args.quick else ExperimentMatrix()
    overrides: dict[str, object] = {}
    if args.workload:
        overrides["workload"] = args.workload
    if args.scale is not None:
        overrides["scale"] = args.scale
    if args.seed is not None:
        overrides["seed"] = args.seed
    try:
        if args.supports:
            overrides["supports"] = tuple(float(s) for s in args.supports.split(","))
        if args.increments:
            overrides["increment_fractions"] = tuple(
                float(f) for f in args.increments.split(",")
            )
    except ValueError as exc:
        raise ReproError(
            f"--supports/--increments must be comma-separated numbers: {exc}"
        ) from None
    if args.engines:
        overrides["engines"] = tuple(
            EngineSpec.parse(spec) for spec in args.engines.split(",")
        )
    if args.policies:
        overrides["policies"] = tuple(
            name.strip() for name in args.policies.split(",") if name.strip()
        )
    if overrides:
        matrix = replace(matrix, **overrides, label="custom")

    report = run_matrix(matrix, progress=lambda message: print(f"  {message}"))
    print()
    print(report.timing_tables())
    print()
    print(report.timing_chart())
    print()
    print(report.work_tables())

    if args.out:
        report.write_json(args.out)
        print(f"\nwrote machine-readable results to {args.out}")
    if args.update_docs:
        path = Path(args.update_docs)
        path.write_text(
            embed_generated_block(
                _read_docs_file(path), report.deterministic_markdown()
            ),
            encoding="utf-8",
        )
        print(f"updated the generated block of {path}")
    if args.check_docs:
        path = Path(args.check_docs)
        drift = generated_block_drift(
            _read_docs_file(path), report.deterministic_markdown()
        )
        if drift:
            flags = matrix.cli_arguments()
            fix_command = f"repro reproduce {flags} --update-docs {path}".replace(
                "  ", " "
            )
            print(
                f"error: {path} drifted from the regenerated tables — run "
                f"`{fix_command}`\n{drift}",
                file=sys.stderr,
            )
            return 1
        print(f"{path} is in sync with the regenerated tables")
    return 0


# --------------------------------------------------------------------- #
# CLI reference rendering (the `repro docs` helper behind docs/cli.md)
# --------------------------------------------------------------------- #
def _table_cell(text: str) -> str:
    """Escape one markdown-table cell (| would split the row)."""
    return text.replace("|", "\\|")


def _flag_signature(action: argparse.Action) -> str:
    """Deterministic display form of one option (no terminal-width wrapping)."""
    if action.choices is not None:
        value = "{" + ",".join(str(choice) for choice in action.choices) + "}"
    elif action.metavar is not None:
        value = str(action.metavar)
    else:
        value = action.dest.upper()
    if action.option_strings:
        flags = ", ".join(action.option_strings)
        if action.nargs == 0:
            return f"`{flags}`"
        return f"`{flags} {value}`"
    return f"`{action.dest}`"


def _render_parser_section(
    lines: list[str], parser: argparse.ArgumentParser, command: str, help_text: str
) -> None:
    """Append one command's reference section (recursing into subcommands)."""
    subparser_actions = [
        action
        for action in parser._actions
        if isinstance(action, argparse._SubParsersAction)
    ]
    positionals = [
        action
        for action in parser._actions
        if not action.option_strings
        and not isinstance(action, argparse._SubParsersAction)
    ]
    options = [action for action in parser._actions if action.option_strings]

    lines.append(f"## `{command}`")
    lines.append("")
    description = help_text or (parser.description or "")
    if description:
        lines.append(description.strip())
        lines.append("")
    if positionals:
        lines.append("| positional | description |")
        lines.append("|---|---|")
        for action in positionals:
            lines.append(f"| {_flag_signature(action)} | {_table_cell(action.help or '')} |")
        lines.append("")
    if options:
        lines.append("| option | default | description |")
        lines.append("|---|---|---|")
        for action in options:
            if action.dest == "help":
                continue
            default = ""
            if (
                action.default is not None
                and action.default is not argparse.SUPPRESS
                and action.nargs != 0
            ):
                default = f"`{action.default}`"
            lines.append(
                f"| {_flag_signature(action)} | {default} | {_table_cell(action.help or '')} |"
            )
        lines.append("")
    for subparser_action in subparser_actions:
        helps = {
            choice.dest: choice.help or ""
            for choice in subparser_action._choices_actions
        }
        for name, subparser in subparser_action.choices.items():
            _render_parser_section(lines, subparser, f"{command} {name}", helps.get(name, ""))


def render_cli_markdown() -> str:
    """Render ``docs/cli.md`` from the live argparse tree.

    Deliberately avoids ``format_help()`` — argparse wraps its output to the
    terminal width, which would make the generated file depend on the
    environment.  Everything here derives from the parser's action metadata,
    so the same parser always renders the same bytes (which is what lets CI
    fail on drift).
    """
    parser = build_parser()
    lines = [
        "# CLI reference",
        "",
        "_Generated by `repro docs --out docs/cli.md` from the argparse tree in",
        "`src/repro/cli.py`.  Do **not** edit by hand — CI regenerates this file",
        "and fails when it drifts from the parser._",
        "",
        "Run any command with `--help` for the same information in the terminal.",
        "",
    ]
    _render_parser_section(lines, parser, "repro", "")
    return "\n".join(lines).rstrip() + "\n"


def _read_docs_file(path: Path) -> str:
    """Read a docs file for an update/check, failing as a clean CLI error."""
    try:
        return path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ReproError(f"cannot read docs file {path}: {exc}") from exc


def _cmd_docs(args: argparse.Namespace) -> int:
    from .harness.experiments import first_divergence

    rendered = render_cli_markdown()
    if args.check:
        path = Path(args.check)
        committed = _read_docs_file(path)
        if committed != rendered:
            divergence = first_divergence(committed, rendered)
            print(
                f"error: {path} drifted from the argparse tree — run "
                f"`python -m repro.cli docs --out {path}`\n{divergence}",
                file=sys.stderr,
            )
            return 1
        print(f"{path} is in sync with the argparse tree")
        return 0
    if args.out:
        Path(args.out).write_text(rendered, encoding="utf-8")
        print(f"wrote CLI reference to {args.out}")
        return 0
    print(rendered, end="")
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    from .analysis import Baseline, render_json, render_text, run_lint

    paths = [Path(entry) for entry in (args.paths or ["src"])]
    select = None
    if args.select:
        select = {
            code.strip().upper()
            for part in args.select
            for code in part.split(",")
            if code.strip()
        }
    baseline = Baseline.load(Path(args.baseline)) if args.baseline else Baseline()
    report = run_lint(paths, select=select, baseline=baseline)
    rendered = render_json(report) if args.format == "json" else render_text(report)
    if args.out:
        Path(args.out).write_text(rendered, encoding="utf-8")
        print(f"wrote lint report to {args.out}")
    else:
        print(rendered, end="")
    return 0 if report.clean else 2


def _cmd_rules(args: argparse.Namespace) -> int:
    lattice, _ = load_state(args.state)
    rules = generate_rules(lattice, args.min_confidence)
    print(f"{len(rules)} strong rules at confidence >= {args.min_confidence}")
    for rule in rules[: args.top]:
        print(f"  {rule}")
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    original = load_database(args.database)
    increment = load_database(args.increment)
    comparison = compare_update_strategies(
        original,
        increment,
        args.min_support,
        workload=Path(args.database).stem,
        mining=_mining_options(args),
    )
    rows = [
        {
            "strategy": "fup",
            "seconds": comparison.fup.elapsed_seconds,
            "candidates": comparison.fup.candidates_generated,
        },
        {
            "strategy": "apriori (re-run)",
            "seconds": comparison.apriori.elapsed_seconds,
            "candidates": comparison.apriori.candidates_generated,
        },
        {
            "strategy": "dhp (re-run)",
            "seconds": comparison.dhp.elapsed_seconds,
            "candidates": comparison.dhp.candidates_generated,
        },
    ]
    print(format_table(rows, title=f"update comparison at support {args.min_support}"))
    print(
        f"speed-up of FUP: {comparison.against_apriori.speedup:.2f}x vs Apriori, "
        f"{comparison.against_dhp.speedup:.2f}x vs DHP"
    )
    print(
        f"candidate ratio: {comparison.against_apriori.candidate_ratio:.3f} of Apriori, "
        f"{comparison.against_dhp.candidate_ratio:.3f} of DHP"
    )
    return 0 if comparison.consistent() else 1


# --------------------------------------------------------------------- #
# Parser
# --------------------------------------------------------------------- #
def build_parser() -> argparse.ArgumentParser:
    """Build the CLI argument parser (exposed for testing and docs)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Incremental maintenance of association rules (FUP, ICDE 1996).",
    )
    parser.add_argument("--version", action="version", version=f"repro {__version__}")
    commands = parser.add_subparsers(dest="command", required=True)

    def positive_int(value: str) -> int:
        number = int(value)
        if number < 1:
            raise argparse.ArgumentTypeError(f"must be a positive integer, got {number}")
        return number

    def add_backend_flags(subparser: argparse.ArgumentParser) -> None:
        subparser.add_argument(
            "--backend",
            choices=list(BACKEND_NAMES),
            default="vertical",
            help="support-counting engine (default: vertical tid-list bitmaps)",
        )

    def add_policy_flags(subparser: argparse.ArgumentParser) -> None:
        subparser.add_argument(
            "--policy",
            metavar="SPEC",
            default=None,
            help="maintenance policy: unbounded (default), window:W "
            "(sliding window of W transactions), decay:HALFLIFE "
            "(time-decayed support), or topk:K (serve only the K best rules)",
        )

    generate = commands.add_parser("generate", help="generate a synthetic Tx.Iy.Dm.dn workload")
    generate.add_argument("database", help="output file for the original database DB")
    generate.add_argument("--increment", help="output file for the increment db")
    generate.add_argument("--database-size", type=int, default=10_000, help="|D| transactions")
    generate.add_argument("--increment-size", type=int, default=1_000, help="|d| transactions")
    generate.add_argument("--transaction-size", type=float, default=10.0, help="|T| mean size")
    generate.add_argument("--pattern-size", type=float, default=4.0, help="|I| mean pattern size")
    generate.add_argument("--patterns", type=int, default=2_000, help="|L| pattern pool size")
    generate.add_argument("--items", type=int, default=1_000, help="N distinct items")
    generate.add_argument("--seed", type=int, default=19960226, help="random seed")
    generate.set_defaults(handler=_cmd_generate)

    mine = commands.add_parser("mine", help="mine large itemsets from a transaction file")
    mine.add_argument("database", help="transaction file (one transaction per line)")
    mine.add_argument("--algorithm", choices=["apriori", "dhp"], default="apriori")
    mine.add_argument("--min-support", type=float, required=True, help="relative support in (0, 1]")
    mine.add_argument("--state", help="write the itemset state (JSON) to this file")
    mine.add_argument("--min-confidence", type=float, help="also print rules at this confidence")
    mine.add_argument("--top", type=int, default=10, help="number of rules to print")
    add_backend_flags(mine)
    mine.set_defaults(handler=_cmd_mine)

    update = commands.add_parser("update", help="apply an increment with FUP")
    update.add_argument("database", help="original database file")
    update.add_argument("increment", help="increment file")
    update.add_argument("state", help="itemset state file produced by 'mine'")
    update.add_argument("--out-state", help="write the updated itemset state here")
    update.add_argument("--out-database", help="write the concatenated database here")
    add_backend_flags(update)
    update.set_defaults(handler=_cmd_update)

    maintain = commands.add_parser(
        "maintain",
        help="drive a multi-batch maintenance session (mine, then apply updates in batches)",
    )
    maintain.add_argument("database", help="original database file")
    maintain.add_argument("increment", help="insertions file, split into --batches batches")
    maintain.add_argument("--deletions", help="deletions file, split into --batches batches")
    maintain.add_argument("--min-support", type=float, required=True)
    maintain.add_argument("--min-confidence", type=float, default=0.5)
    maintain.add_argument("--batches", type=positive_int, default=1, help="update batches to apply")
    maintain.add_argument("--miner", choices=["apriori", "dhp"], default="apriori")
    maintain.add_argument("--out-state", help="write the final itemset state here")
    add_backend_flags(maintain)
    add_policy_flags(maintain)
    maintain.set_defaults(handler=_cmd_maintain)

    serve = commands.add_parser(
        "serve",
        help="serve maintained rules over HTTP (query API + health endpoint)",
    )
    serve.add_argument(
        "database",
        nargs="?",
        help="transaction file to mine and serve (or use --session instead)",
    )
    serve.add_argument(
        "--session",
        metavar="DIR",
        help="serve from this durable session directory (lock-free; polled "
        "for batches applied by other processes)",
    )
    # Database-mode flags default to None (not their effective values) so
    # session mode can tell "explicitly passed" from "left alone" and refuse
    # flags the session manifest would silently override.
    serve.add_argument(
        "--min-support", type=float, help="relative support (database mode)"
    )
    serve.add_argument(
        "--min-confidence",
        type=float,
        help="rule confidence (database mode; default 0.5)",
    )
    serve.add_argument(
        "--miner",
        choices=["apriori", "dhp"],
        help="initial-mine algorithm (database mode; default apriori)",
    )
    serve.add_argument(
        "--backend",
        choices=list(BACKEND_NAMES),
        help="support-counting engine (database mode; default vertical)",
    )
    serve.add_argument("--host", default="127.0.0.1", help="bind address")
    serve.add_argument(
        "--port", type=int, default=8000, help="bind port (0 picks an ephemeral port)"
    )
    serve.add_argument(
        "--cache-size",
        type=int,
        default=DEFAULT_CACHE_SIZE,
        metavar="N",
        help="response-cache entry bound (0 disables caching)",
    )
    serve.add_argument(
        "--rate-limit",
        type=float,
        metavar="R",
        help="per-client request rate in requests/second; over-limit "
        "requests get 429 + Retry-After (default off)",
    )
    serve.add_argument(
        "--rate-burst",
        type=float,
        metavar="B",
        help="token-bucket burst capacity (default: one second of "
        "--rate-limit, at least 1)",
    )
    serve.add_argument(
        "--max-connections",
        type=positive_int,
        default=DEFAULT_MAX_CONNECTIONS,
        metavar="M",
        help="concurrent-connection bound; excess connections are rejected "
        "immediately with 503",
    )
    serve.add_argument(
        "--refresh",
        type=float,
        metavar="SECONDS",
        help="freshness poll interval (session mode; default 1.0)",
    )
    serve.add_argument(
        "--max-seconds",
        type=float,
        default=None,
        metavar="SECONDS",
        help="shut down after this long (smoke tests; default: serve until Ctrl-C)",
    )
    serve.set_defaults(handler=_cmd_serve)

    session = commands.add_parser(
        "session",
        help="durable maintenance sessions (crash-safe, resumable across processes)",
    )
    session_commands = session.add_subparsers(dest="session_command", required=True)

    session_init = session_commands.add_parser(
        "init", help="mine a database into a fresh session directory"
    )
    session_init.add_argument("session_dir", help="session directory (created if missing)")
    session_init.add_argument("database", help="transaction file to mine")
    session_init.add_argument("--min-support", type=float, required=True)
    session_init.add_argument("--min-confidence", type=float, default=0.5)
    session_init.add_argument("--miner", choices=["apriori", "dhp"], default="apriori")
    session_init.add_argument(
        "--checkpoint-interval",
        type=positive_int,
        default=DEFAULT_CHECKPOINT_INTERVAL,
        help="compact the journal into a fresh snapshot every N batches",
    )
    add_backend_flags(session_init)
    add_policy_flags(session_init)
    session_init.set_defaults(handler=_cmd_session_init)

    session_apply = session_commands.add_parser(
        "apply", help="apply insertion/deletion files to a session in batches"
    )
    session_apply.add_argument("session_dir", help="existing session directory")
    session_apply.add_argument("--insertions", help="insertions file, split into --batches")
    session_apply.add_argument("--deletions", help="deletions file, split into --batches")
    session_apply.add_argument(
        "--batches", type=positive_int, default=1, help="update batches to apply"
    )
    session_apply.add_argument("--label", help="label recorded on the journaled batches")
    add_policy_flags(session_apply)
    session_apply.set_defaults(handler=_cmd_session_apply)

    session_status = session_commands.add_parser(
        "status", help="report a session's on-disk state (no journal replay)"
    )
    session_status.add_argument("session_dir", help="existing session directory")
    session_status.set_defaults(handler=_cmd_session_status)

    session_checkpoint = session_commands.add_parser(
        "checkpoint", help="compact the journal into a fresh snapshot"
    )
    session_checkpoint.add_argument("session_dir", help="existing session directory")
    session_checkpoint.set_defaults(handler=_cmd_session_checkpoint)

    def add_ingest_flags(subparser: argparse.ArgumentParser) -> None:
        subparser.add_argument("session_dir", help="existing session directory")
        subparser.add_argument(
            "--source",
            default="-",
            metavar="FILE",
            help="event-stream file to read, or - for stdin (default)",
        )
        subparser.add_argument(
            "--format",
            choices=list(FORMAT_NAMES),
            help="record format (default: sniffed from the file suffix; "
            "jsonl on stdin)",
        )
        subparser.add_argument(
            "--batch-size",
            type=positive_int,
            default=DEFAULT_BATCH_EVENTS,
            metavar="N",
            help="count watermark: cut a batch every N events",
        )
        subparser.add_argument(
            "--batch-seconds",
            type=float,
            metavar="SECONDS",
            help="time watermark: cut a partial batch once its first event "
            "is this old (default: count watermark only)",
        )
        subparser.add_argument(
            "--poll",
            type=float,
            default=0.2,
            metavar="SECONDS",
            help="follow-mode interval between stream re-polls",
        )
        subparser.add_argument(
            "--max-seconds",
            type=float,
            metavar="SECONDS",
            help="stop after this long (smoke tests; default: run to stream "
            "end, or forever with --follow)",
        )
        add_policy_flags(subparser)

    ingest = commands.add_parser(
        "ingest",
        help="stream intake events into a session (idempotent, at-least-once)",
    )
    add_ingest_flags(ingest)
    ingest.add_argument(
        "--follow",
        action="store_true",
        help="keep polling the source file for appended records instead of "
        "stopping at end of stream",
    )
    ingest.set_defaults(handler=_cmd_ingest)

    pipeline = commands.add_parser(
        "pipeline",
        help="compose ingest + maintain + serve over one session directory",
    )
    add_ingest_flags(pipeline)
    pipeline.add_argument(
        "--once",
        action="store_true",
        help="stop when the stream is exhausted (default: follow the file "
        "for appended records)",
    )
    pipeline.add_argument("--host", default="127.0.0.1", help="bind address")
    pipeline.add_argument(
        "--port", type=int, default=8000, help="bind port (0 picks an ephemeral port)"
    )
    pipeline.set_defaults(handler=_cmd_pipeline)

    snapshot = commands.add_parser(
        "snapshot",
        help="inspect or migrate binary snapshot files (v1 record stream, "
        "v2 memory-mappable)",
    )
    snapshot_commands = snapshot.add_subparsers(dest="snapshot_command", required=True)

    snapshot_inspect = snapshot_commands.add_parser(
        "inspect",
        help="print a snapshot's header fields without loading the "
        "transactions (exit 2 on a corrupt or unrecognised file)",
    )
    snapshot_inspect.add_argument("snapshot", help="snapshot file to inspect")
    snapshot_inspect.set_defaults(handler=_cmd_snapshot_inspect)

    snapshot_migrate = snapshot_commands.add_parser(
        "migrate",
        help="rewrite a v1 snapshot as the memory-mappable v2 format "
        "(lane section included, so reopening is O(1))",
    )
    snapshot_migrate.add_argument("source", help="v1 snapshot file to migrate")
    snapshot_migrate.add_argument("destination", help="output v2 snapshot file")
    snapshot_migrate.set_defaults(handler=_cmd_snapshot_migrate)

    rules = commands.add_parser("rules", help="derive strong rules from a saved state")
    rules.add_argument("state", help="itemset state file")
    rules.add_argument("--min-confidence", type=float, required=True)
    rules.add_argument("--top", type=int, default=20)
    rules.set_defaults(handler=_cmd_rules)

    compare = commands.add_parser(
        "compare", help="compare FUP against re-running Apriori/DHP on an update"
    )
    compare.add_argument("database", help="original database file")
    compare.add_argument("increment", help="increment file")
    compare.add_argument("--min-support", type=float, required=True)
    add_backend_flags(compare)
    compare.set_defaults(handler=_cmd_compare)

    reproduce = commands.add_parser(
        "reproduce",
        help="run the paper-reproduction experiment matrix "
        "(increment size x support x algorithm x engine x policy)",
    )
    reproduce.add_argument(
        "--quick",
        action="store_true",
        help="run the small CI preset instead of the full default matrix",
    )
    reproduce.add_argument("--workload", help="Tx.Iy.Dm.dn workload name override")
    reproduce.add_argument(
        "--scale", type=float, default=None, help="workload scale factor override"
    )
    reproduce.add_argument(
        "--seed", type=int, default=None, help="workload generator seed override"
    )
    reproduce.add_argument(
        "--supports", help="comma-separated support thresholds (e.g. 0.03,0.02)"
    )
    reproduce.add_argument(
        "--increments",
        help="comma-separated increment fractions of the generated d (e.g. 0.5,1.0)",
    )
    reproduce.add_argument(
        "--engines",
        help="comma-separated counting engines (e.g. horizontal,vertical)",
    )
    reproduce.add_argument(
        "--policies",
        help="comma-separated maintenance policies to sweep: unbounded "
        "(classic DB ∪ db) and/or window (sliding window of |DB| rows, "
        "evictions riding FUP2; consistency-checked against re-mining the "
        "window)",
    )
    reproduce.add_argument(
        "--out", help="write machine-readable results (BENCH_reproduction.json) here"
    )
    reproduce.add_argument(
        "--update-docs",
        help="rewrite the generated block of this markdown file (docs/reproduction.md)",
    )
    reproduce.add_argument(
        "--check-docs",
        help="fail (exit 1) if this markdown file's generated block drifted",
    )
    reproduce.set_defaults(handler=_cmd_reproduce)

    docs = commands.add_parser(
        "docs", help="render the CLI reference (docs/cli.md) from the argparse tree"
    )
    docs.add_argument("--out", help="write the rendered markdown here")
    docs.add_argument(
        "--check", help="fail (exit 1) if this file drifted from the parser"
    )
    docs.set_defaults(handler=_cmd_docs)

    lint = commands.add_parser(
        "lint",
        help="run the project's static invariant checkers (RPR0xx rules)",
    )
    lint.add_argument(
        "paths",
        nargs="*",
        default=["src"],
        help="files or directories to scan (default: src)",
    )
    lint.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="report format (default: text)",
    )
    lint.add_argument(
        "--baseline",
        default="lint-baseline.json",
        help="grandfathered-findings file; a missing file means an empty "
        "baseline (default: lint-baseline.json)",
    )
    lint.add_argument(
        "--select",
        action="append",
        metavar="RPRNNN[,RPRNNN...]",
        help="only report these rule codes (comma-separated, repeatable)",
    )
    lint.add_argument("--out", help="write the report here instead of stdout")
    lint.set_defaults(handler=_cmd_lint)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover - exercised via tests calling main()
    sys.exit(main())
