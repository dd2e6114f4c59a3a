"""End-to-end tests for the command-line interface."""

from __future__ import annotations

import io
import json
import sys
from pathlib import Path

import pytest

from repro import (
    AprioriMiner,
    MaintenanceSession,
    TransactionDatabase,
    load_database,
    save_database,
)
from repro.cli import build_parser, load_state, main, save_state
from repro.errors import ReproError


@pytest.fixture
def workload_files(tmp_path, random_database_factory):
    """A database file, an increment file and their in-memory counterparts."""
    database = random_database_factory(transactions=300, items=20, max_size=7, seed=3)
    original = database.slice(0, 250, name="original")
    increment = database.slice(250, name="increment")
    database_path = tmp_path / "db.txt"
    increment_path = tmp_path / "incr.txt"
    save_database(original, database_path)
    save_database(increment, increment_path)
    return {
        "database_path": database_path,
        "increment_path": increment_path,
        "original": original,
        "increment": increment,
    }


class TestStateFiles:
    def test_round_trip(self, tmp_path, small_database):
        result = AprioriMiner(0.3).mine(small_database)
        path = tmp_path / "state.json"
        save_state(result, path)
        lattice, min_support = load_state(path)
        assert lattice.supports() == result.lattice.supports()
        assert lattice.database_size == len(small_database)
        assert min_support == 0.3

    def test_state_file_is_json(self, tmp_path, small_database):
        path = tmp_path / "state.json"
        save_state(AprioriMiner(0.3).mine(small_database), path)
        payload = json.loads(path.read_text())
        assert payload["format"] == "repro-itemset-state"
        assert payload["algorithm"] == "apriori"

    def test_load_rejects_other_json(self, tmp_path):
        path = tmp_path / "other.json"
        path.write_text('{"hello": "world"}')
        with pytest.raises(ReproError):
            load_state(path)


#: Subcommands that carried the partitioned engine's and the kernel
#: registry's flags, with the arguments each needs to parse otherwise.
ENGINE_FLAG_COMMANDS = {
    "mine": ["mine", "db.txt", "--min-support", "0.1"],
    "update": ["update", "db.txt", "incr.txt", "state.json"],
    "maintain": ["maintain", "db.txt", "incr.txt", "--min-support", "0.1"],
    "session-init": ["session", "init", "sess", "db.txt", "--min-support", "0.1"],
    "compare": ["compare", "db.txt", "incr.txt", "--min-support", "0.1"],
    "serve": ["serve", "db.txt", "--min-support", "0.1"],
}
RETIRED_ENGINE_FLAGS = (
    ("--shards", "4"),
    ("--executor", "processes"),
    ("--workers", "2"),
    ("--kernel", "numpy"),
)


class TestParser:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["--version"])
        assert excinfo.value.code == 0
        assert "repro" in capsys.readouterr().out

    def test_requires_a_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_mine_requires_support(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["mine", "db.txt"])

    @pytest.mark.parametrize(
        "argv",
        [
            ["mine", "db.txt", "--min-support", "0.1"],
            ["update", "db.txt", "incr.txt", "state.json"],
            ["maintain", "db.txt", "incr.txt", "--min-support", "0.1"],
            ["session", "init", "sess", "db.txt", "--min-support", "0.1"],
            ["compare", "db.txt", "incr.txt", "--min-support", "0.1"],
        ],
        ids=["mine", "update", "maintain", "session-init", "compare"],
    )
    def test_backend_defaults_to_vertical(self, argv):
        """The CLI mines with tid-list bitmaps unless told otherwise."""
        assert build_parser().parse_args(argv).backend == "vertical"

    @pytest.mark.parametrize(
        "argv", ENGINE_FLAG_COMMANDS.values(), ids=ENGINE_FLAG_COMMANDS.keys()
    )
    def test_backend_choices_are_the_engine_registry(self, argv, capsys):
        """Both kept engines parse; a retired engine name is refused by argparse."""
        parser = build_parser()
        for name in ("horizontal", "vertical"):
            assert parser.parse_args([*argv, "--backend", name]).backend == name
        with pytest.raises(SystemExit) as excinfo:
            parser.parse_args([*argv, "--backend", "partitioned"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "invalid choice" in err and "partitioned" in err

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["serve", "db.txt", "--frontend", "async"], "--frontend"),
            (["pipeline", "sess", "--frontend", "async"], "--frontend"),
            (["maintain", "db.txt", "incr.txt", "--min-support", "0.1", "--skip-check"], "--skip-check"),
            (["session", "init", "sess", "db.txt", "--min-support", "0.1", "--skip-check"], "--skip-check"),
            (["session", "apply", "sess", "--skip-check"], "--skip-check"),
            (["ingest", "sess", "--skip-check"], "--skip-check"),
            (["pipeline", "sess", "--skip-check"], "--skip-check"),
            *[
                ([*command, flag, value], flag)
                for command in ENGINE_FLAG_COMMANDS.values()
                for flag, value in RETIRED_ENGINE_FLAGS
            ],
        ],
        ids=[
            "serve-frontend",
            "pipeline-frontend",
            "maintain-skip-check",
            "session-init-skip-check",
            "session-apply-skip-check",
            "ingest-skip-check",
            "pipeline-skip-check",
            *[
                f"{name}{flag}"
                for name in ENGINE_FLAG_COMMANDS
                for flag, _ in RETIRED_ENGINE_FLAGS
            ],
        ],
    )
    def test_removed_options_are_refused(self, argv, flag, capsys):
        """Retired front ends, pre-checks and engines left no option behind."""
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(argv)
        assert excinfo.value.code == 2
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err

    def test_serve_flags_carry_the_server_defaults(self):
        from repro.serve.async_server import DEFAULT_MAX_CONNECTIONS
        from repro.serve.cache import DEFAULT_CACHE_SIZE

        args = build_parser().parse_args(["serve", "db.txt"])
        assert args.cache_size == DEFAULT_CACHE_SIZE
        assert args.max_connections == DEFAULT_MAX_CONNECTIONS
        assert args.rate_limit is None and args.rate_burst is None


class TestGenerateCommand:
    def test_generates_files_of_requested_size(self, tmp_path, capsys):
        database_path = tmp_path / "db.txt"
        increment_path = tmp_path / "incr.txt"
        code = main(
            [
                "generate",
                str(database_path),
                "--increment", str(increment_path),
                "--database-size", "200",
                "--increment-size", "40",
                "--items", "50",
                "--patterns", "30",
                "--transaction-size", "6",
                "--pattern-size", "3",
                "--seed", "9",
            ]
        )
        assert code == 0
        assert len(load_database(database_path)) == 200
        assert len(load_database(increment_path)) == 40
        assert "wrote 200 transactions" in capsys.readouterr().out

    def test_generate_without_increment_file(self, tmp_path):
        database_path = tmp_path / "db.txt"
        code = main(
            [
                "generate", str(database_path),
                "--database-size", "50", "--increment-size", "10",
                "--items", "30", "--patterns", "20",
            ]
        )
        assert code == 0
        assert database_path.exists()


class TestMineCommand:
    def test_mine_writes_state(self, tmp_path, workload_files, capsys):
        state_path = tmp_path / "state.json"
        code = main(
            [
                "mine", str(workload_files["database_path"]),
                "--min-support", "0.1",
                "--state", str(state_path),
            ]
        )
        assert code == 0
        lattice, min_support = load_state(state_path)
        expected = AprioriMiner(0.1).mine(workload_files["original"])
        assert lattice.supports() == expected.lattice.supports()
        assert min_support == 0.1
        assert "large itemsets" in capsys.readouterr().out

    @pytest.mark.parametrize("algorithm", ["apriori", "dhp"])
    def test_state_is_the_same_on_both_engines(self, tmp_path, workload_files, algorithm):
        lattices = []
        for backend in ("horizontal", "vertical"):
            state_path = tmp_path / f"{backend}.json"
            code = main(
                [
                    "mine", str(workload_files["database_path"]),
                    "--algorithm", algorithm,
                    "--min-support", "0.1",
                    "--backend", backend,
                    "--state", str(state_path),
                ]
            )
            assert code == 0
            lattices.append(load_state(state_path)[0].supports())
        assert lattices[0] == lattices[1]
        assert lattices[0] == AprioriMiner(0.1).mine(workload_files["original"]).lattice.supports()

    def test_mine_with_dhp_and_rules(self, workload_files, capsys):
        code = main(
            [
                "mine", str(workload_files["database_path"]),
                "--algorithm", "dhp",
                "--min-support", "0.1",
                "--min-confidence", "0.5",
                "--top", "3",
            ]
        )
        assert code == 0
        assert "strong rules" in capsys.readouterr().out


class TestUpdateCommand:
    def test_update_matches_remining(self, tmp_path, workload_files, capsys):
        state_path = tmp_path / "state.json"
        out_state = tmp_path / "updated.json"
        out_database = tmp_path / "updated.txt"
        assert main(
            [
                "mine", str(workload_files["database_path"]),
                "--min-support", "0.1", "--state", str(state_path),
            ]
        ) == 0
        code = main(
            [
                "update",
                str(workload_files["database_path"]),
                str(workload_files["increment_path"]),
                str(state_path),
                "--out-state", str(out_state),
                "--out-database", str(out_database),
            ]
        )
        assert code == 0
        lattice, _ = load_state(out_state)
        updated = workload_files["original"].concatenate(workload_files["increment"])
        expected = AprioriMiner(0.1).mine(updated)
        assert lattice.supports() == expected.lattice.supports()
        assert list(load_database(out_database)) == list(updated)
        assert "fup" in capsys.readouterr().out

    def test_update_with_stale_state_fails_cleanly(self, tmp_path, workload_files, capsys):
        # State mined from the *increment* does not match the database size.
        state_path = tmp_path / "state.json"
        save_state(AprioriMiner(0.1).mine(workload_files["increment"]), state_path)
        code = main(
            [
                "update",
                str(workload_files["database_path"]),
                str(workload_files["increment_path"]),
                str(state_path),
            ]
        )
        assert code == 2
        assert "error:" in capsys.readouterr().err


class TestRulesCommand:
    def test_rules_from_state(self, tmp_path, small_database, capsys):
        state_path = tmp_path / "state.json"
        save_state(AprioriMiner(0.3).mine(small_database), state_path)
        code = main(["rules", str(state_path), "--min-confidence", "0.6", "--top", "5"])
        assert code == 0
        assert "strong rules" in capsys.readouterr().out


class TestMaintainCommand:
    def test_batched_session_matches_remining(self, tmp_path, workload_files, capsys):
        out_state = tmp_path / "final.json"
        code = main(
            [
                "maintain",
                str(workload_files["database_path"]),
                str(workload_files["increment_path"]),
                "--min-support", "0.1",
                "--min-confidence", "0.5",
                "--batches", "4",
                "--backend", "vertical",
                "--out-state", str(out_state),
            ]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "maintenance session: 4 batches" in output
        assert "batch-3" in output
        lattice, _ = load_state(out_state)
        updated = workload_files["original"].concatenate(workload_files["increment"])
        expected = AprioriMiner(0.1).mine(updated)
        assert lattice.supports() == expected.lattice.supports()

    def test_session_with_deletion_batches(self, tmp_path, workload_files, capsys):
        # Delete the first 20 original transactions over the session, in
        # addition to the inserts — the mixed batches run through FUP2.
        deletions_path = tmp_path / "deletions.txt"
        save_database(workload_files["original"].slice(0, 20), deletions_path)
        code = main(
            [
                "maintain",
                str(workload_files["database_path"]),
                str(workload_files["increment_path"]),
                "--deletions", str(deletions_path),
                "--min-support", "0.1",
                "--batches", "3",
            ]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "fup2" in output
        assert "20 deletions" in output

    def test_phantom_deletions_fail_cleanly(self, tmp_path, workload_files, capsys):
        deletions_path = tmp_path / "deletions.txt"
        deletions_path.write_text("9991 9992 9993\n")  # not in the database
        code = main(
            [
                "maintain",
                str(workload_files["database_path"]),
                str(workload_files["increment_path"]),
                "--deletions", str(deletions_path),
                "--min-support", "0.1",
                "--batches", "2",
            ]
        )
        assert code == 2
        assert "not present in the maintained database" in capsys.readouterr().err

    def test_apply_batches_totals_rows_time_and_evictions(self, small_database):
        from repro import RuleMaintainer, UpdateBatch
        from repro.cli import _apply_batches
        from repro.core.policy import parse_policy

        maintainer = RuleMaintainer(0.3, 0.5, policy=parse_policy(f"window:{len(small_database)}"))
        maintainer.initialise(small_database)
        batches = [
            UpdateBatch.from_iterables([[1, 2], [2, 3]], label="first"),
            UpdateBatch.from_iterables([[1, 4]], label="second"),
        ]
        reports = []

        def apply(batch):
            reports.append(maintainer.apply(batch))
            return reports[-1]

        rows, seconds, evicted = _apply_batches(apply, batches, "label", lambda r: r.batch_label)
        assert [row["label"] for row in rows] == ["first", "second"]
        assert [row["size"] for row in rows] == [len(small_database)] * 2
        assert evicted == sum(report.evicted_transactions for report in reports) == 3
        assert seconds >= sum(row["seconds"] for row in rows) - 1e-3

    @pytest.mark.parametrize(
        "spec, evicted, expected",
        [
            (None, 0, ""),
            ("window:4", 0, "policy: window:4\n"),
            ("window:4", 3, "policy: window:4, 3 transaction(s) evicted\n"),
        ],
        ids=["unbounded-silent", "policy-line", "policy-line-with-evictions"],
    )
    def test_policy_summary_is_one_line(self, spec, evicted, expected, capsys):
        from repro import RuleMaintainer
        from repro.cli import _print_policy_summary
        from repro.core.policy import parse_policy

        maintainer = RuleMaintainer(0.3, 0.5, policy=parse_policy(spec) if spec else None)
        _print_policy_summary(maintainer, evicted)
        assert capsys.readouterr().out == expected

    def test_batches_must_be_positive(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["maintain", "db.txt", "inc.txt", "--min-support", "0.1", "--batches", "0"]
            )


class TestSessionCommand:
    def test_full_round_trip(self, tmp_path, workload_files, capsys):
        """init → apply (two process lifetimes) → status → checkpoint → status."""
        session_dir = tmp_path / "session"
        code = main(
            [
                "session", "init", str(session_dir),
                str(workload_files["database_path"]),
                "--min-support", "0.1",
                "--checkpoint-interval", "10",
            ]
        )
        assert code == 0
        assert "initialised session" in capsys.readouterr().out

        # Two separate apply invocations: the process "dies" in between and
        # the second one recovers purely from the session directory.
        code = main(
            [
                "session", "apply", str(session_dir),
                "--insertions", str(workload_files["increment_path"]),
                "--batches", "2",
            ]
        )
        assert code == 0
        assert "applied 2 batch(es)" in capsys.readouterr().out

        deletions_path = tmp_path / "deletions.txt"
        save_database(workload_files["original"].slice(0, 10), deletions_path)
        code = main(
            ["session", "apply", str(session_dir), "--deletions", str(deletions_path)]
        )
        assert code == 0
        capsys.readouterr()

        code = main(["session", "status", str(session_dir)])
        assert code == 0
        status_output = capsys.readouterr().out
        assert "applied_seq: 3" in status_output
        assert "pending_batches: 3" in status_output

        code = main(["session", "checkpoint", str(session_dir)])
        assert code == 0
        assert "checkpointed" in capsys.readouterr().out

        code = main(["session", "status", str(session_dir)])
        assert code == 0
        status_output = capsys.readouterr().out
        assert "checkpoint_seq: 3" in status_output
        assert "pending_batches: 0" in status_output

        # The maintained state equals a from-scratch mine of the final database.
        final = MaintenanceSession.open(session_dir)
        expected_database = (
            workload_files["original"].slice(10).concatenate(workload_files["increment"])
        )
        assert sorted(final.database) == sorted(expected_database)
        remined = AprioriMiner(0.1).mine(final.database)
        assert final.result.lattice.supports() == remined.lattice.supports()
        final.close()

    def test_apply_without_files_is_an_error(self, tmp_path, workload_files, capsys):
        session_dir = tmp_path / "session"
        main(
            [
                "session", "init", str(session_dir),
                str(workload_files["database_path"]),
                "--min-support", "0.1",
            ]
        )
        capsys.readouterr()
        code = main(["session", "apply", str(session_dir)])
        assert code == 2
        assert "needs --insertions" in capsys.readouterr().err

    def test_status_of_missing_session_fails_cleanly(self, tmp_path, capsys):
        code = main(["session", "status", str(tmp_path / "nope")])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_init_refuses_existing_session(self, tmp_path, workload_files, capsys):
        session_dir = tmp_path / "session"
        args = [
            "session", "init", str(session_dir),
            str(workload_files["database_path"]),
            "--min-support", "0.1",
        ]
        assert main(args) == 0
        capsys.readouterr()
        assert main(args) == 2
        assert "already holds" in capsys.readouterr().err

    def test_phantom_deletions_fail_cleanly(self, tmp_path, workload_files, capsys):
        session_dir = tmp_path / "session"
        main(
            [
                "session", "init", str(session_dir),
                str(workload_files["database_path"]),
                "--min-support", "0.1",
            ]
        )
        deletions_path = tmp_path / "phantom.txt"
        deletions_path.write_text("9991 9992 9993\n")
        capsys.readouterr()
        code = main(
            ["session", "apply", str(session_dir), "--deletions", str(deletions_path)]
        )
        assert code == 2
        assert "not present in the maintained database" in capsys.readouterr().err
        # The refused batch left no journal record: status shows zero pending.
        capsys.readouterr()
        assert main(["session", "status", str(session_dir)]) == 0
        assert "pending_batches: 0" in capsys.readouterr().out


class TestCompareCommand:
    def test_compare_reports_speedups(self, workload_files, capsys):
        code = main(
            [
                "compare",
                str(workload_files["database_path"]),
                str(workload_files["increment_path"]),
                "--min-support", "0.1",
            ]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "speed-up of FUP" in output
        assert "candidate ratio" in output


class TestReproduceCommand:
    def test_tiny_custom_matrix_end_to_end(self, tmp_path, capsys):
        out_path = tmp_path / "BENCH_reproduction.json"
        code = main(
            [
                "reproduce",
                "--workload", "T5.I2.D1.d1", "--scale", "0.2",
                "--supports", "0.1", "--increments", "0.5",
                "--engines", "horizontal,vertical",
                "--out", str(out_path),
            ]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "measured speedups" in output
        assert "work ratios" in output
        payload = json.loads(out_path.read_text())
        assert payload["matrix"]["label"] == "custom"
        assert {row["strategy"] for row in payload["rows"]} == {"fup", "apriori", "dhp"}

    def test_update_then_check_docs_round_trip(self, tmp_path, capsys):
        docs_path = tmp_path / "reproduction.md"
        docs_path.write_text(
            "# title\n\n<!-- repro:reproduce:tables:begin -->\n"
            "<!-- repro:reproduce:tables:end -->\n"
        )
        matrix_args = [
            "reproduce",
            "--workload", "T5.I2.D1.d1", "--scale", "0.2",
            "--supports", "0.1", "--increments", "1.0",
            "--engines", "vertical",
        ]
        assert main([*matrix_args, "--update-docs", str(docs_path)]) == 0
        assert "work ratios" in docs_path.read_text()
        capsys.readouterr()
        assert main([*matrix_args, "--check-docs", str(docs_path)]) == 0
        assert "in sync" in capsys.readouterr().out

        # Any edit inside the generated block is drift: exit 1, named line.
        docs_path.write_text(docs_path.read_text().replace("work ratios", "work rations"))
        assert main([*matrix_args, "--check-docs", str(docs_path)]) == 1
        assert "drifted" in capsys.readouterr().err

    @pytest.mark.parametrize("spec", ["columnar", "partitioned:4:processes", "vertical:4"])
    def test_bad_engine_spec_fails_cleanly(self, spec, capsys):
        code = main(["reproduce", "--quick", "--engines", spec])
        assert code == 2
        assert "expected one of horizontal, vertical" in capsys.readouterr().err


class TestDocsCommand:
    def test_docs_prints_markdown(self, capsys):
        assert main(["docs"]) == 0
        output = capsys.readouterr().out
        assert output.startswith("# CLI reference")
        assert "## `repro reproduce`" in output

    def test_docs_out_then_check(self, tmp_path, capsys):
        target = tmp_path / "cli.md"
        assert main(["docs", "--out", str(target)]) == 0
        capsys.readouterr()
        assert main(["docs", "--check", str(target)]) == 0
        assert "in sync" in capsys.readouterr().out

        target.write_text(target.read_text() + "manual edit\n")
        assert main(["docs", "--check", str(target)]) == 1
        assert "drifted" in capsys.readouterr().err

    def test_malformed_numeric_flags_fail_cleanly(self, capsys):
        assert main(["reproduce", "--quick", "--supports", "abc"]) == 2
        assert "comma-separated numbers" in capsys.readouterr().err
        assert main(["reproduce", "--quick", "--increments", "0.5x"]) == 2
        assert "comma-separated numbers" in capsys.readouterr().err
        assert main(["reproduce", "--quick", "--engines", "vertical:x"]) == 2
        assert "engine spec" in capsys.readouterr().err

    def test_check_docs_missing_file_fails_cleanly(self, tmp_path, capsys):
        assert main(["docs", "--check", str(tmp_path / "absent.md")]) == 2
        assert "cannot read docs file" in capsys.readouterr().err


class TestServe:
    """The serving subcommand: argument validation inline, serving via subprocess."""

    def test_needs_exactly_one_source(self, tmp_path, capsys):
        assert main(["serve"]) == 2
        assert "exactly one" in capsys.readouterr().err
        (tmp_path / "db.txt").write_text("1 2\n")
        assert main(
            ["serve", str(tmp_path / "db.txt"), "--session", str(tmp_path)]
        ) == 2
        assert "exactly one" in capsys.readouterr().err

    def test_database_mode_needs_min_support(self, workload_files, capsys):
        assert main(["serve", str(workload_files["database_path"])]) == 2
        assert "--min-support" in capsys.readouterr().err

    def test_database_mode_rejects_refresh(self, workload_files, capsys):
        code = main(
            [
                "serve",
                str(workload_files["database_path"]),
                "--min-support", "0.2",
                "--refresh", "0.5",
            ]
        )
        assert code == 2
        assert "--refresh only applies with --session" in capsys.readouterr().err

    def test_session_mode_rejects_nonpositive_refresh(self, tmp_path, capsys):
        assert main(["serve", "--session", str(tmp_path), "--refresh", "0"]) == 2
        assert "--refresh must be positive" in capsys.readouterr().err

    def test_missing_session_fails_cleanly(self, tmp_path, capsys):
        assert main(["serve", "--session", str(tmp_path / "nope")]) == 2
        assert "holds no maintenance session" in capsys.readouterr().err

    def test_session_mode_rejects_mining_flags(self, tmp_path, capsys):
        """Flags the session manifest overrides must error, not silently no-op."""
        code = main(
            ["serve", "--session", str(tmp_path), "--min-support", "0.05"]
        )
        assert code == 2
        assert "--min-support" in capsys.readouterr().err
        code = main(["serve", "--session", str(tmp_path), "--backend", "vertical"])
        assert code == 2
        assert "--backend" in capsys.readouterr().err
        # Explicitly passing a flag at its database-mode default is still an
        # explicit request the manifest would override: also refused.
        code = main(
            ["serve", "--session", str(tmp_path), "--min-confidence", "0.5"]
        )
        assert code == 2
        assert "--min-confidence" in capsys.readouterr().err

    def test_rate_burst_needs_rate_limit(self, workload_files, capsys):
        code = main(
            [
                "serve",
                str(workload_files["database_path"]),
                "--min-support", "0.2",
                "--rate-burst", "10",
            ]
        )
        assert code == 2
        assert "--rate-burst needs --rate-limit" in capsys.readouterr().err

    def test_async_flag_values_are_validated(self, workload_files, capsys):
        base = [
            "serve",
            str(workload_files["database_path"]),
            "--min-support", "0.2",
        ]
        assert main(base + ["--cache-size", "-1"]) == 2
        assert "--cache-size must be >= 0" in capsys.readouterr().err
        assert main(base + ["--rate-limit", "0"]) == 2
        assert "--rate-limit must be positive" in capsys.readouterr().err
        assert main(base + ["--rate-limit", "5", "--rate-burst", "0.5"]) == 2
        assert "--rate-burst must be >= 1" in capsys.readouterr().err
        # --max-connections is typed positive_int, so argparse itself
        # refuses zero with the usual usage-error exit.
        with pytest.raises(SystemExit) as excinfo:
            main(base + ["--max-connections", "0"])
        assert excinfo.value.code == 2
        assert "positive integer" in capsys.readouterr().err

    def test_database_mode_mines_with_vertical_by_default(
        self, workload_files, monkeypatch, capsys
    ):
        import repro.cli as cli

        engines = []

        class RecordingMaintainer(cli.RuleMaintainer):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                engines.append(self.fup_options.backend)

        monkeypatch.setattr(cli, "RuleMaintainer", RecordingMaintainer)
        code = main(
            [
                "serve",
                str(workload_files["database_path"]),
                "--min-support", "0.2",
                "--port", "0",
                "--max-seconds", "0.1",
            ]
        )
        assert code == 0
        assert engines == ["vertical"]
        assert "serving rules on" in capsys.readouterr().out

    def test_occupied_port_fails_cleanly(self, workload_files, capsys):
        import socket

        blocker = socket.socket()
        blocker.bind(("127.0.0.1", 0))
        try:
            port = blocker.getsockname()[1]
            code = main(
                [
                    "serve",
                    str(workload_files["database_path"]),
                    "--min-support", "0.2",
                    "--port", str(port),
                ]
            )
        finally:
            blocker.close()
        assert code == 2
        assert "cannot serve on" in capsys.readouterr().err

    def test_serves_a_session_and_follows_live_updates(self, tmp_path, workload_files):
        """End to end over HTTP: a batch applied by another process shows up
        as a new snapshot version while the server keeps answering."""
        import json as jsonlib
        import os
        import subprocess
        import sys
        import time
        import urllib.request

        session_dir = tmp_path / "session"
        assert (
            main(
                [
                    "session",
                    "init",
                    str(session_dir),
                    str(workload_files["database_path"]),
                    "--min-support",
                    "0.1",
                ]
            )
            == 0
        )
        environment = dict(os.environ)
        src = str(Path(__file__).resolve().parents[1] / "src")
        environment["PYTHONPATH"] = src + (
            os.pathsep + environment["PYTHONPATH"]
            if environment.get("PYTHONPATH")
            else ""
        )
        process = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro.cli",
                "serve",
                "--session",
                str(session_dir),
                "--port",
                "0",
                "--refresh",
                "0.1",
                "--max-seconds",
                "60",
            ],
            stdout=subprocess.PIPE,
            text=True,
            env=environment,
        )
        try:
            banner = process.stdout.readline()
            assert "serving rules on http://" in banner, banner
            url = banner.split()[3]

            def fetch(path: str) -> dict:
                with urllib.request.urlopen(url + path, timeout=10) as response:
                    return jsonlib.loads(response.read())

            health = fetch("/health")
            assert health["status"] == "ok"
            assert health["version"] == 0
            assert health["publications"] == 1  # startup recovers exactly once

            recommendations = fetch("/recommend?basket=1,2&k=3")
            assert recommendations["version"] == 0

            # Another process applies a batch; the feed must pick it up.
            assert (
                main(
                    [
                        "session",
                        "apply",
                        str(session_dir),
                        "--insertions",
                        str(workload_files["increment_path"]),
                        "--batches",
                        "2",
                    ]
                )
                == 0
            )
            deadline = time.monotonic() + 30
            version = health["version"]
            while time.monotonic() < deadline:
                version = fetch("/health")["version"]
                if version > health["version"]:
                    break
                time.sleep(0.2)
            assert version == 2, f"served version never advanced past {version}"
        finally:
            process.terminate()
            process.wait(timeout=30)


class TestSnapshotCommands:
    def test_inspect_v1_then_migrate_then_inspect_v2(
        self, tmp_path, workload_files, capsys
    ):
        v1_path = tmp_path / "snap.v1"
        v2_path = tmp_path / "snap.v2"
        save_database(workload_files["original"], v1_path, binary=True)

        assert main(["snapshot", "inspect", str(v1_path)]) == 0
        out = capsys.readouterr().out
        assert "format_version: 1" in out
        assert f"transactions: {len(workload_files['original'])}" in out
        assert "lanes_present: False" in out

        assert main(["snapshot", "migrate", str(v1_path), str(v2_path)]) == 0
        out = capsys.readouterr().out
        assert "format v2" in out
        assert "item lanes" in out

        assert main(["snapshot", "inspect", str(v2_path)]) == 0
        out = capsys.readouterr().out
        assert "format_version: 2" in out
        assert "lanes_present: True" in out

        migrated = load_database(v2_path)
        assert (
            migrated.transactions() == workload_files["original"].transactions()
        )

    def test_inspect_corrupt_snapshot_exits_2(self, tmp_path, capsys):
        path = tmp_path / "corrupt.v2"
        path.write_bytes(b"REPROSN2" + b"\x07" * 16)  # magic, truncated header
        assert main(["snapshot", "inspect", str(path)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_inspect_missing_file_exits_2(self, tmp_path, capsys):
        assert main(["snapshot", "inspect", str(tmp_path / "absent.v2")]) == 2
        assert "error:" in capsys.readouterr().err

    def test_migrating_a_v2_snapshot_exits_2(self, tmp_path, workload_files, capsys):
        from repro.db.store import write_snapshot

        v2_path = tmp_path / "snap.v2"
        write_snapshot(workload_files["original"], v2_path)
        assert (
            main(["snapshot", "migrate", str(v2_path), str(tmp_path / "again.v2")])
            == 2
        )
        assert "already snapshot format" in capsys.readouterr().err


class TestIngestCommand:
    """The streaming-intake subcommand: flag validation plus round trips."""

    @pytest.fixture()
    def ingest_session(self, tmp_path, workload_files):
        session_dir = tmp_path / "session"
        assert main(
            [
                "session", "init", str(session_dir),
                str(workload_files["database_path"]),
                "--min-support", "0.1",
            ]
        ) == 0
        return session_dir

    @staticmethod
    def _write_events(path, specs):
        lines = [
            json.dumps({"key": key, "items": items}) for key, items in specs
        ]
        path.write_text("".join(line + "\n" for line in lines))
        return path

    def test_follow_needs_a_file_source(self, tmp_path, capsys):
        assert main(["ingest", str(tmp_path), "--follow"]) == 2
        assert "--follow needs a file source" in capsys.readouterr().err

    def test_nonpositive_watermarks_are_rejected(self, tmp_path, capsys):
        code = main(
            ["ingest", str(tmp_path), "--source", "x.jsonl", "--batch-seconds", "0"]
        )
        assert code == 2
        assert "--batch-seconds must be positive" in capsys.readouterr().err
        code = main(["ingest", str(tmp_path), "--source", "x.jsonl", "--poll", "0"])
        assert code == 2
        assert "--poll must be positive" in capsys.readouterr().err

    def test_file_ingest_then_replay_dedups(self, tmp_path, ingest_session, capsys):
        stream = self._write_events(
            tmp_path / "events.jsonl",
            [(f"k{i}", [1 + i % 3, 2 + i % 3]) for i in range(6)],
        )
        code = main(
            ["ingest", str(ingest_session), "--source", str(stream), "--batch-size", "4"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "batch 1: 4 applied, 0 duplicate(s) dropped" in out
        assert "ingested 6 event(s) in 2 batch(es): 6 applied, 0 deduplicated" in out
        assert "now at batch 2" in out

        # The producer replays the whole stream: everything dedups, no seq burned.
        code = main(
            ["ingest", str(ingest_session), "--source", str(stream), "--batch-size", "4"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "6 event(s) in 2 batch(es): 0 applied, 6 deduplicated" in out
        assert "now at batch 2" in out

    def test_stdin_ingest(self, tmp_path, ingest_session, capsys, monkeypatch):
        payload = b'{"key": "a", "items": [1, 2]}\n{"key": "b", "items": [2, 3]}\n'

        class FakeStdin:
            buffer = io.BytesIO(payload)

        monkeypatch.setattr(sys, "stdin", FakeStdin())
        assert main(["ingest", str(ingest_session)]) == 0
        assert "2 applied, 0 deduplicated" in capsys.readouterr().out

    def test_corrupt_record_fails_cleanly(self, tmp_path, ingest_session, capsys):
        stream = tmp_path / "events.jsonl"
        stream.write_text('{"key": "a", "items": [1]}\nnot json\n')
        code = main(["ingest", str(ingest_session), "--source", str(stream)])
        assert code == 2
        assert "invalid JSON event record" in capsys.readouterr().err

    def test_missing_session_fails_cleanly(self, tmp_path, capsys):
        stream = self._write_events(tmp_path / "e.jsonl", [("a", [1])])
        code = main(["ingest", str(tmp_path / "nope"), "--source", str(stream)])
        assert code == 2
        assert "holds no maintenance session" in capsys.readouterr().err


class TestPipelineCommand:
    def test_once_serves_while_ingesting(self, tmp_path, workload_files, capsys):
        session_dir = tmp_path / "session"
        assert main(
            [
                "session", "init", str(session_dir),
                str(workload_files["database_path"]),
                "--min-support", "0.1",
            ]
        ) == 0
        stream = TestIngestCommand._write_events(
            tmp_path / "events.jsonl", [("a", [1, 2]), ("b", [2, 3]), ("a", [1, 2])]
        )
        capsys.readouterr()
        code = main(
            [
                "pipeline", str(session_dir),
                "--source", str(stream),
                "--once",
                "--port", "0",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "pipeline serving on http://127.0.0.1:" in out
        assert "3 event(s)" in out and "2 applied, 1 deduplicated" in out

    def test_follow_conflicts_with_stdin(self, tmp_path, capsys):
        # pipeline defaults to follow mode, so stdin requires --once.
        assert main(["pipeline", str(tmp_path)]) == 2
        assert "--follow needs a file source" in capsys.readouterr().err
