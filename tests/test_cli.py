"""Unit tests for the command-line interface."""

from __future__ import annotations

import json

import pytest

from repro.cli import _parse_min_support, build_parser, main
from repro.data.io import save_transactions
from repro.datasets import example3_taxonomy, example3_transactions
from repro.taxonomy.io import save_taxonomy


@pytest.fixture
def example_files(tmp_path):
    transactions_path = tmp_path / "toy.basket"
    taxonomy_path = tmp_path / "toy.json"
    save_transactions(example3_transactions(), transactions_path)
    save_taxonomy(example3_taxonomy(), taxonomy_path)
    return str(transactions_path), str(taxonomy_path)


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_min_support_parsing(self):
        assert _parse_min_support("0.01, 0.001") == [0.01, 0.001]
        assert _parse_min_support("10,5,2") == [10, 5, 2]
        assert _parse_min_support("1e-4") == [0.0001]


class TestMine:
    def test_finds_paper_pattern(self, example_files, capsys):
        transactions, taxonomy = example_files
        code = main(
            [
                "mine",
                "--transactions",
                transactions,
                "--taxonomy",
                taxonomy,
                "--gamma",
                "0.6",
                "--epsilon",
                "0.35",
                "--min-support",
                "1,1,1",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "1 flipping pattern(s)" in out
        assert "a11" in out and "b11" in out

    def test_json_output(self, example_files, capsys):
        transactions, taxonomy = example_files
        code = main(
            [
                "mine",
                "--transactions",
                transactions,
                "--taxonomy",
                taxonomy,
                "--gamma",
                "0.6",
                "--epsilon",
                "0.35",
                "--min-support",
                "1,1,1",
                "--json",
                "--stats",
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["patterns"][0]["items"] == ["a11", "b11"]
        assert payload["stats"]["n_patterns"] == 1

    def test_top_k(self, example_files, capsys):
        transactions, taxonomy = example_files
        main(
            [
                "mine",
                "--transactions",
                transactions,
                "--taxonomy",
                taxonomy,
                "--gamma",
                "0.5",
                "--epsilon",
                "0.35",
                "--min-support",
                "1,1,1",
                "--top-k",
                "1",
            ]
        )
        assert "pattern" in capsys.readouterr().out

    def test_partitioned_mine_matches_default(self, example_files, capsys):
        transactions, taxonomy = example_files
        args = [
            "mine",
            "--transactions",
            transactions,
            "--taxonomy",
            taxonomy,
            "--gamma",
            "0.6",
            "--epsilon",
            "0.35",
            "--min-support",
            "1,1,1",
            "--json",
        ]
        assert main(args) == 0
        baseline = json.loads(capsys.readouterr().out)
        assert (
            main(args + ["--partitions", "3", "--memory-budget-mb", "8"])
            == 0
        )
        partitioned = json.loads(capsys.readouterr().out)
        assert partitioned["patterns"] == baseline["patterns"]
        assert partitioned["config"]["partitions"] == 3
        assert partitioned["config"]["memory_budget_mb"] == 8.0

    def test_memory_budget_without_partitions_errors(
        self, example_files, capsys
    ):
        transactions, taxonomy = example_files
        code = main(
            [
                "mine",
                "--transactions",
                transactions,
                "--taxonomy",
                taxonomy,
                "--gamma",
                "0.6",
                "--epsilon",
                "0.35",
                "--min-support",
                "1,1,1",
                "--memory-budget-mb",
                "8",
            ]
        )
        assert code == 2
        assert "partitions" in capsys.readouterr().err

    def test_bad_thresholds_exit_code(self, example_files, capsys):
        transactions, taxonomy = example_files
        code = main(
            [
                "mine",
                "--transactions",
                transactions,
                "--taxonomy",
                taxonomy,
                "--gamma",
                "0.2",
                "--epsilon",
                "0.5",
                "--min-support",
                "1,1,1",
            ]
        )
        assert code == 2
        assert "error:" in capsys.readouterr().err


class TestRules:
    def test_generalized_rules_printed(self, example_files, capsys):
        transactions, taxonomy = example_files
        code = main(
            [
                "rules",
                "--transactions",
                transactions,
                "--taxonomy",
                taxonomy,
                "--min-support",
                "2",
                "--min-confidence",
                "0.6",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "generalized frequent itemsets" in out
        assert "->" in out

    def test_interest_pruning_reported(self, example_files, capsys):
        transactions, taxonomy = example_files
        code = main(
            [
                "rules",
                "--transactions",
                transactions,
                "--taxonomy",
                taxonomy,
                "--min-support",
                "2",
                "--min-confidence",
                "0.6",
                "--interest",
                "1.3",
            ]
        )
        assert code == 0
        assert "R-interesting (R=1.3)" in capsys.readouterr().out

    def test_json_output(self, example_files, capsys):
        transactions, taxonomy = example_files
        code = main(
            [
                "rules",
                "--transactions",
                transactions,
                "--taxonomy",
                taxonomy,
                "--min-support",
                "2",
                "--min-confidence",
                "0.5",
                "--json",
                "--limit",
                "3",
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["n_rules"] >= len(payload["rules"])
        assert len(payload["rules"]) <= 3
        for rule in payload["rules"]:
            assert rule["confidence"] >= 0.5

    def test_surprise_ranks_cross_category_first(self, example_files, capsys):
        transactions, taxonomy = example_files
        code = main(
            [
                "rules",
                "--transactions",
                transactions,
                "--taxonomy",
                taxonomy,
                "--min-support",
                "2",
                "--min-confidence",
                "0.0",
                "--surprise",
                "--json",
                "--limit",
                "1",
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        top = payload["rules"][0]
        sides = top["antecedent"] + top["consequent"]
        # the most surprising rule bridges the a- and b-categories
        assert any(name.startswith("a") for name in sides)
        assert any(name.startswith("b") for name in sides)

    def test_multiple_supports_rejected(self, example_files, capsys):
        transactions, taxonomy = example_files
        code = main(
            [
                "rules",
                "--transactions",
                transactions,
                "--taxonomy",
                taxonomy,
                "--min-support",
                "2,1",
                "--min-confidence",
                "0.5",
            ]
        )
        assert code == 2
        assert "single min-support" in capsys.readouterr().err


class TestGenerate:
    def test_groceries_roundtrip(self, tmp_path, capsys):
        code = main(
            [
                "generate",
                "--dataset",
                "groceries",
                "--out-dir",
                str(tmp_path),
                "--scale",
                "0.1",
            ]
        )
        assert code == 0
        assert (tmp_path / "groceries.basket").exists()
        assert (tmp_path / "groceries.taxonomy.json").exists()

    def test_synthetic(self, tmp_path):
        code = main(
            [
                "generate",
                "--dataset",
                "synthetic",
                "--out-dir",
                str(tmp_path),
                "--n-transactions",
                "100",
                "--seed",
                "1",
            ]
        )
        assert code == 0
        text = (tmp_path / "synthetic.basket").read_text()
        # 100 transactions plus the header comment
        rows = [
            line
            for line in text.splitlines()
            if line and not line.startswith("#")
        ]
        assert len(rows) == 100


class TestExplain:
    def test_kulc(self, capsys):
        assert main(["explain", "--measure", "kulc"]) == 0
        out = capsys.readouterr().out
        assert "arithmetic" in out
        assert "0.400" in out

    def test_unknown_measure(self, capsys):
        assert main(["explain", "--measure", "nope"]) == 2


class TestProfile:
    def test_describes_and_suggests(self, example_files, capsys):
        transactions, taxonomy = example_files
        code = main(
            [
                "profile",
                "--transactions",
                transactions,
                "--taxonomy",
                taxonomy,
                "--bottom-fraction",
                "0.1",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "10 transactions" in out
        assert "suggested per-level min supports" in out
        assert "h1" in out and "h3" in out

    def test_generated_dataset_roundtrip(self, tmp_path, capsys):
        assert main(
            [
                "generate",
                "--dataset",
                "movies",
                "--out-dir",
                str(tmp_path),
                "--scale",
                "0.05",
            ]
        ) == 0
        capsys.readouterr()
        code = main(
            [
                "profile",
                "--transactions",
                str(tmp_path / "movies.basket"),
                "--taxonomy",
                str(tmp_path / "movies.taxonomy.json"),
            ]
        )
        assert code == 0
        assert "most frequent items" in capsys.readouterr().out


class TestBench:
    def test_table1(self, capsys):
        assert main(["bench", "table1"]) == 0
        out = capsys.readouterr().out
        assert "Table 1" in out and "[PASS]" in out

    @staticmethod
    def _fake_bench(monkeypatch, passed):
        from repro.bench.experiments import EXPERIMENTS

        def run():
            return "== fake bench ==", {"checks_pass": passed}

        monkeypatch.setitem(EXPERIMENTS, "approx", run)

    def test_failed_checks_exit_1_after_every_report(
        self, monkeypatch, capsys
    ):
        self._fake_bench(monkeypatch, passed=False)
        assert main(["bench", "approx", "table1"]) == 1
        captured = capsys.readouterr()
        assert "== fake bench ==" in captured.out
        assert "Table 1" in captured.out
        assert "failed checks: approx" in captured.err

    def test_passing_checks_exit_0(self, monkeypatch, capsys):
        self._fake_bench(monkeypatch, passed=True)
        assert main(["bench", "approx"]) == 0
        assert "== fake bench ==" in capsys.readouterr().out


class TestUpdateCommand:
    def test_init_append_and_mine(self, example_files, tmp_path, capsys):
        transactions, taxonomy = example_files
        store_dir = str(tmp_path / "store")
        # create the store from the base file
        assert main([
            "update",
            "--store",
            store_dir,
            "--taxonomy",
            taxonomy,
            "--init-from",
            transactions,
        ]) == 0
        capsys.readouterr()
        # append a delta file and mine the grown store
        delta_path = tmp_path / "delta.basket"
        save_transactions([["a11", "b11"], ["a11", "b11", "a22"]], delta_path)
        assert main([
            "update",
            "--store",
            store_dir,
            "--taxonomy",
            taxonomy,
            "--append",
            str(delta_path),
            "--gamma",
            "0.6",
            "--epsilon",
            "0.35",
            "--min-support",
            "1",
            "--json",
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["n_transactions"] == 12
        assert payload["appended"][0]["rows"] == 2
        assert payload["appended"][0]["new_shards"] == [1]
        assert "patterns" in payload  # mining ran on the grown store
        assert payload["config"]["n_transactions"] == 12

    def test_missing_store_without_init_errors(
        self, example_files, tmp_path, capsys
    ):
        _, taxonomy = example_files
        assert main([
            "update",
            "--store",
            str(tmp_path / "nope"),
            "--taxonomy",
            taxonomy,
        ]) == 2
        assert "--init-from" in capsys.readouterr().err

    def test_partial_threshold_options_error(
        self, example_files, tmp_path, capsys
    ):
        transactions, taxonomy = example_files
        store_dir = str(tmp_path / "store")
        assert main([
            "update",
            "--store",
            store_dir,
            "--taxonomy",
            taxonomy,
            "--init-from",
            transactions,
            "--gamma",
            "0.6",
        ]) == 2
        assert "--min-support" in capsys.readouterr().err


class TestStoreCommand:
    @pytest.fixture
    def store_dir(self, example_files, tmp_path):
        transactions, taxonomy = example_files
        directory = str(tmp_path / "store")
        assert main([
            "update",
            "--store",
            directory,
            "--taxonomy",
            taxonomy,
            "--init-from",
            transactions,
        ]) == 0
        return directory

    def test_describe_text(self, store_dir, example_files, capsys):
        _, taxonomy = example_files
        capsys.readouterr()
        assert main([
            "store",
            "describe",
            "--store",
            store_dir,
            "--taxonomy",
            taxonomy,
        ]) == 0
        out = capsys.readouterr().out
        assert "ShardedTransactionStore" in out
        assert "[columnar]" in out

    def test_describe_json(self, store_dir, example_files, capsys):
        _, taxonomy = example_files
        capsys.readouterr()
        assert main([
            "store",
            "describe",
            "--store",
            store_dir,
            "--taxonomy",
            taxonomy,
            "--json",
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["n_shards"] == len(payload["shards"])
        shard = payload["shards"][0]
        assert shard["format"] == "columnar"
        assert shard["bytes"] > 0
        assert shard["rows"] > 0
        assert shard["images"] == []

    def test_migrate_round_trip(self, store_dir, example_files, capsys):
        _, taxonomy = example_files
        capsys.readouterr()
        assert main([
            "store",
            "migrate",
            "--store",
            store_dir,
            "--taxonomy",
            taxonomy,
            "--to",
            "jsonl",
        ]) == 0
        out = capsys.readouterr().out
        assert "rewrote 1 shard(s) to jsonl" in out
        assert "[jsonl]" in out
        assert main([
            "store",
            "migrate",
            "--store",
            store_dir,
            "--taxonomy",
            taxonomy,
            "--to",
            "columnar",
        ]) == 0
        assert "[columnar]" in capsys.readouterr().out

    def test_migrate_noop_reports_zero(self, store_dir, example_files, capsys):
        _, taxonomy = example_files
        capsys.readouterr()
        assert main([
            "store",
            "migrate",
            "--store",
            store_dir,
            "--taxonomy",
            taxonomy,
            "--to",
            "columnar",
        ]) == 0
        assert "rewrote 0 shard(s)" in capsys.readouterr().out

    def test_update_format_flag_writes_jsonl(
        self, example_files, tmp_path, capsys
    ):
        transactions, taxonomy = example_files
        directory = str(tmp_path / "legacy")
        assert main([
            "update",
            "--store",
            directory,
            "--taxonomy",
            taxonomy,
            "--init-from",
            transactions,
            "--format",
            "jsonl",
        ]) == 0
        capsys.readouterr()
        assert main([
            "store",
            "describe",
            "--store",
            directory,
            "--taxonomy",
            taxonomy,
            "--json",
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert all(shard["format"] == "jsonl" for shard in payload["shards"])


class TestMineAppend:
    def test_append_matches_mining_everything_at_once(
        self, example_files, tmp_path, capsys
    ):
        transactions, taxonomy = example_files
        base_rows = example3_transactions()[:-3]
        delta_rows = example3_transactions()[-3:]
        base_path = tmp_path / "base.basket"
        delta_path = tmp_path / "delta.basket"
        save_transactions(base_rows, base_path)
        save_transactions(delta_rows, delta_path)
        common = [
            "--taxonomy",
            taxonomy,
            "--gamma",
            "0.6",
            "--epsilon",
            "0.35",
            "--min-support",
            "1",
            "--json",
        ]
        assert main([
            "mine",
            "--transactions",
            str(base_path),
            "--append",
            str(delta_path),
            *common,
        ]) == 0
        incremental = json.loads(capsys.readouterr().out)
        assert main([
            "mine",
            "--transactions",
            transactions,
            *common,
        ]) == 0
        full = json.loads(capsys.readouterr().out)
        assert incremental["patterns"] == full["patterns"]
        assert incremental["updates"][0]["rows"] == 3
        assert incremental["updates"][0]["mode"] in {"incremental", "full"}


class TestExplainListing:
    def test_no_measure_lists_all(self, capsys):
        assert main(["explain"]) == 0
        out = capsys.readouterr().out
        lines = [line for line in out.splitlines() if line.strip()]
        assert len(lines) == 5
        for name in (
            "all_confidence",
            "coherence",
            "cosine",
            "kulczynski",
            "max_confidence",
        ):
            assert any(line.startswith(name) for line in lines)
        assert "aliases: kulc" in out


@pytest.fixture
def served_store(example_files, tmp_path):
    """A shard store with a saved pattern_store.json (serve's layout)."""
    from repro.cli import _build_server

    transactions, taxonomy = example_files
    store_dir = tmp_path / "shards"
    assert main([
        "update",
        "--store",
        str(store_dir),
        "--taxonomy",
        taxonomy,
        "--init-from",
        transactions,
    ]) == 0
    args = build_parser().parse_args([
        "serve",
        "--store",
        str(store_dir),
        "--taxonomy",
        taxonomy,
        "--gamma",
        "0.6",
        "--epsilon",
        "0.35",
        "--min-support",
        "1",
        "--port",
        "0",
    ])
    server = _build_server(args)
    return store_dir, server


class TestServe:
    def test_build_server_and_http_round_trip(self, served_store, capsys):
        import json as jsonlib
        import urllib.request

        store_dir, server = served_store
        assert (store_dir / "pattern_store.json").is_file()
        with server:
            with urllib.request.urlopen(server.url + "/healthz") as resp:
                health = jsonlib.load(resp)
            assert health["status"] == "ok"
            assert health["n_patterns"] == 1
            with urllib.request.urlopen(
                server.url + "/patterns?items=a11"
            ) as resp:
                page = jsonlib.load(resp)
            assert page["total"] == 1
            assert page["patterns"][0]["items"] == ["a11", "b11"]

    def test_warm_start_reopens_saved_store(
        self, served_store, example_files, capsys
    ):
        from repro.cli import _build_server

        store_dir, server = served_store
        server.close()
        capsys.readouterr()
        _, taxonomy = example_files
        args = build_parser().parse_args([
            "serve",
            "--store",
            str(store_dir),
            "--taxonomy",
            taxonomy,
            "--gamma",
            "0.6",
            "--epsilon",
            "0.35",
            "--min-support",
            "1",
            "--port",
            "0",
        ])
        again = _build_server(args)
        again.close()
        out = capsys.readouterr().out
        assert "reopened pattern store" in out
        assert "+0 ~0 -0" in out  # nothing changed: no reindexing

    def test_requires_exactly_one_source(self, capsys):
        assert main(["serve"]) == 2
        assert "exactly one of" in capsys.readouterr().err

    def test_store_requires_thresholds(self, served_store, capsys):
        store_dir, server = served_store
        server.close()
        assert main(["serve", "--store", str(store_dir)]) == 2
        assert "--min-support" in capsys.readouterr().err

    @pytest.fixture
    def archive(self, example_files, tmp_path):
        """A save_result archive of the example mine (one pattern)."""
        from repro.core.serialize import save_result
        from repro.core.flipper import mine_flipping_patterns
        from repro.core.thresholds import Thresholds
        from repro.data.io import load_database
        from repro.taxonomy.io import load_taxonomy

        transactions, taxonomy = example_files
        database = load_database(transactions, load_taxonomy(taxonomy))
        result = mine_flipping_patterns(
            database, Thresholds(gamma=0.6, epsilon=0.35, min_support=1)
        )
        archive = tmp_path / "run.json"
        save_result(result, archive)
        return archive

    def test_result_archive_is_read_only(self, archive):
        from repro.cli import _build_server

        args = build_parser().parse_args([
            "serve",
            "--result",
            str(archive),
            "--port",
            "0",
        ])
        server = _build_server(args)
        try:
            assert len(server.store) == 1
        finally:
            server.close()

    def test_serve_command_names_bound_port_and_stops_on_sigterm(
        self, archive
    ):
        import os
        import re
        import signal
        import subprocess
        import sys
        import urllib.request
        from pathlib import Path

        src = Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(src)]
            + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        process = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro",
                "serve",
                "--result",
                str(archive),
                "--port",
                "0",
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            env=env,
        )
        try:
            banner = process.stdout.readline()
            match = re.search(r"http://127\.0\.0\.1:(\d+)", banner)
            assert match and int(match.group(1)) > 0, banner
            with urllib.request.urlopen(
                match.group(0) + "/v1/healthz", timeout=10
            ) as resp:
                assert json.load(resp)["status"] == "ok"
        finally:
            process.send_signal(signal.SIGTERM)
            out, err = process.communicate(timeout=30)
        assert process.returncode == 0, err
        assert "read-only" in banner
        assert "shutting down" in out


class TestQueryCommand:
    def test_query_saved_store(self, served_store, capsys):
        store_dir, server = served_store
        server.close()
        capsys.readouterr()
        assert main([
            "query",
            "--store",
            str(store_dir),
            "--items",
            "a11",
            "--plan",
        ]) == 0
        out = capsys.readouterr().out
        assert "1 match(es)" in out
        assert "plan: seed item:a11" in out

    def test_query_json_matches_scan(self, served_store, capsys):
        from repro.serve import PatternStore, Query, linear_scan

        store_dir, server = served_store
        server.close()
        capsys.readouterr()
        assert main([
            "query",
            "--store",
            str(store_dir),
            "--signature",
            "+-+",
            "--sort",
            "min_gap",
            "--json",
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        store = PatternStore.open(store_dir / "pattern_store.json")
        expected = linear_scan(
            store, Query(signature="+-+", sort_by="min_gap")
        )
        assert [p["id"] for p in payload["patterns"]] == expected.ids

    def test_query_archive(self, example_files, tmp_path, capsys):
        transactions, taxonomy = example_files
        assert main([
            "mine",
            "--transactions",
            transactions,
            "--taxonomy",
            taxonomy,
            "--gamma",
            "0.6",
            "--epsilon",
            "0.35",
            "--min-support",
            "1",
            "--json",
        ]) == 0
        capsys.readouterr()
        from repro.core.flipper import mine_flipping_patterns
        from repro.core.serialize import save_result
        from repro.core.thresholds import Thresholds
        from repro.data.io import load_database
        from repro.taxonomy.io import load_taxonomy

        database = load_database(transactions, load_taxonomy(taxonomy))
        archive = tmp_path / "run.json"
        save_result(
            mine_flipping_patterns(
                database,
                Thresholds(gamma=0.6, epsilon=0.35, min_support=1),
            ),
            archive,
        )
        assert main([
            "query",
            "--result",
            str(archive),
            "--under",
            "a1",
        ]) == 0
        assert "1 match(es)" in capsys.readouterr().out

    def test_requires_exactly_one_source(self, capsys):
        assert main(["query"]) == 2
        assert "exactly one of" in capsys.readouterr().err

    def test_no_matches(self, served_store, capsys):
        store_dir, server = served_store
        server.close()
        capsys.readouterr()
        assert main([
            "query",
            "--store",
            str(store_dir),
            "--items",
            "a22",
        ]) == 0
        assert "0 match(es)" in capsys.readouterr().out
