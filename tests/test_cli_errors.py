"""CLI error paths: exit codes and stderr, not just happy paths.

Every intentional library failure must surface through ``main()`` as
exit code 2 with a single ``error: ...`` line on stderr — never a
traceback, never exit 0 with partial output.  Each test here pins one
user-facing failure mode: bad approximate-mining knobs, conflicting
source options, malformed transaction files, and stores that are not
stores.
"""

from __future__ import annotations

import json

import pytest

from repro.bench.serve import synthetic_serve_result
from repro.cli import main
from repro.core.serialize import save_result
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


def _mine_args(transactions: str, taxonomy: str, *extra: str) -> list[str]:
    return [
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
        *extra,
    ]


def _expect_error(capsys, argv: list[str], *needles: str) -> None:
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2, captured.err
    assert captured.err.startswith("error: "), captured.err
    for needle in needles:
        assert needle in captured.err, (needle, captured.err)


class TestSampleRateErrors:
    @pytest.mark.parametrize("rate", ["0", "-0.2", "1.5"])
    def test_out_of_range_sample_rate(self, example_files, capsys, rate):
        transactions, taxonomy = example_files
        _expect_error(
            capsys,
            _mine_args(
                transactions, taxonomy, "--sample-rate", rate
            ),
            "sample_rate must be in (0, 1]",
            rate,
        )

    @pytest.mark.parametrize(
        "option, value",
        [
            ("--confidence", "0.9"),
            ("--sample-seed", "3"),
            ("--sample-method", "reservoir"),
        ],
    )
    def test_sample_options_require_sample_rate(
        self, example_files, capsys, option, value
    ):
        transactions, taxonomy = example_files
        _expect_error(
            capsys,
            _mine_args(transactions, taxonomy, option, value),
            option,
            "--sample-rate",
        )

    def test_out_of_range_confidence(self, example_files, capsys):
        transactions, taxonomy = example_files
        _expect_error(
            capsys,
            _mine_args(
                transactions,
                taxonomy,
                "--sample-rate",
                "0.5",
                "--confidence",
                "1.0",
            ),
            "confidence must be in (0, 1)",
        )

    def test_sample_rate_conflicts_with_append(
        self, example_files, capsys, tmp_path
    ):
        transactions, taxonomy = example_files
        delta = tmp_path / "delta.basket"
        save_transactions([["a11", "b11"]], delta)
        _expect_error(
            capsys,
            _mine_args(
                transactions,
                taxonomy,
                "--sample-rate",
                "0.5",
                "--append",
                str(delta),
            ),
            "--append",
            "--sample-rate",
        )


class TestConflictingSources:
    def test_query_needs_exactly_one_source(self, capsys, tmp_path):
        _expect_error(capsys, ["query"], "exactly one")
        _expect_error(
            capsys,
            [
                "query",
                "--store",
                str(tmp_path),
                "--result",
                str(tmp_path / "r.json"),
            ],
            "exactly one",
        )

    def test_serve_needs_exactly_one_source(self, capsys, tmp_path):
        _expect_error(capsys, ["serve"], "exactly one")
        _expect_error(
            capsys,
            [
                "serve",
                "--store",
                str(tmp_path),
                "--result",
                str(tmp_path / "r.json"),
            ],
            "exactly one",
        )

    def test_update_store_dir_without_init(
        self, capsys, tmp_path, example_files
    ):
        _transactions, taxonomy = example_files
        missing = tmp_path / "not-a-store"
        _expect_error(
            capsys,
            [
                "update",
                "--store",
                str(missing),
                "--taxonomy",
                taxonomy,
            ],
            "not a shard store",
            "--init-from",
        )

    def test_update_init_from_into_existing_store(
        self, capsys, tmp_path, example_files
    ):
        transactions, taxonomy = example_files
        store_dir = tmp_path / "store"
        assert (
            main(
                [
                    "update",
                    "--store",
                    str(store_dir),
                    "--taxonomy",
                    taxonomy,
                    "--init-from",
                    transactions,
                ]
            )
            == 0
        )
        _expect_error(
            capsys,
            [
                "update",
                "--store",
                str(store_dir),
                "--taxonomy",
                taxonomy,
                "--init-from",
                transactions,
            ],
            "already a shard store",
        )

    def test_explain_measure_conflicts_with_approx(self, capsys):
        _expect_error(
            capsys,
            ["explain", "--approx", "--measure", "kulczynski"],
            "not both",
        )


class TestQueryBounds:
    @pytest.mark.parametrize(
        "bound", ["--min-corr=nan", "--max-corr=inf", "--min-corr=-inf"]
    )
    def test_non_finite_correlation_bound(self, capsys, tmp_path, bound):
        archive = tmp_path / "run.json"
        save_result(synthetic_serve_result(20), archive)
        _expect_error(
            capsys,
            ["query", "--result", str(archive), bound],
            "must be finite",
        )


class TestMalformedInputs:
    def test_missing_transactions_file(self, capsys, tmp_path, example_files):
        _transactions, taxonomy = example_files
        _expect_error(
            capsys,
            _mine_args(str(tmp_path / "nope.basket"), taxonomy),
            "cannot read transactions",
        )

    def test_empty_basket_file(self, capsys, tmp_path, example_files):
        _transactions, taxonomy = example_files
        empty = tmp_path / "empty.basket"
        empty.write_text("# only a comment\n")
        _expect_error(
            capsys,
            _mine_args(str(empty), taxonomy),
            "no transactions",
        )

    def test_basket_line_with_no_items(self, capsys, tmp_path, example_files):
        _transactions, taxonomy = example_files
        bad = tmp_path / "bad.basket"
        bad.write_text("a11,b11\n,,\n")
        _expect_error(
            capsys,
            _mine_args(str(bad), taxonomy),
            "line 2",
            "empty transaction",
        )

    def test_jsonl_with_invalid_json(self, capsys, tmp_path, example_files):
        _transactions, taxonomy = example_files
        bad = tmp_path / "bad.jsonl"
        bad.write_text('["a11", "b11"]\nnot json at all\n')
        _expect_error(
            capsys,
            _mine_args(str(bad), taxonomy),
            "bad.jsonl:2",
            "not valid JSON",
        )

    def test_jsonl_with_non_array_row(self, capsys, tmp_path, example_files):
        _transactions, taxonomy = example_files
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"not": "an array"}\n')
        _expect_error(
            capsys,
            _mine_args(str(bad), taxonomy),
            "bad.jsonl:1",
            "expected a JSON array",
        )

    def test_transactions_with_unknown_items(
        self, capsys, tmp_path, example_files
    ):
        _transactions, taxonomy = example_files
        foreign = tmp_path / "foreign.basket"
        foreign.write_text("a11,who-is-this\n")
        _expect_error(
            capsys,
            _mine_args(str(foreign), taxonomy),
            "who-is-this",
        )

    def test_bench_quick_without_approx(self, capsys):
        _expect_error(
            capsys,
            ["bench", "table1", "--quick"],
            "--quick",
            "approx",
        )


class TestErrorsAreJsonFree:
    """A failing run must not leave half-rendered JSON on stdout."""

    def test_json_mode_failure_emits_no_stdout(
        self, capsys, tmp_path, example_files
    ):
        _transactions, taxonomy = example_files
        code = main(
            _mine_args(
                str(tmp_path / "nope.basket"), taxonomy, "--json"
            )
        )
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out.strip() == ""
        with pytest.raises(json.JSONDecodeError):
            json.loads(captured.err)
