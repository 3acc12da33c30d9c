"""Tests for the command-line interface."""

from __future__ import annotations

import pytest

from repro.cli import main


class TestFigure1Command:
    def test_prints_expected_sets(self, capsys):
        assert main(["figure1"]) == 0
        output = capsys.readouterr().out
        assert "['ABC', 'BD']" in output
        assert "['AD', 'CD']" in output
        assert "AD ∨ CD" in output


class TestGenerateAndMine:
    def test_round_trip(self, tmp_path, capsys):
        path = str(tmp_path / "data.dat")
        assert (
            main(
                [
                    "generate",
                    path,
                    "--items",
                    "15",
                    "--transactions",
                    "60",
                    "--seed",
                    "7",
                ]
            )
            == 0
        )
        assert "wrote 60 transactions" in capsys.readouterr().out

        assert (
            main(["mine", path, "--min-support", "0.3", "--show", "3"]) == 0
        )
        output = capsys.readouterr().out
        assert "|MTh| =" in output

    def test_absolute_threshold(self, tmp_path, capsys):
        path = str(tmp_path / "data.dat")
        main(["generate", path, "--items", "10", "--transactions", "40",
              "--seed", "1"])
        capsys.readouterr()
        assert main(["mine", path, "--min-support", "10"]) == 0
        assert "algorithm=apriori" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "algorithm", ["levelwise", "dualize_advance", "eclat"]
    )
    def test_other_algorithms(self, tmp_path, capsys, algorithm):
        path = str(tmp_path / "data.dat")
        main(["generate", path, "--items", "10", "--transactions", "30",
              "--seed", "2"])
        capsys.readouterr()
        assert (
            main(
                [
                    "mine",
                    path,
                    "--min-support",
                    "0.4",
                    "--algorithm",
                    algorithm,
                ]
            )
            == 0
        )

    def test_missing_file_is_reported(self, capsys):
        assert main(["mine", "/nonexistent/file.dat"]) == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["mine", "serve"])
    def test_fractional_absolute_threshold_is_rejected(
        self, tmp_path, capsys, command
    ):
        """A --min-support like 2.5 is neither a relative frequency nor
        a whole row count; silently truncating it to 2 would change the
        mined theory without notice."""
        path = str(tmp_path / "data.dat")
        main(["generate", path, "--items", "10", "--transactions", "40",
              "--seed", "1"])
        capsys.readouterr()
        assert main([command, path, "--min-support", "2.5"]) == 2
        assert "--min-support 2.5" in capsys.readouterr().err

    def test_seed_selects_the_shuffled_advance(self, tmp_path, capsys):
        """Without --seed, dualize_advance runs the library default (the
        deterministic advance); --seed 0 runs the seed-0 shuffle."""
        from repro.datasets.fimi import read_fimi
        from repro.instances.frequent_itemsets import mine_frequent_itemsets

        path = str(tmp_path / "data.dat")
        main(["generate", path, "--items", "20", "--transactions", "300",
              "--avg-length", "4", "--seed", "7"])
        capsys.readouterr()
        database = read_fimi(path)
        default, seeded = (
            mine_frequent_itemsets(
                database, 0.2, algorithm="dualize_advance", seed=seed
            ).queries
            for seed in (None, 0)
        )
        assert default != seeded
        args = ["mine", path, "--min-support", "0.2",
                "--algorithm", "dualize_advance"]
        assert main(args) == 0
        assert f"queries = {default}" in capsys.readouterr().out
        assert main(args + ["--seed", "0"]) == 0
        assert f"queries = {seeded}" in capsys.readouterr().out


class TestTransversalsCommand:
    def test_example8(self, capsys):
        # Vertices 0..3 for A..D: edges {D} and {A, C}.
        assert (
            main(["transversals", "--edges", "3, 0 2", "--method", "berge"])
            == 0
        )
        output = capsys.readouterr().out
        assert "2 minimal transversals" in output
        assert "0 3" in output and "2 3" in output

    @pytest.mark.parametrize("method", ["berge", "fk", "levelwise"])
    def test_all_methods(self, capsys, method):
        assert (
            main(
                ["transversals", "--edges", "0 1, 1 2", "--method", method]
            )
            == 0
        )
        assert "minimal transversals" in capsys.readouterr().out

    def test_empty_edge_rejected(self, capsys):
        assert main(["transversals", "--edges", "0 1,,2"]) == 2
        assert "error:" in capsys.readouterr().err


class TestRobustInputs:
    def test_malformed_dat_file(self, tmp_path, capsys):
        path = tmp_path / "bad.dat"
        path.write_text("definitely not\na fimi file\n")
        assert main(["mine", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1  # one-line message
        assert "not a valid FIMI .dat file" in err

    def test_missing_file_message_names_the_path(self, capsys):
        assert main(["mine", "/nonexistent/file.dat"]) == 2
        err = capsys.readouterr().err
        assert "cannot read /nonexistent/file.dat" in err

    def test_directory_as_input(self, tmp_path, capsys):
        assert main(["mine", str(tmp_path)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_non_numeric_edges(self, capsys):
        assert main(["transversals", "--edges", "a b, 1 2"]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "bad --edges" in err and "'a b'" in err

    def test_negative_item_id(self, tmp_path, capsys):
        path = tmp_path / "neg.dat"
        path.write_text("1 2\n-3 4\n")
        assert main(["mine", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "-3" in err and "negative" in err

    def test_workers_rejected_for_levelwise(self, tmp_path, capsys):
        path = str(tmp_path / "data.dat")
        main(["generate", path, "--items", "8", "--transactions", "20",
              "--seed", "3"])
        capsys.readouterr()
        assert (
            main(["mine", path, "--algorithm", "levelwise",
                  "--workers", "2"])
            == 2
        )
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "does not support workers" in err and "eclat" in err

    def test_budget_rejected_for_apriori(self, tmp_path, capsys):
        path = str(tmp_path / "data.dat")
        main(["generate", path, "--items", "8", "--transactions", "20",
              "--seed", "3"])
        capsys.readouterr()
        assert (
            main(["mine", path, "--algorithm", "apriori",
                  "--budget-queries", "5"])
            == 2
        )
        err = capsys.readouterr().err
        assert "does not support budgets" in err
        assert "use eclat, levelwise, dualize_advance or maxminer" in err

    def test_malformed_checkpoint(self, tmp_path, capsys):
        data = str(tmp_path / "data.dat")
        main(["generate", data, "--items", "8", "--transactions", "20",
              "--seed", "3"])
        bad = tmp_path / "ck.json"
        bad.write_text("{broken")
        capsys.readouterr()
        assert (
            main(["mine", data, "--algorithm", "levelwise",
                  "--resume", str(bad)])
            == 2
        )
        assert "error:" in capsys.readouterr().err


class TestBudgetAndResume:
    @pytest.fixture
    def dataset(self, tmp_path, capsys):
        path = str(tmp_path / "data.dat")
        main(["generate", path, "--items", "12", "--transactions", "60",
              "--seed", "7"])
        capsys.readouterr()
        return path

    def test_partial_exits_3_and_writes_checkpoint(
        self, dataset, tmp_path, capsys
    ):
        checkpoint = str(tmp_path / "ck.json")
        code = main(
            ["mine", dataset, "--min-support", "0.5",
             "--algorithm", "levelwise", "--budget-queries", "20",
             "--checkpoint", checkpoint]
        )
        assert code == 3
        out = capsys.readouterr().out
        assert "partial result (queries)" in out
        assert "certificate: valid" in out
        assert f"checkpoint written to {checkpoint}" in out

    def test_resume_reproduces_uninterrupted_output(
        self, dataset, tmp_path, capsys
    ):
        base_args = ["mine", dataset, "--min-support", "0.5",
                     "--algorithm", "levelwise"]
        assert main(base_args) == 0
        uninterrupted = capsys.readouterr().out
        checkpoint = str(tmp_path / "ck.json")
        assert (
            main(base_args + ["--budget-queries", "20",
                              "--checkpoint", checkpoint])
            == 3
        )
        capsys.readouterr()
        assert main(base_args + ["--resume", checkpoint]) == 0
        assert capsys.readouterr().out == uninterrupted

    def test_dualize_advance_resume_round_trip(
        self, dataset, tmp_path, capsys
    ):
        base_args = ["mine", dataset, "--min-support", "0.5",
                     "--algorithm", "dualize_advance", "--engine", "fk"]
        assert main(base_args) == 0
        uninterrupted = capsys.readouterr().out
        checkpoint = str(tmp_path / "ck.json")
        code = main(base_args + ["--budget-queries", "15",
                                 "--checkpoint", checkpoint])
        capsys.readouterr()
        if code == 0:
            return  # budget landed inside the final atomic unit
        assert code == 3
        assert main(base_args + ["--resume", checkpoint]) == 0
        assert capsys.readouterr().out == uninterrupted

    @pytest.mark.parametrize("algorithm", ["levelwise", "dualize_advance"])
    def test_resume_under_another_min_support_is_refused(
        self, algorithm, dataset, tmp_path, capsys
    ):
        base_args = ["mine", dataset, "--algorithm", algorithm]
        checkpoint = str(tmp_path / "ck.json")
        assert (
            main(base_args + ["--min-support", "0.5", "--budget-queries",
                              "10", "--checkpoint", checkpoint])
            == 3
        )
        capsys.readouterr()
        code = main(base_args + ["--min-support", "0.4",
                                 "--resume", checkpoint])
        assert code == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith("error: checkpoint was taken with predicate=")

    def test_nan_timeout_is_rejected(self, dataset, capsys):
        code = main(["mine", dataset, "--min-support", "0.5",
                     "--algorithm", "eclat", "--timeout", "nan"])
        assert code == 2
        assert "timeout" in capsys.readouterr().err

    def test_maxminer_budget_partial_without_checkpoint(
        self, dataset, capsys
    ):
        code = main(
            ["mine", dataset, "--min-support", "0.5",
             "--algorithm", "maxminer", "--budget-queries", "10",
             "--checkpoint", "/tmp/should-not-exist.json"]
        )
        assert code == 3
        out = capsys.readouterr().out
        assert "does not support resume" in out

    def test_transversals_family_budget(self, capsys):
        code = main(
            ["transversals", "--edges", "0 1, 1 2, 2 0, 0 3, 1 3",
             "--method", "berge", "--max-family", "2"]
        )
        assert code == 3
        out = capsys.readouterr().out
        assert "partial family (family)" in out
        assert "edges folded" in out

    def test_transversals_complete_under_roomy_budget(self, capsys):
        code = main(
            ["transversals", "--edges", "0 1, 1 2", "--method", "fk",
             "--max-family", "50"]
        )
        assert code == 0
        assert "minimal transversals" in capsys.readouterr().out


class TestEclatCli:
    @pytest.fixture
    def dataset(self, tmp_path, capsys):
        path = str(tmp_path / "data.dat")
        main(["generate", path, "--items", "12", "--transactions", "80",
              "--seed", "11"])
        capsys.readouterr()
        return path

    def test_matches_apriori_output(self, dataset, capsys):
        base = ["mine", dataset, "--min-support", "0.3", "--show", "5"]
        assert main(base) == 0
        apriori_out = capsys.readouterr().out
        assert main(base + ["--algorithm", "eclat"]) == 0
        eclat_out = capsys.readouterr().out
        assert "algorithm=eclat" in eclat_out
        # Identical except for the algorithm named in the summary line.
        assert eclat_out.replace("algorithm=eclat", "algorithm=apriori") == (
            apriori_out
        )

    def test_workers_compose(self, dataset, capsys):
        base = ["mine", dataset, "--min-support", "0.3",
                "--algorithm", "eclat", "--show", "5"]
        assert main(base) == 0
        serial_out = capsys.readouterr().out
        assert main(base + ["--workers", "2"]) == 0
        assert capsys.readouterr().out == serial_out

    def test_budget_partial_exits_3(self, dataset, capsys):
        code = main(
            ["mine", dataset, "--min-support", "0.5",
             "--algorithm", "eclat", "--budget-queries", "6"]
        )
        assert code == 3
        out = capsys.readouterr().out
        assert "partial result (queries)" in out
        assert "certificate: valid" in out

    def test_metrics_without_trace_match_the_traced_run(
        self, dataset, tmp_path, capsys
    ):
        # --metrics alone feeds the registry and the monitor with no
        # writer; both must conclude what they do beside the writer.
        def tables(stderr):
            return [
                line.split(" sum=")[0]
                for line in stderr.splitlines()
                if not line.startswith("trace written to")
            ]

        base = ["mine", dataset, "--min-support", "0.5",
                "--algorithm", "eclat", "--metrics"]
        assert main(base) == 0
        alone = capsys.readouterr()
        assert main(base + ["--trace", str(tmp_path / "t.jsonl")]) == 0
        traced = capsys.readouterr()
        assert alone.out == traced.out
        assert tables(alone.err) == tables(traced.err)
        assert any(
            line.startswith("events.oracle.query")
            for line in tables(alone.err)
        )
        assert "theorem monitor: ok" in alone.err


class TestBackendFlag:
    @pytest.fixture
    def dataset(self, tmp_path, capsys):
        path = str(tmp_path / "data.dat")
        main(["generate", path, "--items", "12", "--transactions", "80",
              "--seed", "11"])
        capsys.readouterr()
        return path

    @pytest.mark.parametrize("backend", ["auto", "roaring"])
    def test_every_backend_prints_identical_theory(
        self, dataset, capsys, backend
    ):
        base = ["mine", dataset, "--min-support", "0.3",
                "--algorithm", "eclat", "--show", "5"]
        assert main(base) == 0
        reference_out = capsys.readouterr().out
        assert main(base + ["--backend", backend]) == 0
        assert capsys.readouterr().out == reference_out

    def test_roaring_composes_with_workers(self, dataset, capsys):
        base = ["mine", dataset, "--min-support", "0.3",
                "--algorithm", "eclat", "--backend", "roaring", "--show", "5"]
        assert main(base) == 0
        serial_out = capsys.readouterr().out
        assert main(base + ["--workers", "2"]) == 0
        assert capsys.readouterr().out == serial_out

    @pytest.mark.parametrize(
        "argv",
        [
            ["mine", "{data}", "--backend", "bitpacked"],
            ["mine", "{data}", "--algorithm", "eclat", "--workers", "2",
             "--backend", "bitpacked"],
            ["serve", "{data}", "--backend", "bitpacked"],
        ],
    )
    def test_unknown_backend_one_line_error_exit_2(
        self, dataset, capsys, argv
    ):
        argv = [dataset if token == "{data}" else token for token in argv]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "error:" in err
        assert "bitpacked" in err and "roaring" in err

    def test_unknown_backend_rejected_before_file_io(self, capsys):
        # Validation precedes reading, so even a missing data file
        # reports the flag error rather than the I/O error.
        assert (
            main(["mine", "/nonexistent/file.dat",
                  "--backend", "bitpacked"])
            == 2
        )
        err = capsys.readouterr().err
        assert "bitpacked" in err
        assert "cannot read" not in err


class TestParser:
    def test_unknown_command_exits(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])

    def test_no_command_exits(self):
        with pytest.raises(SystemExit):
            main([])

    @pytest.mark.parametrize(
        "argv",
        [
            ["mine", "data.dat", "--memory", "shm"],
            ["transversals", "--edges", "0 1", "--backend", "auto"],
            ["transversals", "--edges", "0 1", "--method", "rs"],
            ["transversals", "--edges", "0 1", "--method", "dfs"],
            ["mine", "data.dat", "--algorithm", "randomized"],
            ["mine", "data.dat", "--engine", "eclat"],
        ],
    )
    def test_removed_options_are_rejected(self, argv):
        with pytest.raises(SystemExit) as caught:
            main(argv)
        assert caught.value.code == 2
