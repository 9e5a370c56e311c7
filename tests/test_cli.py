import hashlib
import json
import os
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mcld import cli
from mcld.errors import InvalidInput
from mcld.feller import power_law_reference
from mcld.serialize import dumps
from mcld.truncation import truncation_report

from helpers import fail_sandwich_at, make_clocks_unreadable


class TestSimulate:
    def test_smoke(self, tmp_path):
        code = cli.main(
            [
                "simulate", "--masses", "1,1", "--lambda", "1", "--t", "0.6",
                "--seed", "7", "--out-dir", str(tmp_path),
            ]
        )
        assert code == 0
        assert (tmp_path / "trajectory.csv").exists()
        assert (tmp_path / "events.json").exists()
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["seed"] == 7

    def test_pure_coalescent(self, tmp_path):
        code = cli.main(
            [
                "simulate", "--masses", "1,0.5", "--lambda", "0", "--t", "1",
                "--seed", "3", "--out-dir", str(tmp_path),
            ]
        )
        assert code == 0
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["deleted_mass"] == 0

    def test_invalid_masses_exit_2(self, tmp_path, capsys):
        code = cli.main(
            [
                "simulate", "--masses", "3,1,-2", "--lambda", "1", "--t", "1",
                "--out-dir", str(tmp_path),
            ]
        )
        assert code == 2
        assert "nonnegative non-increasing" in capsys.readouterr().err

    def test_exactly_one_state_source(self, tmp_path):
        code = cli.main(
            [
                "simulate", "--masses", "1", "--gen", "constant:1:2",
                "--t", "1", "--out-dir", str(tmp_path),
            ]
        )
        assert code == 2

    def test_masses_file_roundtrip(self, tmp_path):
        path = tmp_path / "masses.json"
        path.write_text(dumps([1.0, 0.25]))
        code = cli.main(
            [
                "simulate", "--masses-file", str(path), "--lambda", "0",
                "--t", "0.5", "--seed", "1", "--out-dir", str(tmp_path / "out"),
            ]
        )
        assert code == 0

    def test_generator_rules(self, tmp_path):
        for rule in ("powerlaw:0.6:8", "constant:0.5:4", "uniform:6"):
            code = cli.main(
                [
                    "simulate", "--gen", rule, "--lambda", "0", "--t", "0.2",
                    "--seed", "5", "--out-dir", str(tmp_path / rule.replace(":", "_")),
                ]
            )
            assert code == 0
        assert cli.main(
            ["simulate", "--gen", "nope:1", "--t", "1", "--out-dir", str(tmp_path)]
        ) == 2

    def test_env_seed_fallback(self, tmp_path, monkeypatch):
        monkeypatch.setenv("MCLD_SEED", "0x2A")
        code = cli.main(
            [
                "simulate", "--masses", "1", "--lambda", "0", "--t", "0.1",
                "--out-dir", str(tmp_path),
            ]
        )
        assert code == 0
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["seed"] == 42

    def test_byte_identical_reruns(self, tmp_path):
        for sub in ("a", "b"):
            cli.main(
                [
                    "simulate", "--gen", "powerlaw:0.6:32", "--lambda", "1",
                    "--t", "1", "--seed", "9", "--out-dir", str(tmp_path / sub),
                ]
            )
        for name in ("trajectory.csv", "events.json", "summary.json"):
            assert (tmp_path / "a" / name).read_bytes() == (
                tmp_path / "b" / name
            ).read_bytes()


class TestTruncation:
    def test_full_level_gap_zero(self, tmp_path):
        code = cli.main(
            [
                "truncation", "--masses", "1,0.5,0.25", "--lambda", "1",
                "--t", "1", "--truncate", "3", "--seed", "2", "--replicas", "2",
                "--out-dir", str(tmp_path),
            ]
        )
        assert code == 0
        rep = json.loads((tmp_path / "report_m3_r0.json").read_text())
        assert rep["gap"] == 0.0
        assert rep["holds"] is True

    def test_median_gap_non_increasing_in_level(self, tmp_path):
        code = cli.main(
            [
                "truncation", "--gen", "powerlaw:0.6:64", "--lambda", "1",
                "--t", "1", "--truncate", "8,16,32", "--seed", "4",
                "--replicas", "25", "--out-dir", str(tmp_path),
            ]
        )
        assert code == 0
        medians = []
        for m in (8, 16, 32):
            gaps = [
                json.loads((tmp_path / f"report_m{m}_r{r}.json").read_text())["gap"]
                for r in range(25)
            ]
            medians.append(float(np.median(gaps)))
        assert medians[0] >= medians[1] >= medians[2]

    def test_missing_levels_rejected(self, tmp_path):
        code = cli.main(
            [
                "truncation", "--masses", "1", "--t", "1", "--truncate", "",
                "--out-dir", str(tmp_path),
            ]
        )
        assert code == 2

    def test_levels_checked_before_any_clock(self, tmp_path, monkeypatch, capsys):
        make_clocks_unreadable(monkeypatch)
        argv = (
            "truncation --gen powerlaw:0.6:4096 --t 1 --truncate 16,5000 --replicas 3"
        ).split()
        out = tmp_path / "out"
        assert cli.main([*argv, "--out-dir", str(out)]) == 2
        assert "[0, 4096]" in capsys.readouterr().err
        assert not out.exists()
        reports = truncation_report(
            power_law_reference(0.6, 4096), 0, 1.0, 1.0, [16, 5000], 3
        )
        with pytest.raises(InvalidInput):
            list(reports)

    def test_cancelled_gap_is_not_a_violation(self, tmp_path):
        # s2_check = 1e58 + 9 rounds to s2_hat = 1e58; the gap is 9, not 0
        code = cli.main(
            [
                "truncation", "--masses", "100000000000000000000000000000,3",
                "--t", "0", "--truncate", "1", "--out-dir", str(tmp_path),
            ]
        )
        assert code == 0
        rep = json.loads((tmp_path / "report_m1_r0.json").read_text())
        assert (rep["gap"], rep["distance"], rep["holds"]) == (9, 3, True)

    def test_invariant_violation_reported_and_other_reports_written(
        self, tmp_path, monkeypatch, capsys
    ):
        fail_sandwich_at(monkeypatch, 32)
        code = cli.main(
            [
                "truncation", "--gen", "powerlaw:0.6:64", "--t", "1",
                "--truncate", "16,32", "--replicas", "2", "--seed", "4",
                "--out-dir", str(tmp_path),
            ]
        )
        assert code == 3
        err = capsys.readouterr().err
        assert "invariant violation at m=32 replica=0" in err
        assert "invariant violation at m=32 replica=1" in err
        assert sorted(os.listdir(tmp_path)) == [
            "report_m16_r0.json", "report_m16_r1.json"
        ]


class TestFp:
    def test_single_n_single_replica_rows(self, tmp_path):
        code = cli.main(
            [
                "fp", "--n-list", "300", "--lambda", "0", "--u", "0",
                "--t", "0.5", "--replicas", "1", "--top-r", "3", "--seed", "6",
                "--n-ref", "600", "--workers", "1", "--out-dir", str(tmp_path),
            ]
        )
        assert code == 0
        lines = (tmp_path / "samples.csv").read_text().strip().splitlines()
        assert lines[0] == "n,replica,t,rank,scaled_mass"
        assert len(lines) == 1 + 3  # one row per (t, rank)

    def test_multiple_times_in_one_run(self, tmp_path):
        code = cli.main(
            [
                "fp", "--n-list", "300", "--lambda", "1", "--u", "0",
                "--t", "0.3,0.6", "--replicas", "3", "--top-r", "2",
                "--seed", "5", "--n-ref", "600", "--workers", "1",
                "--out-dir", str(tmp_path),
            ]
        )
        assert code == 0
        config = json.loads((tmp_path / "config.json").read_text())
        assert config[0]["t_list"] == [0.3, 0.6]
        lines = (tmp_path / "samples.csv").read_text().strip().splitlines()
        assert len(lines) == 1 + 3 * 2 * 2  # replicas x times x ranks
        comparison = json.loads((tmp_path / "comparison.json").read_text())
        assert len(comparison["ks_vs_reference"]["300"]) == 2

    def test_workers_match_serial(self, tmp_path):
        argv = [
            "fp", "--n-list", "200", "--lambda", "1", "--u", "0", "--t", "0.4",
            "--replicas", "6", "--top-r", "2", "--seed", "8", "--n-ref", "400",
        ]
        assert cli.main(argv + ["--workers", "1", "--out-dir", str(tmp_path / "s")]) == 0
        assert cli.main(argv + ["--workers", "2", "--out-dir", str(tmp_path / "p")]) == 0
        assert (tmp_path / "s" / "samples.csv").read_bytes() == (
            tmp_path / "p" / "samples.csv"
        ).read_bytes()
        assert (tmp_path / "s" / "comparison.json").read_bytes() == (
            tmp_path / "p" / "comparison.json"
        ).read_bytes()


class TestFpMatchesLibrary:
    def test_cli_reproduces_library_comparison(self, tmp_path):
        from mcld.frozen_percolation import fp_mcld_compare
        from mcld.serialize import format_number

        code = cli.main(
            [
                "fp", "--n-list", "300,600", "--lambda", "1", "--u", "0",
                "--t", "0.5", "--replicas", "8", "--top-r", "2", "--seed", "21",
                "--n-ref", "1200", "--workers", "1", "--out-dir", str(tmp_path),
            ]
        )
        assert code == 0
        report = fp_mcld_compare(
            n_list=[300, 600], lam_rescaled=1.0, u=0.0, t_list=[0.5], replicas=8,
            top_r=2, seed=21, n_ref=1200,
        )
        comparison = json.loads((tmp_path / "comparison.json").read_text())
        key_t = format_number(0.5)
        for n in (300, 600):
            assert comparison["ks_vs_reference"][str(n)][key_t] == list(
                report.ks_vs_reference[n][0]
            )


class TestOutputAnchors:
    """sha256 of every output file, pinned: a refactor must not move a byte."""

    @pytest.mark.parametrize(
        "argv, digests",
        [
            (
                "--n-list 200,400 --lambda 1 --u 0 --t 0.5 --replicas 4 --top-r 2 "
                "--seed 13 --n-ref 800 --workers 1",
                {
                    "comparison.json": "3d79beb77c5c27147cba6fc3814b04904404066f212dd0271cda5b001fd035bc",
                    "config.json": "fea9da9d0fe8f74576bb1808d347413038703b9ad3159e2e5c3cad07ab1676f1",
                    "samples.csv": "808b1497699f1784fc6308b0941e12aa36784973135fe77c8a892e77c39e7f77",
                },
            ),
            (
                "--n-list 300,600 --lambda 1 --u 0 --t 0.3,0.6 --replicas 8 --top-r 2 "
                "--seed 21 --n-ref 1200 --workers 2",
                {
                    "comparison.json": "18d28e21af87a4a7f7b979926248da503bd066ea535f4cf64aaae4636ed2c742",
                    "config.json": "1d992d0bfae0aa44cfbf4d5b373dd0b06c323a42405704fc000ef603faf0c95f",
                    "samples.csv": "0c6de9e2c2a9e84618fd1ee3871c65d0a3dbaf845de96e35d8ed86eae05927e3",
                },
            ),
        ],
    )
    def test_fp_files(self, tmp_path, argv, digests):
        assert cli.main(["fp", *argv.split(), "--out-dir", str(tmp_path)]) == 0
        for name, digest in digests.items():
            assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest

    def test_truncation_reports(self, tmp_path):
        # criterion 10's truncation run, reports concatenated in name order
        argv = (
            "truncation --gen powerlaw:0.6:64 --lambda 1 --t 1 --truncate 16,32 "
            "--seed 12 --replicas 5"
        ).split()
        assert cli.main([*argv, "--out-dir", str(tmp_path)]) == 0
        names = sorted(os.listdir(tmp_path))
        assert len(names) == 10
        blob = b"".join((tmp_path / name).read_bytes() for name in names)
        assert hashlib.sha256(blob).hexdigest() == (
            "9b42b80ae26ceca27c3648c6eb1a610baa668cd976efcc46db1017caeef6fb2a"
        )

    def test_readme_truncation_reports(self, tmp_path):
        # the README's truncation example: every level, 60 reports in name order
        argv = (
            "truncation --gen powerlaw:0.6:512 --lambda 1 --t 1 --truncate 16,64,256 "
            "--replicas 20 --seed 3"
        ).split()
        assert cli.main([*argv, "--out-dir", str(tmp_path)]) == 0
        names = sorted(os.listdir(tmp_path))
        assert len(names) == 60
        blob = b"".join((tmp_path / name).read_bytes() for name in names)
        assert hashlib.sha256(blob).hexdigest() == (
            "9f86da7782bbf5a0ffbbaf8f2ce55a038c0e36f468f654fff8635e9b313a1a5b"
        )

    @pytest.mark.parametrize(
        "argv, digests",
        [
            (
                "--masses 1,1 --lambda 1 --t 0.6 --seed 7",
                {
                    "trajectory.csv": "862b2b90efa56b76278c776ff1c84d0ccb4bb7a2ed90b2a818ea90dd7e5d5924",
                    "events.json": "37517e5f3dc66819f61f5a7bb8ace1921282415f10551d2defa5c3eb0985b570",
                    "summary.json": "c36e90fa289c3e85da063acb3f0ab2b4850a551d119e1920736cd50da2bd7187",
                },
            ),
            (
                "--gen powerlaw:0.6:512 --lambda 1 --grid 0.25,0.5,1",
                {
                    "trajectory.csv": "dea835f2247403080888e50fb24bca3fc4b41a9ccb3e9709e5a9ce69d34fefbd",
                    "events.json": "84cdcdf3046ba8fd5b7411a3a3f8e8c2a4b08e7509a68006abc67ca4be1793ce",
                    "summary.json": "1354957abd39d823c81db2d9dff250b674860874ee8f90ec6b0cae8340923fe5",
                },
            ),
        ],
    )
    def test_readme_simulate_files(self, tmp_path, monkeypatch, argv, digests):
        # the README's two simulate examples, with the seed taken as given
        monkeypatch.delenv("MCLD_SEED", raising=False)
        assert cli.main(["simulate", *argv.split(), "--out-dir", str(tmp_path)]) == 0
        for name, digest in digests.items():
            assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest


BAD_NUMBER_BASES = {
    "simulate": "simulate --masses 1,0.5 --lambda 1 --t 1",
    "truncation": "truncation --gen powerlaw:0.6:16 --lambda 1 --t 1 --truncate 4 "
    "--replicas 2",
    "fp": "fp --n-list 100 --lambda 1 --u 0 --t 0.5 --replicas 2 --top-r 2 "
    "--n-ref 200 --workers 1",
}


class TestCheckedNumbers:
    @pytest.mark.parametrize(
        "command, changes",
        [
            ("simulate", "--lambda abc"),
            ("simulate", "--lambda -1"),
            ("simulate", "--lambda nan"),
            ("simulate", "--seed zz"),
            ("simulate", "--t inf"),
            ("simulate", "--grid 0.1,x"),
            ("simulate", "--grid 0.5"),  # with --t 1: exactly one is allowed
            ("simulate", "--masses 1e200,1e200"),
            ("simulate", "--masses 1e100,1e100 --lambda 1e300"),
            ("truncation", "--replicas abc"),
            ("truncation", "--replicas 0"),
            ("truncation", "--lambda abc"),
            ("truncation", "--seed zz"),
            ("truncation", "--truncate 4,99"),
            ("truncation", "--truncate 4,4"),
            ("truncation", "--gen constant:1e200:4"),
            ("truncation", "--gen powerlaw:-1000:5"),
            ("fp", "--replicas 0"),
            ("fp", "--replicas abc"),
            ("fp", "--top-r 0"),
            ("fp", "--top-r x"),
            ("fp", "--u abc"),
            ("fp", "--u inf"),
            ("fp", "--n-ref 0"),
            ("fp", "--n-ref 1e3"),
            ("fp", "--workers 0"),
            ("fp", "--workers two"),
            ("fp", "--t 0.5,abc"),
            ("fp", "--t 0.6,0.3"),
            ("fp", "--t 1e300"),  # the reference's tail budget overflows
            ("fp", "--seed -1"),
            ("fp", "--lambda abc"),
            ("fp", "--n-list 10000000000000000000000"),
            ("fp", "--n-ref 134217729"),
        ],
    )
    def test_bad_value_exits_2_without_output(self, tmp_path, capsys, command, changes):
        argv = BAD_NUMBER_BASES[command].split()
        changes = changes.split()
        for flag, value in zip(changes[::2], changes[1::2]):
            if flag in argv:
                argv[argv.index(flag) + 1] = value
            else:
                argv += [flag, value]
        out = tmp_path / "out"
        assert cli.main([*argv, "--out-dir", str(out)]) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err and err.startswith("error:")
        assert not out.exists()

    @pytest.mark.parametrize(
        "entries",
        ['["a"]', "[null]", "[[1]]", "[1e999]",
         pytest.param(f"[1{'0' * 400}]", id="[400-digit integer]")],
    )
    def test_bad_masses_file_entry(self, tmp_path, capsys, entries):
        path = tmp_path / "masses.json"
        path.write_text(entries)
        out = tmp_path / "out"
        argv = ["simulate", "--masses-file", str(path), "--t", "1", "--out-dir", str(out)]
        assert cli.main(argv) == 2
        assert "--masses-file entry" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", sorted(BAD_NUMBER_BASES))
    def test_bad_env_seed(self, tmp_path, monkeypatch, capsys, command):
        monkeypatch.setenv("MCLD_SEED", "zz")
        out = tmp_path / "out"
        argv = BAD_NUMBER_BASES[command].split()
        assert cli.main([*argv, "--out-dir", str(out)]) == 2
        assert "MCLD_SEED" in capsys.readouterr().err
        assert not out.exists()


_BIG = "1" + "0" * 29  # a 30-digit integer
_HOSTILE = ["nan", "inf", "1e400", "-1", "0", _BIG, "", "abc"]
# plain values half the time, so that runs also get past their first argument
_token = st.one_of(st.sampled_from(["1", "3"]), st.sampled_from(_HOSTILE))
_support = st.sampled_from(["0", "1", "5", "8", "-1", "", "abc", "1e400"])
_rule_number = st.sampled_from(["-1000", "1e200", "1e400", "nan", "-1", "0.6", _BIG, ""])
_gen_rule = st.one_of(
    st.builds(
        "{}:{}:{}".format,
        st.sampled_from(["powerlaw", "constant"]), _rule_number, _support,
    ),
    st.builds("uniform:{}".format, _support),
    st.sampled_from(["powerlaw:1", "constant", "", "nope:1:2", "uniform:1:2"]),
)


def _joined(max_size):
    return st.lists(_token, max_size=max_size).map(",".join)


def _sorted_list(values, max_size, reverse):
    # well-formed lists too, so that runs reach the engines
    return st.lists(
        st.sampled_from(values), max_size=max_size, unique=not reverse
    ).map(lambda xs: ",".join(sorted(xs, key=float, reverse=reverse)))


_masses = st.one_of(
    _joined(8), _sorted_list([_BIG, "3", "1", "0.5", "1e-150", "0"], 8, True)
)
_grid = st.one_of(_joined(4), _sorted_list(["0", "0.5", "1", "3", _BIG], 4, False))


@st.composite
def fuzzed_argv(draw):
    """``simulate`` or ``truncation`` with every value drawn from hostile
    tokens; generator supports stay at 8 or less."""
    command = draw(st.sampled_from(["simulate", "truncation"]))
    source = draw(st.sampled_from(["--masses", "--gen"]))
    argv = [command, source, draw(_masses if source == "--masses" else _gen_rule)]
    argv += ["--lambda", draw(_token)]
    if command == "truncation" or draw(st.booleans()):
        argv += ["--t", draw(_token)]
    else:
        argv += ["--grid", draw(_grid)]
    if draw(st.booleans()):
        argv += ["--seed", draw(_token)]
    if command == "truncation":
        argv += ["--truncate", draw(_joined(3).filter(bool))]
        # a 30-digit replica count is valid input asking for unbounded work
        argv += ["--replicas", draw(_token.filter(lambda t: t != _BIG))]
    return argv


class TestCliFuzz:
    # derandomized: the same 200 argument lists on every run
    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(argv=fuzzed_argv())
    @example(argv=["simulate", "--gen", "powerlaw:-1000:5", "--t", "1"])
    def test_exit_code_contract(self, argv):
        # 0 or 2, never an exception; a refused run leaves no out-dir
        with tempfile.TemporaryDirectory() as tmp:
            out = Path(tmp) / "out"
            code = cli.main([*argv, "--out-dir", str(out)])
            assert code in (0, 2), argv
            if code == 2:
                assert not out.exists(), argv


class TestSelftest:
    def test_quick_suite_passes(self, tmp_path):
        code = cli.main(["selftest", "--suite", "quick", "--out-dir", str(tmp_path)])
        assert code == 0
        results = json.loads((tmp_path / "selftest.json").read_text())
        assert results["all_passed"] is True

    def test_corrupted_prf_fails_pathwise(self, tmp_path):
        code = cli.main(
            [
                "selftest", "--suite", "quick", "--corrupt-clock-prf",
                "--out-dir", str(tmp_path),
            ]
        )
        assert code == 1
        results = json.loads((tmp_path / "selftest.json").read_text())
        assert results["all_passed"] is False
        passed = {c["name"]: c["passed"] for c in results["criteria"]}
        assert passed["1-pathwise-equivalence"] is False


class TestParsing:
    def test_unknown_command_exit_2(self):
        assert cli.main(["frobnicate"]) == 2

    @pytest.mark.parametrize(
        "argv",
        [
            # selftest takes no --seed; truncation takes one --t and no --grid
            "selftest --suite quick --seed 1",
            "truncation --masses 1,0.5 --t 1 --grid 1 --truncate 1",
            "truncation --masses 1,0.5 --truncate 1",
        ],
    )
    def test_unknown_or_missing_option_exit_2(self, tmp_path, argv):
        out = tmp_path / "out"
        assert cli.main([*argv.split(), "--out-dir", str(out)]) == 2
        assert not out.exists()

    def test_grid_must_increase(self, tmp_path):
        code = cli.main(
            [
                "simulate", "--masses", "1", "--grid", "0.5,0.4",
                "--out-dir", str(tmp_path),
            ]
        )
        assert code == 2
