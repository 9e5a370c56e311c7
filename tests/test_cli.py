import hashlib
import json
import os
import platform
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mcld import cli, serialize
from mcld.clock_field import ClockField
from mcld.errors import InvalidInput
from mcld.events import deleted_mass_up_to, run_clocked
from mcld.feller import power_law_reference
from mcld.serialize import dumps
from mcld.truncation import truncation_report

from helpers import (
    fail_sandwich_at,
    hostile_masses,
    make_clocks_unreadable,
    oracle_csv_text,
    oracle_dumps,
)


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

    def test_powerlaw_rule_is_the_power_law_reference(self):
        state = cli._parse_gen("powerlaw:0.6:512", 0)
        assert state == power_law_reference(0.6, 512)
        assert state.masses == tuple(float(i) ** -0.6 for i in range(1, 513))

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


def _text(x: float) -> str:
    return "%.17g" % x


# masses whose clock rates t * m_1^2 stay just inside the float range at
# t = 1, or are the least positive ones
_NEAR_BOUNDS = st.lists(
    st.sampled_from([1.3e154, 1e154, 1e150, 1e-160, 5e-324]), max_size=6
).map(lambda m: sorted(m, reverse=True))
_GRIDS = st.lists(
    st.sampled_from([-0.0, 0.0, 1e-300, 0.3, 0.5, 1.0]), min_size=1, max_size=4, unique=True
).map(sorted)


class TestSimulateFiles:
    """``mcld simulate`` writes the bytes of formatting every value afresh,
    through one ``write_csv`` and two ``write_json`` calls."""

    @staticmethod
    def _oracle_files(masses, lam, grid, seed) -> dict[str, str]:
        traj = run_clocked(masses, ClockField(seed), lam, grid)
        rows = [
            (t, rank, m)
            for t, state in zip(traj.times, traj.states)
            for rank, m in enumerate(state, start=1)
        ]
        events = [
            {"time": e.time, "kind": e.kind, "components": list(e.components), "weight": e.weight}
            for e in traj.events
        ]
        summary = {
            "seed": seed,
            "lambda": lam,
            "t_end": grid[-1],
            "final_state": list(traj.states[-1]),
            "deleted_mass": deleted_mass_up_to(traj, grid[-1]),
            "events": len(traj.events),
        }
        return {
            "trajectory.csv": oracle_csv_text(("time", "rank", "mass"), rows),
            "events.json": oracle_dumps(events) + "\n",
            "summary.json": oracle_dumps(summary) + "\n",
        }

    @settings(max_examples=60, deadline=None)
    @given(
        hostile_masses(max_support=12) | _NEAR_BOUNDS,
        st.sampled_from([0.0, 1.0]),
        _GRIDS,
        st.integers(0, 2 ** 32),
    )
    @example([1e-10, 1e-10], 1.0, [-0.0, 0.5, 1.0], 0)
    def test_files_match_the_oracle(self, masses, lam, grid, seed):
        argv = [
            "simulate", "--masses", ",".join(map(_text, masses)), "--lambda", _text(lam),
            "--grid=" + ",".join(map(_text, grid)), "--seed", str(seed),
        ]
        try:
            want = self._oracle_files(masses, lam, grid, seed)
        except InvalidInput:
            want = None  # the clock rates overflow: the run is refused
        with tempfile.TemporaryDirectory() as tmp:
            code = cli.main([*argv, "--out-dir", tmp])
            if want is None:
                assert code == 2 and not os.listdir(tmp)
                return
            assert code == 0
            for name, text in want.items():
                assert (Path(tmp) / name).read_text(encoding="utf-8") == text

    def test_negative_zero_times_and_a_zero_deleted_mass(self, tmp_path):
        # the run's one table must give neither zero the text of the other
        argv = "simulate --masses 1e-10,1e-10 --lambda 1 --grid=-0,0.5,1 --seed 0"
        assert cli.main([*argv.split(), "--out-dir", str(tmp_path)]) == 0
        csv = (tmp_path / "trajectory.csv").read_text(encoding="utf-8")
        assert csv.startswith("time,rank,mass\n-0,1,1e-10\n-0,2,1e-10\n0.5,1,")
        assert '"deleted_mass": 0,' in (tmp_path / "summary.json").read_text(encoding="utf-8")

    def test_one_csv_and_two_json_writes_with_the_path_first(self, tmp_path, monkeypatch):
        # a benchmark's traced view counts these calls and the size of the
        # file at their first argument
        calls = []

        def recording(name):
            real = getattr(serialize, name)

            def write(path, *args, **kwargs):
                real(path, *args, **kwargs)
                calls.append((name, Path(path), os.path.getsize(path)))

            return write

        for name in ("write_csv", "write_json"):
            monkeypatch.setattr(serialize, name, recording(name))
        argv = "simulate --gen powerlaw:0.6:64 --lambda 1 --grid 0.25,0.5,1 --seed 4"
        assert cli.main([*argv.split(), "--out-dir", str(tmp_path)]) == 0
        files = ("trajectory.csv", "events.json", "summary.json")
        assert [(name, path) for name, path, _ in calls] == [
            ("write_csv", tmp_path / files[0]),
            ("write_json", tmp_path / files[1]),
            ("write_json", tmp_path / files[2]),
        ]
        assert [size for _, _, size in calls] == [
            (tmp_path / name).stat().st_size for name in files
        ]


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
        with pytest.raises(InvalidInput):
            truncation_report(power_law_reference(0.6, 4096), 0, 1.0, 1.0, [16, 5000], 3)

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

    @pytest.mark.parametrize(
        "state, terms",
        [
            # alpha^1.5 leaves the float range where t * t is 0: summed in logs
            ("--masses 1e105,1e-5 --lambda 1 --t 1e-300", [2e-10, 2e-295]),
            # (1 + t alpha)^2 leaves the float range where beta is 0
            ("--gen constant:1e78:1 --lambda 0 --t 0.3", [0.0, 0.0]),
        ],
    )
    def test_bound_factor_past_float_range_is_not_refused(self, tmp_path, state, terms):
        argv = ["truncation", *state.split(), "--truncate", "1"]
        assert cli.main([*argv, "--out-dir", str(tmp_path)]) == 0
        rep = json.loads((tmp_path / "report_m1_r0.json").read_text())
        assert rep["bound_terms"] == pytest.approx(terms, rel=1e-12)

    def test_bound_term_past_float_range_is_refused(self, tmp_path, capsys):
        # the bad-set term of [1e150, 1e-160] at level 1 is about 2e430
        argv = "truncation --masses 1e150,1e-160 --lambda 1 --t 1 --truncate 1".split()
        out = tmp_path / "out"
        assert cli.main([*argv, "--out-dir", str(out)]) == 2
        assert "the truncation bound overflows" in capsys.readouterr().err
        assert not out.exists()

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

    def test_horizon_below_float_range_of_the_budget(self, tmp_path):
        # t * t * M underflows to 0 in the tail budget's first constraint
        argv = (
            "fp --n-list 5 --t 1e-300 --replicas 1 --top-r 1 --workers 1"
        ).split()
        assert cli.main([*argv, "--out-dir", str(tmp_path)]) == 0
        lines = (tmp_path / "samples.csv").read_text().strip().splitlines()
        assert len(lines) == 1 + 1

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


STATE_FLAGS = ("--masses", "--masses-file", "--gen")
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
            # a generator's support is a count of at least 0
            ("truncation", "--gen constant:1:-1"),
            ("truncation", "--gen powerlaw:0.6:-3"),
            ("truncation", "--gen uniform:-1"),
            # the bad-set term, about 2e430, is past the float range
            ("truncation", "--masses 1e150,1e-160 --lambda 1 --t 1 --truncate 1"),
            # the squared norm of the masses overflows, with no rate to check
            ("truncation", "--masses 1e200,1e200 --t 0 --truncate 1"),
            ("truncation", "--masses 1e200 --truncate 1"),
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
            # an initial state replaces the base's, whichever flag gives it
            old = flag
            if flag in STATE_FLAGS:
                old = next(a for a in argv if a in STATE_FLAGS)
            if old in argv:
                k = argv.index(old)
                argv[k : k + 2] = [flag, value]
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


OUT_DIR_ARGV = {
    "simulate": "simulate --masses 1,0.5 --t 1",
    "truncation": "truncation --masses 1,0.5 --t 1 --truncate 1",
    "fp": "fp --n-list 100 --t 0.5 --replicas 2 --top-r 2 --n-ref 200 --workers 1",
    "selftest": "selftest --suite quick",
}


class TestOutDir:
    @pytest.mark.parametrize("under", [False, True], ids=["file", "under-file"])
    @pytest.mark.parametrize("command", sorted(OUT_DIR_ARGV))
    def test_file_refused_before_any_work(
        self, tmp_path, monkeypatch, capsys, command, under
    ):
        make_clocks_unreadable(monkeypatch)

        def unreachable(*args, **kwargs):
            raise AssertionError("work started")

        # fp reads no clock field, so its one entry point is made unreachable
        monkeypatch.setattr(cli, "fp_mcld_compare", unreachable)
        blocker = tmp_path / "f"
        blocker.write_text("kept")
        out = blocker / "sub" if under else blocker
        argv = [*OUT_DIR_ARGV[command].split(), "--out-dir", str(out)]
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "is not a directory" in err
        assert blocker.read_text() == "kept"

    @pytest.mark.parametrize("command", sorted(OUT_DIR_ARGV))
    def test_write_error_exits_2(self, tmp_path, monkeypatch, capsys, command):
        def full_disk(path, *args, **kwargs):
            raise OSError(28, "No space left on device", str(path))

        monkeypatch.setattr(serialize, "write_json", full_disk)
        monkeypatch.setattr(serialize, "write_csv", full_disk)
        # the selftest's write is what is tested, not its criteria
        monkeypatch.setattr(cli.acceptance, "run_criteria", lambda *a, **k: [])
        argv = [*OUT_DIR_ARGV[command].split(), "--out-dir", str(tmp_path / "out")]
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: could not write") and "No space left" in err


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

    def test_environment_written_beside_the_criteria(self, tmp_path, monkeypatch):
        # the write is what is tested, not the criteria
        monkeypatch.setattr(cli.acceptance, "run_criteria", lambda *a, **k: [])
        code = cli.main(["selftest", "--suite", "quick", "--out-dir", str(tmp_path)])
        assert code == 0
        results = json.loads((tmp_path / "selftest.json").read_text())
        from numpy.lib.introspect import opt_func_info

        log1p = opt_func_info("log1p", "float64")["log1p"]["dd"]["current"]
        assert results["environment"] == {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "log1p_float64": log1p,
        }

    def test_environment_without_the_dispatch_report(self, monkeypatch):
        # numpy before 2.0 has no numpy.lib.introspect
        monkeypatch.setitem(sys.modules, "numpy.lib.introspect", None)
        assert cli._environment()["log1p_float64"] is None


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


class TestCachedParser:
    SIMULATE = [
        "simulate", "--gen", "powerlaw:0.6:32", "--lambda", "1",
        "--grid", "0.25,1", "--seed", "11",
    ]

    @pytest.mark.parametrize(
        "name, argv",
        [
            ("cmd_simulate", ["simulate", "--masses", "1", "--t", "1"]),
            ("cmd_truncation", ["truncation", "--masses", "1", "--t", "1", "--truncate", "1"]),
        ],
    )
    def test_command_replaced_after_the_first_call_runs(
        self, tmp_path, monkeypatch, name, argv
    ):
        assert cli.main([*self.SIMULATE, "--out-dir", str(tmp_path / "first")]) == 0
        seen = []
        monkeypatch.setattr(cli, name, lambda args: seen.append(args.out_dir) or 0)
        out = str(tmp_path / "second")
        assert cli.main([*argv, "--out-dir", out]) == 0
        assert seen == [out]
        assert not (tmp_path / "second").exists()

    def test_bad_usage_then_good_call_matches_a_fresh_process(self, tmp_path):
        assert cli.main(["simulate", "--no-such-option"]) == 2
        assert cli.main([*self.SIMULATE, "--out-dir", str(tmp_path / "in")]) == 0
        src = str(Path(cli.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src}
        subprocess.run(
            [sys.executable, "-m", "mcld.cli", *self.SIMULATE,
             "--out-dir", str(tmp_path / "fresh")],
            capture_output=True, check=True, env=env,
        )
        for name in ("trajectory.csv", "events.json", "summary.json"):
            assert (tmp_path / "in" / name).read_bytes() == (
                tmp_path / "fresh" / name
            ).read_bytes()


class TestImports:
    def test_package_and_cli_load_no_scipy(self):
        # scipy is a test dependency only; in a fresh interpreter the package
        # and its CLI must not load it
        src = str(Path(cli.__file__).resolve().parents[1])
        code = (
            f"import sys; sys.path.insert(0, {src!r}); import mcld, mcld.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
        )
        run = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, check=True
        )
        assert run.stdout.strip() == "[]"
