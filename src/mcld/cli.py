"""Command-line surface: simulations, truncation reports, frozen
percolation scaling experiments, and the selftest suites.

Exit codes: 0 ok, 1 test failure, 2 invalid input, 3 internal invariant
violation.  Identical arguments and seeds produce byte-identical output
files; all numbers are serialized with 17 significant digits.
"""

from __future__ import annotations

import argparse
import math
import os
import platform
import sys
from contextlib import contextmanager
from functools import cache, partial
from itertools import product
from pathlib import Path

import numpy as np

from . import acceptance, serialize
from .clock_field import ClockField
from .errors import InvalidInput, InvariantViolation
from .events import deleted_mass_up_to, run_clocked
from .feller import power_law_reference
from .frozen_percolation import fp_mcld_compare
from .mass_state import OrderedMassVector, count, rate, time_list
from .truncation import truncation_report

__all__ = ["main"]

EXIT_OK = 0
EXIT_TEST_FAILURE = 1
EXIT_INVALID_INPUT = 2
EXIT_INVARIANT = 3


def _parse_masses_text(text: str) -> OrderedMassVector:
    try:
        values = [float(x) for x in text.replace(" ", "").split(",") if x != ""]
    except ValueError as exc:
        raise InvalidInput(f"could not parse masses: {exc}") from None
    return OrderedMassVector(tuple(values))


def _parse_gen(rule: str, seed: int) -> OrderedMassVector:
    """The state of a ``--gen`` rule; every rule reads its support N through
    :func:`count`, so N = 0 gives the empty state."""
    kind, *params = rule.split(":")
    try:
        if kind == "powerlaw" and len(params) == 2:
            return power_law_reference(float(params[0]), int(params[1]))
        if kind == "constant" and len(params) == 2:
            return OrderedMassVector((float(params[0]),) * count(int(params[1]), "support", 0))
        if kind == "uniform" and len(params) == 1:
            rng = np.random.default_rng([seed, 0xEEC])
            draws = rng.uniform(0.0, 1.0, count(int(params[0]), "support", 0))
            return OrderedMassVector(tuple(np.sort(draws)[::-1]))
    except (ValueError, OverflowError, InvalidInput) as exc:
        raise InvalidInput(f"bad generator rule {rule!r}: {exc}") from None
    raise InvalidInput(
        f"unknown generator rule {rule!r}; expected powerlaw:EXP:N, "
        "constant:VALUE:N or uniform:N"
    )


def _initial_state(args, seed: int) -> OrderedMassVector:
    sources = [args.masses, args.masses_file, args.gen]
    if sum(s is not None for s in sources) != 1:
        raise InvalidInput(
            "exactly one of --masses, --masses-file, --gen must be given"
        )
    if args.masses is not None:
        return _parse_masses_text(args.masses)
    if args.masses_file is not None:
        import json

        try:
            data = json.loads(Path(args.masses_file).read_text())
        except (OSError, ValueError) as exc:
            raise InvalidInput(f"unreadable masses file: {exc}") from None
        if not isinstance(data, list):
            raise InvalidInput("masses file must hold a JSON array of numbers")
        return OrderedMassVector(
            tuple(_number(x, float, "--masses-file entry") for x in data)
        )
    return _parse_gen(args.gen, seed)


def _number(text: str, convert, name: str):
    """``convert(text)`` for a numeric argument; a float must be finite."""
    try:
        value = convert(text)
    except (TypeError, ValueError, OverflowError) as exc:
        raise InvalidInput(f"bad {name} {text!r}: {exc}") from None
    if isinstance(value, float) and not math.isfinite(value):
        raise InvalidInput(f"{name} must be finite, got {text!r}")
    return value


def _float_list(text: str, name: str) -> tuple[float, ...]:
    return tuple(_number(x, float, name) for x in text.split(","))


def _seed_of(args) -> int:
    if args.seed is not None:
        return _number(args.seed, partial(int, base=0), "--seed")
    env = os.environ.get("MCLD_SEED")
    if env is not None:
        return _number(env, partial(int, base=0), "MCLD_SEED")
    return 0


def _parse_grid(args) -> tuple[float, ...]:
    if (args.t is None) == (args.grid is None):
        raise InvalidInput("exactly one of --t or --grid must be given")
    if args.grid is not None:
        return time_list(_float_list(args.grid, "--grid"), "--grid")
    return time_list((_number(args.t, float, "--t"),), "--t")


def _int_list(text: str, name: str) -> list[int]:
    return [_number(x, int, name) for x in text.split(",") if x != ""]


def _out_dir(text: str) -> Path:
    """``--out-dir`` as a path, refused before any work when it, or the
    nearest of its parents that exists, is not a directory."""
    path = Path(text)
    for p in (path, *path.parents):
        if p.exists():
            if not p.is_dir():
                raise InvalidInput(f"--out-dir {text!r}: {p} is not a directory")
            break
    return path


@contextmanager
def _writing(outdir: Path):
    """Make ``outdir`` for the writes in the body; an OSError there is
    reported as an error, without a traceback."""
    try:
        outdir.mkdir(parents=True, exist_ok=True)
        yield
    except OSError as exc:
        raise InvalidInput(f"could not write to {outdir}: {exc}") from None


# ---------------------------------------------------------------------------
# subcommands


def cmd_simulate(args) -> int:
    outdir = _out_dir(args.out_dir)
    seed = _seed_of(args)
    initial = _initial_state(args, seed)
    grid = _parse_grid(args)
    lam = rate(args.lam, "--lambda")
    traj = run_clocked(initial, ClockField(seed), lam, grid)
    phi = deleted_mass_up_to(traj, grid[-1])
    texts = serialize.FloatTexts()  # each distinct float formatted once per run
    with _writing(outdir):
        serialize.write_csv(
            outdir / "trajectory.csv", ("time", "rank", "mass"), traj.csv_columns(), texts
        )
        serialize.write_json(outdir / "events.json", traj.events, texts)
        serialize.write_json(
            outdir / "summary.json",
            {
                "seed": seed,
                "lambda": lam,
                "t_end": grid[-1],
                "final_state": traj.states[-1].to_json_list(),
                "deleted_mass": phi,
                "events": len(traj.events),
            },
            texts,
        )
    print(
        f"final state ranks={len(traj.states[-1])} "
        f"largest={traj.states[-1][0] if len(traj.states[-1]) else 0.0} "
        f"deleted_mass={phi}"
    )
    return EXIT_OK


def cmd_truncation(args) -> int:
    outdir = _out_dir(args.out_dir)
    seed = _seed_of(args)
    initial = _initial_state(args, seed)
    any_violation = False
    reports = {}
    for r, m, rep in truncation_report(
        initial,
        seed,
        rate(args.lam, "--lambda"),
        _number(args.t, float, "--t"),
        _int_list(args.truncate, "--truncate"),
        _number(args.replicas, int, "--replicas"),
    ):
        if isinstance(rep, InvariantViolation):
            print(f"invariant violation at m={m} replica={r}: {rep}", file=sys.stderr)
            any_violation = True
        else:
            any_violation |= not rep.holds
            reports[f"report_m{m}_r{r}.json"] = rep.to_json_dict()
    with _writing(outdir):
        for name, payload in reports.items():
            serialize.write_json(outdir / name, payload)
    if any_violation:
        print("sandwich violation detected", file=sys.stderr)
        return EXIT_INVARIANT
    print(f"wrote {len(reports)} reports to {outdir}")
    return EXIT_OK


def cmd_fp(args) -> int:
    outdir = _out_dir(args.out_dir)
    seed = _seed_of(args)
    report = fp_mcld_compare(
        _int_list(args.n_list, "--n-list"),
        rate(args.lam, "--lambda"),
        _number(args.u, float, "--u"),
        _float_list(args.t, "--t"),
        replicas=_number(args.replicas, int, "--replicas"),
        top_r=_number(args.top_r, int, "--top-r"),
        seed=seed,
        n_ref=_number(args.n_ref, int, "--n-ref") if args.n_ref else None,
        workers=_number(args.workers, int, "--workers"),
    )
    # rows by size, replica, time and rank: each size's samples in row-major order
    keys = product(report.n_list, range(report.replicas), report.t_list,
                   range(1, report.top_r + 1))
    masses = [m for n in report.n_list for m in report.samples[n].ravel().tolist()]
    with _writing(outdir):
        serialize.write_json(
            outdir / "config.json",
            [
                {
                    "n": n,
                    "lambda_rescaled": report.lam_rescaled,
                    "u": report.u,
                    "t_list": list(report.t_list),
                    "top_r": report.top_r,
                    "replicas": report.replicas,
                    "seed": seed,
                }
                for n in report.n_list
            ],
        )
        serialize.write_csv(
            outdir / "samples.csv",
            ("n", "replica", "t", "rank", "scaled_mass"),
            (*zip(*keys), masses),
        )
        serialize.write_json(outdir / "comparison.json", report.to_json_dict())
    print(f"wrote samples and comparison to {outdir}")
    return EXIT_OK


def _environment() -> dict:
    """What the pinned digests depend on: the Python and numpy versions and
    the SIMD target of numpy's float64 ``log1p`` (None where not reported)."""
    try:
        from numpy.lib.introspect import opt_func_info

        log1p = opt_func_info("^log1p$", "float64")["log1p"]["dd"]["current"]
    except (ImportError, KeyError):
        log1p = None
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "log1p_float64": log1p,
    }


def cmd_selftest(args) -> int:
    out_dir = args.out_dir
    if out_dir is None and args.suite == "full":
        out_dir = "selftest_out"  # the full suite always leaves a results file
    outdir = _out_dir(out_dir) if out_dir else None
    names = acceptance.QUICK if args.suite == "quick" else None
    results = acceptance.run_criteria(names, corrupt_clocks=args.corrupt_clock_prf)
    if outdir:
        with _writing(outdir):
            serialize.write_json(
                outdir / "selftest.json",
                {
                    "suite": args.suite,
                    "all_passed": all(r.passed for r in results),
                    "criteria": [
                        {
                            "name": r.name,
                            "passed": r.passed,
                            "runtime_s": r.runtime_s,
                            "details": r.details,
                        }
                        for r in results
                    ],
                    "environment": _environment(),
                },
            )
    return EXIT_OK if all(r.passed for r in results) else EXIT_TEST_FAILURE


# ---------------------------------------------------------------------------
# parser


@cache
def _parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process on first use."""
    parser = argparse.ArgumentParser(
        prog="mcld",
        description="Multiplicative coalescent with linear deletion: "
        "simulators and verification harness.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_state_args(p):
        p.add_argument("--masses", help="comma-separated non-increasing masses")
        p.add_argument("--masses-file", help="JSON array file of masses")
        p.add_argument(
            "--gen", help="generator rule: powerlaw:EXP:N | constant:VALUE:N | uniform:N"
        )

    def add_common(p):
        p.add_argument("--seed", help="64-bit seed (decimal or 0x hex); "
                       "falls back to MCLD_SEED, then 0")
        p.add_argument("--out-dir", default="out", help="output directory")

    p_sim = sub.add_parser("simulate", help="run one trajectory")
    add_state_args(p_sim)
    p_sim.add_argument("--lambda", dest="lam", default="0", help="deletion rate")
    p_sim.add_argument("--t", help="time horizon")
    p_sim.add_argument("--grid", help="comma-separated recording times")
    add_common(p_sim)

    p_tr = sub.add_parser("truncation", help="sandwich reports per level and seed")
    add_state_args(p_tr)
    p_tr.add_argument("--lambda", dest="lam", default="1", help="deletion rate")
    p_tr.add_argument("--t", required=True, help="time horizon")
    p_tr.add_argument("--truncate", required=True, help="comma-separated levels")
    p_tr.add_argument("--replicas", default="1")
    add_common(p_tr)

    p_fp = sub.add_parser("fp", help="frozen percolation scaling experiment")
    p_fp.add_argument("--n-list", required=True, help="comma-separated sizes")
    p_fp.add_argument("--lambda", dest="lam", default="1", help="rescaled rate")
    p_fp.add_argument("--u", default="0", help="critical window parameter")
    p_fp.add_argument("--t", required=True, help="comma-separated rescaled times")
    p_fp.add_argument("--replicas", default="100")
    p_fp.add_argument("--top-r", default="3")
    p_fp.add_argument("--n-ref", help="reference graph size (default 4*max n)")
    p_fp.add_argument("--workers", default=str(os.cpu_count() or 1),
                      help="parallel replica workers")
    add_common(p_fp)

    p_st = sub.add_parser("selftest", help="run the acceptance suites")
    p_st.add_argument("--suite", choices=("quick", "full"), default="quick")
    p_st.add_argument("--corrupt-clock-prf", action="store_true",
                      help=argparse.SUPPRESS)  # negative-control test hook
    p_st.add_argument("--out-dir", default=None, help="where to write results JSON")

    return parser


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on bad usage, matching the invalid-input contract
        return EXIT_INVALID_INPUT if exc.code else EXIT_OK
    # looked up per call, so a cmd_* replaced after the parser was built runs
    command = globals()[f"cmd_{args.command}"]
    try:
        return command(args)
    except InvalidInput as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID_INPUT
    except InvariantViolation as exc:
        print(f"internal invariant violation: {exc}", file=sys.stderr)
        return EXIT_INVARIANT


if __name__ == "__main__":
    sys.exit(main())
