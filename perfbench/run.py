"""Run one workload of the mcld benchmark and print its metrics.

    python3 perfbench/run.py --workload feller_ladder --seed 1 --seconds 25 --trace 0

Run it from the root of a checkout: it benchmarks the package under
``src/``.  Set-up is measured in SETUP_SAMPLES fresh processes and reported
as their median; the timed rounds run in the last of them.  Times are
reported at a fixed reference speed of the machine (calibration.py).  With
``--trace 0`` the metrics are the end-to-end ones, with ``--trace 1`` the
per-layer ones from a run whose layer calls are wrapped in spans.  The last
line of standard output is one JSON object.  Exits 2 on bad arguments or
when there is no ``src/mcld`` to benchmark, 1 when a run fails.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

WORKLOADS = ("feller_ladder", "sandwich", "simulate", "fp")
SETUP_SAMPLES = 3
TIME_LIMIT_S = 170.0  # every process this run starts ends within it
HERE = os.path.dirname(os.path.abspath(__file__))


class RunFailed(RuntimeError):
    pass


def _worker(args, phase: str, deadline: float) -> dict:
    cmd = [
        sys.executable, os.path.join(HERE, "worker.py"), args.workload,
        str(args.seed), str(args.seconds), str(args.trace), phase,
    ]
    # its own session, so that one signal stops the worker and its speed gauge
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                          start_new_session=True) as proc:
        try:
            out, _ = proc.communicate(timeout=max(deadline - time.monotonic(), 1.0))
        except BaseException as exc:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            if isinstance(exc, subprocess.TimeoutExpired):
                raise RunFailed(
                    f"{phase} worker ran past the {TIME_LIMIT_S:.0f} s limit") from None
            raise
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RunFailed(f"{phase} worker exited {proc.returncode}")
    return json.loads(lines[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be nonnegative and --seconds at least 1")
    if not os.path.isfile(os.path.join("src", "mcld", "__init__.py")):
        print(f"no src/mcld under {os.getcwd()}: run from the root of an mcld "
              "checkout", file=sys.stderr)
        return 2

    deadline = time.monotonic() + TIME_LIMIT_S
    try:
        samples = [] if args.trace else [
            _worker(args, "setup", deadline) for _ in range(SETUP_SAMPLES - 1)
        ]
        res = _worker(args, "measure", deadline)
    except RunFailed as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 1
    samples.append(res)
    setups = [s["setup_s"] for s in samples]
    wall_setups = [s["wall_setup_s"] for s in samples]

    for problem in res["problems"][:20]:
        print(f"check failed: {problem}", file=sys.stderr)
    if args.trace:
        metrics = res["layers"]
        if res["missing"]:
            print(f"trace sites missing: {', '.join(res['missing'])}", file=sys.stderr)
    else:
        metrics = {
            "replicas_per_s": {"value": res["replicas_per_s"], "unit": "1/s"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
        }
    rates = res["round_rates"]
    q1, q2, q3 = statistics.quantiles(rates, n=4) if len(rates) > 1 else rates * 3
    print(
        f"{args.workload} seed={args.seed} trace={args.trace}: "
        f"replicas/s {res['replicas_per_s']:.4g} at the reference speed, "
        f"{res['wall_replicas_per_s']:.4g} by the wall clock over {len(rates)} rounds "
        f"(round rates q1 {q1:.4g}, median {q2:.4g}, q3 {q3:.4g}; median speed "
        f"factor {statistics.median(res['speed_factors']):.3f}), "
        f"set-up samples {', '.join(f'{s:.3f}' for s in setups)} s at the reference "
        f"speed, {', '.join(f'{s:.3f}' for s in wall_setups)} s by the wall clock, "
        f"peak RSS {res['peak_rss_mb']:.1f} MB"
    )
    result = {
        "correct": not res["problems"],
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": metrics,
    }
    line = json.dumps(result)
    runs = os.path.join(HERE, "runs")
    os.makedirs(runs, exist_ok=True)
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(runs, name), "w", encoding="utf-8") as fh:
        json.dump({"result": result, "round_rates": res["round_rates"],
                   "speed_factors": res["speed_factors"],
                   "wall_replicas_per_s": res["wall_replicas_per_s"],
                   "setup_samples": setups, "wall_setup_samples": wall_setups}, fh)
        fh.write("\n")
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
