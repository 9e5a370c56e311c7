"""One run of one workload in a fresh process: set-up, timed rounds, checks.

    python3 perfbench/worker.py WORKLOAD SEED SECONDS TRACE PHASE

run.py starts it from the root of a checkout.  PHASE ``setup`` stops after
the set-up (import, inputs, warm-up round) and reports its time; PHASE
``measure`` goes on to the timed rounds.  The last line of standard output
is one JSON object.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()  # set-up time counts from before any import

import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402


def main(argv: list[str]) -> int:
    name, seed, seconds, trace, phase = argv
    seed, seconds, trace = int(seed), float(seconds), trace == "1"
    root = os.getcwd()
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    import calibration

    calibration.pin_to_current_cpu()  # set-up, rounds and gauge share one CPU
    import workloads  # imports mcld
    import mcld

    if os.path.dirname(os.path.abspath(mcld.__file__)) != os.path.join(src, "mcld"):
        print(f"mcld imported from {mcld.__file__}, not from {src}", file=sys.stderr)
        return 2

    runs = os.path.join(os.path.dirname(os.path.abspath(__file__)), "runs")
    workdir = os.path.join(runs, f"{name}-{seed}-{os.getpid()}")
    wl = workloads.WORKLOADS[name](seed, workdir)
    try:
        warm_inputs = wl.prepare(0)
        warm = wl.run(warm_inputs)
        wall_setup_s = time.perf_counter() - _T0
        with calibration.Gauge(wl.numpy_share) as gauge:
            # set-up time brought to the reference speed, like the rounds
            setup = {
                "setup_s": wall_setup_s / gauge.median_read(),
                "wall_setup_s": wall_setup_s,
            }
            if phase == "setup":
                print(json.dumps(setup))
                return 0
            return measure(wl, warm_inputs, warm, setup, gauge, seconds, trace, runs,
                           name, seed)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _checked(check, inputs, outputs) -> list[str]:
    """Problems a check finds; output it cannot read is a problem too."""
    try:
        return check(inputs, outputs)
    except (OSError, KeyError, ValueError, TypeError) as exc:
        return [f"unreadable output: {exc!r}"]


def measure(wl, warm_inputs, warm, setup, gauge, seconds, trace, runs, name, seed) -> int:
    import tracing

    problems = []
    tracer = tracing.Tracer() if trace else None
    if tracer:
        tracer.install(tracing.SITES)
    per_round = wl.replicas_per_round
    # gauges[k] is the machine's speed factor taken just before round k + 1
    # and gauges[-1] the one after the last round; a round's factor is the
    # mean of the two that bracket it.
    durations, bracketing, gauges, attempted, failed, k = [], [], [], 0, 0, 0
    start = time.perf_counter()
    while time.perf_counter() - start < seconds:
        k += 1
        inputs = wl.prepare(k)
        attempted += per_round
        gauges.append(gauge.read())
        began = time.perf_counter()
        try:
            outputs = wl.run(inputs)
        except Exception:  # a failed round counts its replicas as failed
            traceback.print_exc()
            failed += per_round
            continue
        durations.append(time.perf_counter() - began)
        bracketing.append(k - 1)
        problems += _checked(wl.check, inputs, outputs)
    gauges.append(gauge.read())
    factors = [(gauges[i] + gauges[i + 1]) / 2.0 for i in bracketing]
    if tracer:
        tracer.uninstall()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    problems += _checked(wl.check_deep, warm_inputs, warm)
    problems += _checked(wl.check, warm_inputs, warm)

    if not durations:
        print("no round finished", file=sys.stderr)
        return 1
    finished = per_round * len(durations)
    result = {
        **setup,
        # replicas finished per second of the timed rounds, each round's
        # duration brought to the reference speed (calibration.py)
        "replicas_per_s": finished / math.fsum(d / f for d, f in zip(durations, factors)),
        "wall_replicas_per_s": finished / math.fsum(durations),
        "round_rates": [per_round / d for d in durations],
        "speed_factors": factors,
        "attempted": attempted,
        "failed": failed,
        "peak_rss_mb": peak_rss_mb,
        "problems": problems,
    }
    if tracer:
        result["layers"] = tracing.layer_metrics(
            tracer, attempted - failed, result["replicas_per_s"]
        )
        result["missing"] = tracer.missing
        tracer.write(os.path.join(runs, f"trace-{name}-seed{seed}.json"))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
