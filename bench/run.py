"""oscurve benchmark: one process, one closed-loop client, no threads.

    python3 bench/run.py --workload census|classify|golden --seed N \
        --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from `src/`.
A run repeats rounds until the next round would end past `--seconds`; at
least one round always runs.  A round sets up SETUP_REPEATS times (a fresh
import of the program plus building the seed's inputs, the work a command
line call pays before its first answer) and then makes one pass over every
case, one case at a time.  With `--trace 1` the first half of the time goes
to untraced rounds and the rest to traced ones, which give the per-layer
metrics and the tracing overhead; their spans are written to `bench/out/`.

The speed of a shared machine swings by up to a factor of two for seconds
to minutes at a time, far more than the difference a change to the program
should be able to show.  So a fixed calibration computation of the
benchmark's own (`calibrate`, no call into the program) runs between every
two timed stretches (set-ups and cases), and each stretch's time is put on
the scale of a reference speed: multiplied by CALIBRATION_REF_S over the
mean of the two calibrations around it.  A case's time is the median of
these over its runs.  A case is past its limit, which is in reference
seconds, when its time on the reference speed exceeds it, or when the alarm
set to ALARM_MARGIN times the limit at the machine's current slowness stops
it; it then counts at its limit, and is not run again in the same run, so
later passes give the other cases more samples.  The report prints the raw
times next to the reference ones.

A human-readable report goes first; the last line of standard output is one
JSON object with keys correct, attempted, failed and metrics.  `attempted`
counts the workload's cases and `failed` those that failed in an untraced
run; `correct` is false when any case returned a wrong answer or failed
inside the program.  Time-outs and refusals are failed cases but not wrong
answers.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from dataclasses import dataclass, replace
from fractions import Fraction
from pathlib import Path

import cases
import tracing

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"
SETUP_REPEATS = 3
# The fastest time of `calibrate` on a 2-vCPU Intel Xeon, Python 3.11.7
CALIBRATION_REF_S = 0.0033
# Recent calibrations whose median gives the machine's current slowness
RECENT = 5
# The alarm that stops a case is set this far past its limit, so that a case
# under its limit is not stopped when the machine slows down in its midst
ALARM_MARGIN = 1.25

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("case_p50_ms", "ms"),
    ("success_ratio", "ratio"),
)


def import_program():
    """Import oscurve from the checkout's src/, dropping any earlier import."""
    if sys.path[0] != str(SRC):
        sys.path.insert(0, str(SRC))
    for name in [m for m in sys.modules if m == "oscurve" or m.startswith("oscurve.")]:
        del sys.modules[name]
    import oscurve

    if Path(oscurve.__file__).resolve().parent != SRC / "oscurve":
        raise SystemExit(f"imported oscurve from {oscurve.__file__}, not from {SRC}")
    return oscurve


def calibrate() -> float:
    """Time a fixed computation of the benchmark's own, the kind of work the
    program does: the product of two dense bivariate polynomials with
    Fraction coefficients kept in dicts keyed by exponent tuples."""
    start = time.perf_counter()
    a = {(i, j): Fraction(i + 1, j + 2) for i in range(6) for j in range(6)}
    product = {}
    for (i, j), x in a.items():
        for (k, m), y in a.items():
            product[i + k, j + m] = product.get((i + k, j + m), 0) + x * y
    return time.perf_counter() - start


class Clock:
    """The calibrations of one run, and its set-up times on the reference speed."""

    def __init__(self):
        self.calibration = []
        self.setup = []

    def tick(self) -> float:
        self.calibration.append(calibrate())
        return self.calibration[-1]

    def slowness(self) -> float:
        """How much slower than the reference the machine runs just now."""
        return statistics.median(self.calibration[-RECENT:]) / CALIBRATION_REF_S

    @staticmethod
    def reference(seconds: float, before: float, after: float) -> float:
        """`seconds` timed between calibrations `before` and `after`, on the
        reference speed."""
        return seconds * 2 * CALIBRATION_REF_S / (before + after)


@dataclass(frozen=True)
class Run:
    outcome: cases.Outcome
    seconds: float  # on the reference speed; a time-out counts at its limit


def setup(workload: str, seed: int, clock: Clock):
    """SETUP_REPEATS times: import the program and build the inputs."""
    for _ in range(SETUP_REPEATS):
        before = clock.tick()
        start = time.perf_counter()
        import_program()
        built = cases.build(workload, seed)
        seconds = time.perf_counter() - start
        clock.setup.append(Clock.reference(seconds, before, clock.tick()))
    return built


def run_rounds(workload, seed, limit, deadline, clock, tracer=None):
    """Rounds of set-up plus one pass over the cases, until the next round
    would end past the deadline.  Returns the case names and, per pass, its
    raw wall time, {case name: Run} and the tracer's case ids.

    A case that ran past its limit is not run again in later passes:
    rerunning it would only repeat the wait, and its time-out stands."""
    passes, timed_out = [], set()
    while True:
        round_start = time.perf_counter()
        built = setup(workload, seed, clock)
        start = time.perf_counter()
        ran, ids = {}, []
        before = clock.tick()
        for case in built:
            if case.name in timed_out:
                continue
            alarm = ALARM_MARGIN * limit * clock.slowness()
            if tracer is None:
                outcome = cases.execute(case, alarm)
            else:
                ids.append(tracer.begin_case(case.name))
                outcome = cases.execute(case, alarm, tracer.install, tracer.remove)
            after = clock.tick()
            seconds = Clock.reference(outcome.seconds, before, after)
            before = after
            if outcome.status == "ok" and seconds > limit:
                outcome = replace(outcome, status="timeout", detail=f"finished in {seconds:.3f} s")
            if outcome.status == "timeout":
                timed_out.add(case.name)
                seconds = limit
            ran[case.name] = Run(outcome, seconds)
        end = time.perf_counter()
        passes.append((end - start, ran, ids))
        # the next round sets up again and reruns every case but the time-outs
        next_round = end - round_start - sum(
            r.outcome.seconds for r in ran.values() if r.outcome.status == "timeout"
        )
        if end + 1.1 * next_round > deadline:
            return [case.name for case in built], passes


def runs_by_case(names, passes) -> dict:
    return {name: [ran[name] for _, ran, _ in passes if name in ran] for name in names}


def case_seconds(runs) -> float:
    """A case's time on the reference speed: the median over its runs."""
    return statistics.median(r.seconds for r in runs)


def failed(runs) -> bool:
    return any(r.outcome.failed for r in runs)


def end_to_end(by_case, clock) -> dict:
    times = [case_seconds(runs) for runs in by_case.values()]
    return {
        "setup_s": statistics.median(clock.setup),
        "wall_s": sum(times),
        "case_p50_ms": 1000 * statistics.median(times),
        "success_ratio": sum(not failed(runs) for runs in by_case.values()) / len(by_case),
    }


def trace_overhead(by_case, traced_by_case) -> float:
    """Traced over untraced time of the cases that finished in both, on the
    reference speed, minus 1 (a time-out lasts its limit whether traced or
    not)."""
    done = [
        name for name, runs in traced_by_case.items()
        if all(r.outcome.status != "timeout" for r in runs + by_case[name])
    ]
    untraced = sum(case_seconds(by_case[name]) for name in done)
    traced = sum(case_seconds(traced_by_case[name]) for name in done)
    return traced / untraced - 1 if untraced else 0.0


def report(workload, seed, by_case, passes, clock, values, limit):
    print(f"workload {workload}  seed {seed}  {len(by_case)} cases  {len(passes)} passes"
          f"  limit {limit} s per case on the reference speed")
    for name, runs in by_case.items():
        o = runs[0].outcome
        extra = f"  {o.detail}" if o.detail else ""
        raw = min(r.outcome.seconds for r in runs)
        print(f"  {name:28s} {case_seconds(runs) * 1000:10.1f} ms  (raw fastest {raw * 1000:9.1f})"
              f"  x{len(runs):<3d} {o.status}{extra}")
    print("pass wall_s (raw): " + " ".join(f"{w:.3f}" for w, _, _ in passes))
    print(f"calibration: fastest {min(clock.calibration) * 1000:.3f} ms, median "
          f"{statistics.median(clock.calibration) * 1000:.3f} ms over {len(clock.calibration)}, "
          f"reference {CALIBRATION_REF_S * 1000:.3f} ms")
    print(f"setup_s {values['setup_s']:.4f}  wall_s {values['wall_s']:.4f}  "
          f"case_p50_ms {values['case_p50_ms']:.2f}  peak RSS "
          f"{resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024:.1f} MB")
    failures = sum(failed(runs) for runs in by_case.values())
    print(f"fail_ratio {failures / len(by_case):.4f} ({failures} of {len(by_case)} cases)")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=cases.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "oscurve" / "__init__.py").is_file():
        print(f"no program to benchmark: {SRC / 'oscurve'} is missing", file=sys.stderr)
        return 2
    start = time.perf_counter()
    limit = cases.LIMIT_S[args.workload]
    share = 0.5 if args.trace else 1.0
    clock = Clock()
    names, passes = run_rounds(args.workload, args.seed, limit, start + share * args.seconds, clock)
    by_case = runs_by_case(names, passes)
    values = end_to_end(by_case, clock)
    report(args.workload, args.seed, by_case, passes, clock, values, limit)
    runs = [r for rs in by_case.values() for r in rs]
    units = dict(END_TO_END)

    if args.trace:
        tracer = tracing.Tracer()
        _, traced = run_rounds(args.workload, args.seed, limit, start + args.seconds, Clock(), tracer)
        traced_by_case = runs_by_case(names, traced)
        # the first traced pass is the only one that runs every case
        values = tracer.layer_metrics(traced[0][2])
        values["trace.overhead_ratio"] = trace_overhead(by_case, traced_by_case)
        units = {name: unit for name, unit, _, _ in tracing.LAYER_METRICS}
        path = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl.gz"
        tracer.write(path)
        print(f"traced: {len(traced)} passes, {len(tracer.start)} spans written to "
              f"{path.relative_to(ROOT)}")
        runs += [r for rs in traced_by_case.values() for r in rs]

    result = {
        "correct": not any(r.outcome.status in ("wrong", "error") for r in runs),
        "attempted": len(by_case),
        "failed": sum(failed(rs) for rs in by_case.values()),
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
