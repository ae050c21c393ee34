"""Benchmark of the `oc_reason` safe-improvement stack.

Usage (from the repository root):

    python3 perfbench/run.py --workload allpairs-maxclosed --seed 1 --seconds 30 --trace 0

One single-threaded process imports the package from `src/`, builds the
workload's inputs from the seed (several times, to time set-up), makes one
untimed warm-up operation of each kind, and then cycles through the
instances until `--seconds` have elapsed and every instance has run at least
once. Per instance it interleaves the operation kinds: prepare, then the
exact, propagation and refutation queries, then a fixed reference kernel
whose time scales the instance's times to a reference speed. Outputs are
checked afterwards, untimed, against the benchmark's own computations.

The last line of standard output is one JSON object: `correct`,
`attempted`, `failed` and `metrics` (end-to-end metrics with `--trace 0`,
per-layer metrics with `--trace 1`). With `--trace 1` every traced call is
recorded as a span and the spans are written to `perfbench/out/`.
`--workload all` runs every workload in turn, each in its own process.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = Path(__file__).resolve().parent / "out"
SETUP_REPEATS = 5
HASH_SEED = "0"
MODES = ("exact", "propagation", "refutation")
WORKLOAD_NAMES = ("allpairs-maxclosed", "games-certified", "csp-encoded")
REFERENCE_MS = 15.0   # the reference kernel's time at the speed times are scaled to


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        help=f"one of {', '.join(WORKLOAD_NAMES)}, or all (one process each)")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _import_package() -> float:
    """Import `oc_reason` from this checkout's `src/` and return the seconds
    it took; exits when the sources are not there."""
    src = ROOT / "src"
    if not (src / "oc_reason" / "__init__.py").is_file():
        sys.exit(f"error: no package sources at {src / 'oc_reason'}")
    sys.path.insert(0, str(src))
    start = time.perf_counter()
    import oc_reason
    import oc_reason.cli  # noqa: F401  (the CLI is part of every workload's import cost)
    elapsed = time.perf_counter() - start
    if Path(oc_reason.__file__).resolve().parent != (src / "oc_reason").resolve():
        sys.exit(f"error: imported oc_reason from {oc_reason.__file__}, not from {src}")
    return elapsed


def reference_kernel() -> int:
    """A fixed pure-Python computation that uses nothing from `oc_reason`:
    componentwise comparison of every pair of 80 payoff vectors of
    fractions, the kind of work preference tabulation does."""
    values = [Fraction(i * 7 % 13, 1 + i % 5) for i in range(80)]
    vectors = [(values[i], values[i * 3 % 80]) for i in range(80)]
    return sum(all(x >= y for x, y in zip(a, b)) for a in vectors for b in vectors)


class Harness:
    """Runs one workload's operations and collects timings and failures."""

    def __init__(self, workload, tracer):
        self.workload = workload
        self.tracer = tracer
        # (kind, instance) -> seconds per visit, at the reference speed and as measured
        self.times: dict[tuple[str, int], list[float]] = defaultdict(list)
        self.raw_times: dict[tuple[str, int], list[float]] = defaultdict(list)
        self.visit: list[tuple[str, float]] = []
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []   # operations that raised
        self.problems: list[str] = []   # outputs that failed a check
        self.operation = 0
        self.reference: list[float] = []

    def calibrate(self) -> float:
        """Time the reference kernel once; returns the seconds it took."""
        start = time.perf_counter()
        reference_kernel()
        self.reference.append(time.perf_counter() - start)
        return self.reference[-1]

    @staticmethod
    def scaled(seconds: float, before: float, after: float) -> float:
        """Seconds at the reference speed, judging the machine's speed by the
        kernel runs just before and just after the measured work."""
        return seconds * REFERENCE_MS / 1000 / ((before + after) / 2)

    def _timed(self, kind: str, index: int, inst, fn, *args):
        self.operation += 1
        if self.tracer:
            self.tracer.operation = self.operation
        self.attempted += 1
        start = time.perf_counter()
        try:
            output = fn(*args)
        except Exception as exc:  # a failed operation is counted, the run goes on
            self.failed += 1
            self.failures.append(f"{inst['label']} {kind}: {type(exc).__name__}: {exc}")
            return None
        finally:
            elapsed = time.perf_counter() - start
            if self.tracer:
                self.tracer.operation = 0
        self.visit.append((kind, elapsed))
        return self.workload.observe(inst, kind, output)

    def warm_up(self, inst) -> None:
        """One untimed operation of each kind, so that lazy imports have
        happened before timing starts."""
        wl = self.workload
        prepared = wl.observe(inst, "prepare", wl.prepare(inst))
        for mode in MODES:
            wl.observe(inst, mode, wl.query(inst, prepared, mode))

    def run_instance(self, index: int, inst) -> dict:
        """Prepare, then query in each mode, then time the reference kernel;
        returns {kind: output}."""
        wl = self.workload
        before = self.reference[-1]
        self.visit = []
        prepared = self._timed("prepare", index, inst, wl.prepare, inst)
        outputs = {"prepare": prepared}
        for mode in MODES:
            if prepared is None:
                self.attempted += 1
                self.failed += 1
                outputs[mode] = None
                continue
            outputs[mode] = self._timed(mode, index, inst, wl.query, inst, prepared, mode)
        after = self.calibrate()
        for kind, elapsed in self.visit:
            self.raw_times[(kind, index)].append(elapsed)
            self.times[(kind, index)].append(self.scaled(elapsed, before, after))
        return outputs


def p50_ms(times: dict, kind: str, count: int) -> float:
    """Median over instances of each instance's median time, so that
    instances repeated by a partial last pass weigh no more; instances whose
    operation failed every time are left out."""
    return 1000 * statistics.median(
        statistics.median(times[(kind, i)]) for i in range(count) if times[(kind, i)])


def pairs_per_s(times: dict, mode: str, workload, instances) -> float:
    """Ordered pairs decided per second of query time, each instance counted
    once, at its mean time."""
    ran = [i for i in range(len(instances)) if times[(mode, i)]]
    return (sum(workload.pairs_decided(instances[i]) for i in ran)
            / sum(statistics.fmean(times[(mode, i)]) for i in ran))


def measure(name: str, seed: int, seconds: float, trace: bool) -> dict:
    import_s = _import_package()
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from tracing import Tracer
    from workloads import WORKLOADS

    if name not in WORKLOADS:
        sys.exit(f"error: unknown workload {name!r}; choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[name]
    tracer = Tracer() if trace else None
    if tracer:
        tracer.install()

    work_dir = OUT / f"work-{name}-{seed}-{os.getpid()}"
    harness = Harness(workload, tracer)
    try:
        first_reference = harness.calibrate()
        setup_times, scaled_setup_times = [], []
        for _ in range(SETUP_REPEATS):
            instances = None
            gc.collect()
            before = harness.reference[-1]
            start = time.perf_counter()
            instances = workload.setup(seed, work_dir)
            setup_times.append(time.perf_counter() - start)
            scaled_setup_times.append(harness.scaled(setup_times[-1], before, harness.calibrate()))

        harness.warm_up(instances[0])
        harness.calibrate()

        # Untraced runs stop after the instance during which `seconds` ran
        # out, once every instance has run; traced runs stop at a pass
        # boundary, so that per-instance call counts repeat exactly.
        first: list[dict] = []
        summaries: list[dict] = []
        passes = 0
        start = time.perf_counter()
        while passes == 0 or time.perf_counter() - start < seconds:
            for index, inst in enumerate(instances):
                outputs = harness.run_instance(index, inst)
                digest = {kind: None if out is None else workload.summary(kind, out)
                          for kind, out in outputs.items()}
                if passes == 0:
                    first.append(outputs)
                    summaries.append(digest)
                elif digest != summaries[index]:
                    harness.problems.append(f"{inst['label']}: output changed between passes")
                if passes and not trace and time.perf_counter() - start >= seconds:
                    break
            passes += 1
        elapsed = time.perf_counter() - start
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

        problems = list(harness.problems)
        for inst, outputs in zip(instances, first):
            if all(out is not None for out in outputs.values()):
                problems += workload.check(inst, outputs["prepare"], outputs)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    # Times are scaled to the reference speed: on a shared 2-vCPU virtual
    # machine the same work ran up to 75% slower for stretches of seconds to
    # minutes, and the reference kernel slowed down nearly alike.
    def end_to_end(times, setup_s):
        out = {"setup_s": (setup_s, "s"), "peak_rss_mb": (peak_rss_mb, "MB"),
               "prepare.p50_ms": (p50_ms(times, "prepare", len(instances)), "ms")}
        for mode in MODES:
            out[f"si.{mode}.p50_ms"] = (p50_ms(times, mode, len(instances)), "ms")
            out[f"si.{mode}.pairs_per_s"] = (pairs_per_s(times, mode, workload, instances), "1/s")
        return out

    raw = end_to_end(harness.raw_times, import_s + statistics.median(setup_times))
    metrics = end_to_end(harness.times,
                         harness.scaled(import_s, first_reference, first_reference)
                         + statistics.median(scaled_setup_times))
    scale = REFERENCE_MS / 1000 / statistics.median(harness.reference)
    decided = sum(workload.pairs_decided(inst) for inst in instances)
    yes_share = {mode: sum(workload.yes_pairs(out[mode]) for out in first
                           if out[mode] is not None) / decided for mode in MODES}

    result = {"workload": name, "seed": seed, "instances": len(instances), "passes": passes,
              "import_s": import_s, "setup_repeats_s": setup_times,
              "reference_ms": 1000 * statistics.median(harness.reference),
              "raw": {k: v for k, (v, _) in raw.items()},
              "elapsed_s": elapsed, "yes_share": yes_share,
              "attempted": harness.attempted, "failed": harness.failed,
              "failures": harness.failures, "problems": problems, "end_to_end": metrics}
    if tracer:
        result["per_layer"] = per_layer(tracer, passes * len(instances), scale)
        OUT.mkdir(exist_ok=True)
        trace_path = OUT / f"trace-{name}-seed{seed}.json"
        tracer.write(trace_path)
        result["trace_file"] = str(trace_path.relative_to(ROOT))
    return result


# per-layer metric -> (span name, field, unit); each is reported per
# instance, i.e. per prepare operation together with its three queries
PER_LAYER = {
    "bcs.path_consistency.calls": ("bcs.path_consistency", "calls", "count"),
    "bcs.path_consistency.ms": ("bcs.path_consistency", "s", "ms"),
    "bcs.enumerate_satisfying.calls": ("bcs.enumerate_satisfying", "calls", "count"),
    "bcs.enumerate_satisfying.ms": ("bcs.enumerate_satisfying", "s", "ms"),
    "closedness.is_max_closed.calls": ("closedness.is_max_closed", "calls", "count"),
    "closedness.is_max_closed.ms": ("closedness.is_max_closed", "s", "ms"),
    "closedness.is_join_closed.calls": ("closedness.is_join_closed", "calls", "count"),
    "closedness.is_join_closed.ms": ("closedness.is_join_closed", "s", "ms"),
    "games.find_isomorphisms.calls": ("games.find_isomorphisms", "calls", "count"),
    "games.find_isomorphisms.ms": ("games.find_isomorphisms", "s", "ms"),
    "games.isomorphisms_returned": ("games.find_isomorphisms", "returned", "count"),
    "assumptions.oc_isomorphism.calls": ("assumptions.oc_isomorphism", "calls", "count"),
    "assumptions.build_assumption_bcs.self_ms": ("assumptions.build_assumption_bcs", "self_s", "ms"),
    "closedness.orders_for_assumptions.self_ms": ("closedness.orders_for_assumptions", "self_s", "ms"),
    "si.decide_si.calls": ("si.decide_si", "calls", "count"),
    "si.decide_si.self_ms": ("si.decide_si", "self_s", "ms"),
    "si.pareto_preference.calls": ("si.pareto_preference", "calls", "count"),
    "si.pareto_preference.ms": ("si.pareto_preference", "s", "ms"),
    "serialize.load_bcs.ms": ("serialize.load_bcs", "s", "ms"),
    "cli.main.self_ms": ("cli.main", "self_s", "ms"),
}


def per_layer(tracer, instances_run: int, scale: float) -> dict:
    totals = tracer.layer_totals(first_operation=1)
    out = {}
    for metric, (span, field, unit) in PER_LAYER.items():
        value = totals[span][field] if span in totals else 0
        if unit == "ms":
            value *= 1000 * scale
        out[metric] = (value / instances_run, unit)
    return out


def run_all(args) -> int:
    """Run every workload, one process each, one after the other; print each
    one's lines, then one JSON line with the metrics keyed by workload."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, check=False)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            sys.exit(f"error: workload {name} exited with code {proc.returncode}")
        print(f"== {name}")
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        for metric, value in result["metrics"].items():
            print(f"{metric:45s} {value['value']:14.4f} {value['unit']}")
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        combined["metrics"].update({f"{name}/{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    args = _parse_args(argv)
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        # string hashing must not vary between runs, or set iteration orders
        # (and with them call counts) could differ
        env = dict(os.environ, PYTHONHASHSEED=HASH_SEED)
        os.execve(sys.executable, [sys.executable, *sys.argv], env)
    if args.workload == "all":
        return run_all(args)
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    for failure in result["failures"]:
        print(f"operation failed: {failure}", file=sys.stderr)
    for problem in result["problems"]:
        print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps({k: v for k, v in result.items()
                      if k not in ("end_to_end", "per_layer", "problems", "failures")}))
    if args.trace:
        print("traced end-to-end: " + json.dumps(
            {k: v for k, (v, _) in result["end_to_end"].items()}))
    metrics = result["per_layer"] if args.trace else result["end_to_end"]
    print(json.dumps({
        "correct": not result["problems"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": v, "unit": unit} for k, (v, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
