"""Benchmark of the `locspot` CLI: build, cold start, batch and live extract.

    python3 perfbench/run.py --workload region_stream --seed 1 \
        --seconds 10 --trace 0

Run from the root of a checkout. The workload's inputs are generated
from the seed, then `locspot build`, `locspot extract` and `locspot
evaluate` run as child processes of this one. With --trace 1 the
per-layer metrics come from an in-process traced run instead. The last
stdout line is the result object; the line before it is the full
report (environment, sample counts, error_rate, every metric).
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import math
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibrate
import procs
from workloads import WORKLOADS, generate

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 5
ROUNDS = 3             # builds, cold starts, batches and open-loop segments
BUILDS = 3             # evenly spaced over the rounds
BATCH_SHARE = 0.35     # of --seconds, for the workers-1 batches
RATE_WINDOW = 256      # lines of batch output per throughput sample
OPEN_SHARE = 0.2       # of --seconds, for the timed open-loop segments
WARMUP_S = 1.0         # open-loop seconds discarded before the first round
OPEN_FILLERS = 500     # lines that may follow a segment's timed lines
REFERENCE_LINES = 200  # batch lines replayed in-process for the check
RUN_LIMIT_S = 170.0    # children still running after this are killed


def _percentile(values, q):
    """Nearest-rank percentile, q in (0, 100]."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100 * len(ordered)) - 1)]


def _windows(stamps) -> list[tuple[int, float]]:
    """(lines, seconds) of consecutive windows of >= RATE_WINDOW lines.

    A window runs from one read of output to a later one. Lines that
    arrive with the first read waited for start-up, so they and the
    start-up time are left out, and so is a last window that is short.
    """
    reads = [(t, len(list(group))) for t, group in itertools.groupby(stamps)]
    windows, lines = [], 0
    start = reads[0][0] if reads else None
    for t, n in reads[1:]:
        lines += n
        if lines >= RATE_WINDOW:
            windows.append((lines, t - start))
            start, lines = t, 0
    if not windows:
        raise RuntimeError("batch output too small to time")
    return windows


def _rss_growth(child: procs.Child) -> float:
    """VmRSS change from the first read of output to the last but one.

    The last read comes with the exit flush, during teardown.
    """
    samples = [rss for rss in child.rss[:-1] if rss is not None]
    return samples[-1] - samples[0] if samples else 0.0


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def _commit():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


class Run:
    """One benchmark run: its phases, tallies and metrics."""

    def __init__(self, args, work: Path):
        self.workload = WORKLOADS[args.workload]
        self.args = args
        self.work = work
        self.nproc = len(os.sched_getaffinity(0))
        self.deadline = time.perf_counter() + RUN_LIMIT_S
        self.children: list[procs.Child] = []
        self.attempted = self.failed = 0
        self.failures: dict[str, int] = {}
        self.samples: dict[str, int] = {}
        self.raw: dict[str, list[float]] = {}  # timed samples, in run order
        self.metrics: dict[str, float] = {}
        self.phase_s: dict[str, float] = {}

    # -- bookkeeping -------------------------------------------------

    def fail(self, what: str, count: int = 1):
        if count:
            self.failed += count
            self.failures[what] = self.failures.get(what, 0) + count

    def gauge(self):
        """Time the fixed calibration work, to follow the machine's speed."""
        self.raw.setdefault("calibration_s", []).append(calibrate.sample())

    def spawn(self, args, stdin) -> procs.Child:
        child = procs.Child(ROOT, args, stdin, self.work / "locspot.log",
                            self.deadline)
        self.children.append(child)
        return child

    def reap(self, child: procs.Child, phase: str) -> procs.Child:
        """Count a nonzero exit; one that printed nothing ends the run."""
        child.finish()
        self.attempted += 1
        if child.code != 0:
            if not child.out:
                log = (self.work / "locspot.log").read_text(errors="replace")
                raise RuntimeError(f"{phase}: locspot exited {child.code}:\n"
                                   f"{log[-2000:]}")
            self.fail(f"{phase}: exit {child.code}")
        return child

    def check_lines(self, phase, sent: list[bytes], got: list[str]):
        """One output line per input line, in order, ids matching."""
        self.attempted += len(sent)
        bad = abs(len(sent) - len(got))
        for line, out in zip(sent, got):
            try:
                record = json.loads(out)
            except json.JSONDecodeError:
                bad += 1
                continue
            if "error" in record or record.get("id") != json.loads(line)["id"]:
                bad += 1
        self.fail(f"{phase}: bad or missing lines", bad)

    def extract_args(self, workers):
        return ["--model-cache", self.cache, "--workers", workers,
                "--spell", "on" if self.workload.spell else "off", "extract"]

    # -- phases --------------------------------------------------------

    def setup(self):
        w, seconds = self.workload, self.args.seconds
        self.batch_lines = max(w.gold_docs, math.ceil(
            w.batch_rate * BATCH_SHARE * seconds / ROUNDS))
        self.segment_lines = math.ceil(w.open_rate * OPEN_SHARE * seconds
                                       / ROUNDS)
        self.warmup_lines = math.ceil(w.open_rate * WARMUP_S)
        count = max(self.batch_lines, OPEN_FILLERS + max(
            self.segment_lines, self.warmup_lines))
        times = []
        for k in range(SETUP_REPEATS):
            started = time.perf_counter()
            self.inputs = generate(w, self.args.seed, count,
                                   self.work / f"inputs{k}")
            times.append(time.perf_counter() - started)
        self.raw["setup_s"] = times
        with open(self.inputs["tweets"], "rb") as f:
            self.tweets = f.readlines()
        self.batch = self.tweets[:self.batch_lines]
        self.batch_path = self.work / "batch.jsonl"
        self.batch_path.write_bytes(b"".join(self.batch))
        self.cache = self.work / "model.lspc"

    def build(self, k: int) -> procs.Child:
        """`locspot build`; every build after the first must agree with it."""
        cache = self.cache if k == 0 else self.work / f"rebuilt{k}.lspc"
        self.gauge()
        child = self.spawn(["--config", self.inputs["config"],
                            "--model-cache", cache, "build"],
                           subprocess.DEVNULL)
        child.read()
        self.reap(child, "build")
        if k:
            self.attempted += 1
            if cache.read_bytes() != self.cache.read_bytes():
                self.fail("build: a second build wrote a different cache")
            cache.unlink()
        return child

    def cold_start(self) -> float:
        """Spawn extract with one line at spawn; time its first output."""
        self.gauge()
        child = self.spawn(self.extract_args(1), subprocess.PIPE)
        child.proc.stdin.write(self.tweets[0])
        child.proc.stdin.close()
        child.read(first_line_only=True)
        started = child.stamps[0] - child.spawned if child.stamps else None
        child.read()
        self.reap(child, "cold_start")
        self.check_lines("cold_start", self.tweets[:1], child.lines())
        return started

    def run_batch(self, workers) -> procs.Child:
        self.gauge()
        with open(self.batch_path, "rb") as stdin:
            child = self.spawn(self.extract_args(workers), stdin)
            child.read()
        self.reap(child, f"batch_w{workers}")
        self.check_lines(f"batch_w{workers}", self.batch, child.lines())
        return child

    def rounds(self):
        """Builds, cold starts, both batches and the open loop, in rounds.

        Every round extracts the same batch file in fresh processes and
        sends one segment of the open loop. Spreading each metric's
        samples over the run averages over the shared machine's fast and
        slow spells instead of landing in one of them.
        """
        builds, cold, ones = [], [], []
        windows = {1: [], self.nproc: []}
        for r in range(ROUNDS):
            if not self.args.trace:
                if r * BUILDS % ROUNDS < BUILDS:
                    builds.append(self.build(len(builds)))
                cold += [self.cold_start()
                         for _ in range(self.workload.cold_per_round)]
            one = self.run_batch(1)
            many = self.run_batch(self.nproc)
            reference = ones[0].out if ones else one.out
            for other, what in ((one, "batch_w1 differs between rounds"),
                                (many, f"batch_w{self.nproc} differs "
                                       "from batch_w1")):
                self.attempted += 1
                if other.out != reference:
                    self.fail(what)
            windows[1] += _windows(one.stamps)
            windows[self.nproc] += _windows(many.stamps)
            ones.append(one)
            if r == 0:
                if None in cold:
                    raise RuntimeError("cold_start: extract printed nothing")
                self.open_stream(statistics.median(cold) if cold else
                                 one.stamps[0] - one.spawned)
            self.open_segment()
        self.close_stream()
        lps = {workers: sum(n for n, _ in w) / sum(t for _, t in w)
               for workers, w in windows.items()}
        self.raw.update(
            build_s=[c.ended - c.spawned for c in builds], cold_start_s=cold,
            extract_lps_1=[n / t for n, t in windows[1]],
            extract_lps_n=[n / t for n, t in windows[self.nproc]])
        self.samples.update(batch_lines=self.batch_lines, rounds=ROUNDS,
                            rate_windows_1=len(windows[1]),
                            rate_windows_n=len(windows[self.nproc]))
        self.metrics.update({
            "extract_peak_rss_mb": max(one.peak_rss_mb for one in ones),
            "cli.lane_scaling": lps[self.nproc] / lps[1],
            "cli.rss_growth_mb": statistics.median(map(_rss_growth, ones)),
        })
        rates = {"extract_lps_1": lps[1], "extract_lps_n": lps[self.nproc]}
        times = {"setup_s": statistics.median(self.raw["setup_s"])}
        if builds:
            self.samples["build_s"] = len(builds)
            times["build_s"] = statistics.median(self.raw["build_s"])
            self.metrics.update({
                "build_peak_rss_mb": max(c.peak_rss_mb for c in builds),
                "cache_bytes": self.cache.stat().st_size,
            })
        if cold:
            self.samples["cold_start_s"] = len(cold)
            times["cold_start_s"] = statistics.median(cold)
        self.scale_to_reference(times, rates)
        self.batch_output = ones[0].lines()

    def scale_to_reference(self, times: dict, rates: dict):
        """Turn wall-clock times and rates into ones at reference speed.

        The machine's speed in this run is the median of the calibration
        samples taken before every timed child; a run on a machine
        `slowdown` times slower than the reference has its times divided
        and its rates multiplied by it. Wall-clock values stay in the
        report under `<name>.wall`.
        """
        slowdown = (statistics.median(self.raw["calibration_s"])
                    / calibrate.REFERENCE_S)
        self.samples["calibration"] = len(self.raw["calibration_s"])
        self.metrics["machine.slowdown"] = slowdown
        for name, value in times.items():
            self.metrics[f"{name}.wall"] = value
            self.metrics[name] = value / slowdown
        for name, value in rates.items():
            self.metrics[f"{name}.wall"] = value
            self.metrics[name] = value * slowdown

    def open_stream(self, ready_s: float):
        """Start the open loop's workers-1 extract and warm it up.

        The warm-up schedule starts 1.1 x the measured start-up time
        after spawn; its latencies are discarded.
        """
        child = self.spawn(self.extract_args(1), subprocess.PIPE)
        self.stream = procs.OpenLoop(child)
        self.latency, self.lag, self.backlog_max = [], [], 0
        self.stream.segment(self.tweets[:self.warmup_lines + OPEN_FILLERS],
                            self.warmup_lines, self.workload.open_rate,
                            child.spawned + ready_s * 1.1)

    def open_segment(self):
        """One timed segment of the open loop, starting now."""
        self.gauge()
        latency, lag, backlog = self.stream.segment(
            self.tweets[:self.segment_lines + OPEN_FILLERS],
            self.segment_lines, self.workload.open_rate, time.perf_counter())
        self.latency += latency
        ms = [x * 1e3 for x in latency]
        self.raw.setdefault("segment_p50_ms", []).append(_percentile(ms, 50))
        self.raw.setdefault("segment_p99_ms", []).append(_percentile(ms, 99))
        self.lag += lag
        self.backlog_max = max(self.backlog_max, backlog)

    def close_stream(self):
        self.stream.close()
        self.reap(self.stream.child, "open_loop")
        self.check_lines("open_loop", self.stream.sent,
                         self.stream.child.lines())
        latency_ms = [s * 1e3 for s in self.latency]
        self.samples["latency"] = len(latency_ms)
        self.metrics.update({
            "latency_p50_ms": _percentile(latency_ms, 50),
            "latency_p99_ms": _percentile(latency_ms, 99),
            "cli.backlog_max_lines": self.backlog_max,
            "cli.generator_lag_ms": _percentile(self.lag, 99) * 1e3,
        })

    def evaluate(self):
        predictions = self.work / "predictions.jsonl"
        predictions.write_text("\n".join(self.batch_output) + "\n",
                               encoding="utf-8")
        child = self.spawn(["evaluate", predictions, self.inputs["gold"]],
                           subprocess.DEVNULL)
        child.read()
        self.reap(child, "evaluate")
        report = json.loads(child.out) if child.code == 0 else {}
        if report.get("missing_documents"):
            self.fail("evaluate: gold documents without predictions",
                      len(report["missing_documents"]))
        self.samples["gold_docs"] = self.workload.gold_docs
        self.metrics["f1"] = report.get("aggregate", {}).get("f1", 0.0)

    def reference_check(self):
        """Sample batch lines must equal in-process extraction."""
        import layers
        ex = layers.load_extractor(self.cache, self.workload.spell)
        step = max(1, self.batch_lines // REFERENCE_LINES)
        lines = self.batch[::step]
        outputs = self.batch_output[::step]
        self.attempted += len(lines)
        self.fail("in-process reference differs",
                  layers.mismatches(ex, [l.decode() for l in lines], outputs))

    def traced(self):
        import layers
        lines = [l.decode() for l in self.tweets[:self.workload.trace_lines]]
        spans_path = self.work.parent / "results" / (
            f"{self.args.workload}-{self.args.seed}-spans.jsonl.gz")
        spans_path.parent.mkdir(exist_ok=True)
        self.metrics.update(layers.traced_run(
            self.workload, self.inputs["config"], self.cache, lines,
            spans_path))
        self.samples["trace_lines"] = len(lines)

    def execute(self):
        if self.args.trace:  # the traced run builds the cache in-process
            phases = [self.setup, self.traced, self.rounds,
                      self.reference_check]
        else:
            phases = [self.setup, self.rounds, self.evaluate,
                      self.reference_check]
        for phase in phases:
            started = time.perf_counter()
            phase()
            self.phase_s[phase.__name__] = time.perf_counter() - started

    def kill_all(self):
        for child in self.children:
            if child.proc.returncode is None:
                child.proc.kill()
                child.proc.wait()


def _environment(nproc: int) -> dict:
    env = procs.child_env(ROOT)
    return {
        "python": sys.version.split()[0],
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "nproc": nproc,
        "commit": _commit(),
        "src_digest": _source_digest(),
        "child_env": {k: v for k, v in sorted(env.items())
                      if k.startswith(("PYTHON", "LOCSPOT", "LANG", "LC_"))},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # so that `finally` stops the children when the run is terminated
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not (ROOT / "src" / "locspot" / "__init__.py").is_file():
        print(f"perfbench: no locspot sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = spec["per_layer" if args.trace else "end_to_end"]

    work = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    run = Run(args, work)
    try:
        run.execute()
    except (RuntimeError, TimeoutError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 3
    finally:
        run.kill_all()
        shutil.rmtree(work, ignore_errors=True)

    metrics = {m["name"]: {"value": run.metrics[m["name"]], "unit": m["unit"]}
               for m in declared}
    report = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "environment": _environment(run.nproc),
        "attempted": run.attempted, "failed": run.failed,
        "error_rate": run.failed / run.attempted,
        "failures": run.failures, "samples": run.samples, "raw": run.raw,
        "phase_s": run.phase_s,
        "benchmark_peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "metrics": run.metrics,
    }
    print(json.dumps(report, sort_keys=True))
    correct = run.failed == 0
    print(json.dumps({"correct": correct, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
