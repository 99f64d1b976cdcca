"""Benchmark of the adaterm experiment harness, run through its public CLI.

    python3 benchmark/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from anywhere; the program is taken from ``src/`` next to this
directory.  Each operation is one ``python3 -m adaterm`` command in a fresh
process, started only after the previous one has ended (a closed loop from
one client).  A round is one ``run`` of the workload config followed by
``workloads.SHORT_PAIRS`` pairs of a set-up probe and a ``summarize`` of
the run's output.
Rounds repeat while the next one is expected to end within ``--seconds``;
with ``--trace 0`` the time left is filled with more such pairs.
The output of every round must be byte-identical to the first, and the last
round's output is checked by ``checks.py``.

``--trace 0`` prints the end-to-end metrics: setup_s, run_s and
summarize_s, each the mean over the run, and peak_rss_mib, the median.
``--trace 1`` makes rounds of one untraced ``run`` and one traced ``run``
and ``summarize``
(``tracer.py``) and prints the per-layer metrics and the tracing overhead.
The last line of standard output is one JSON object; progress goes to
standard error.  Exit code 2 means the program or an argument is missing.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import checks
import tracer
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD_TIMEOUT_S = 150.0
# A fresh interpreter imports the package and loads and validates the
# workload config: what every adaterm command pays before its first step.
SETUP_PROBE = (
    "import sys\n"
    "import adaterm.cli\n"
    "from adaterm.harness import load_config\n"
    "load_config(sys.argv[1])\n"
)


def _median(values):
    return statistics.median(values) if values else None


def _mean(values):
    return statistics.fmean(values) if values else None


def _times(r):
    """The timings of one round, for the progress line."""
    parts = []
    for k, v in r.items():
        if isinstance(v, float):
            parts.append(f"{k} {v:.3f}")
        elif isinstance(v, list):
            parts.append(k + " " + " ".join(f"{x:.3f}" for x in v))
    return ", ".join(parts)


def _digest(out_dir):
    """SHA-256 of every file of an output directory, by name."""
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(Path(out_dir).iterdir()) if p.is_file()}


class Bench:
    """One benchmark run: its scratch directory, its config and the count
    of commands attempted and failed."""

    def __init__(self, workload, seed, work_dir):
        self.short_pairs = workloads.SHORT_PAIRS[workload]
        self.work_dir = work_dir
        self.out_dir = work_dir / "out"
        self.cfg = workloads.make_config(workload, seed, self.out_dir)
        self.cfg_path = work_dir / "config.yaml"
        workloads.write_config(self.cfg, self.cfg_path)
        self.log = work_dir / "commands.log"
        self.env = dict(os.environ)
        src = str(ROOT / "src")
        self.env["PYTHONPATH"] = (
            src + os.pathsep + self.env["PYTHONPATH"] if self.env.get("PYTHONPATH") else src)
        self.attempted = 0
        self.failed = 0

    def launch(self, argv):
        """Run one command to its end; returns (wall seconds, peak RSS in
        MiB, ok).  The clock runs from launch to exit."""
        self.attempted += 1
        with open(self.log, "ab") as log:
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=ROOT, env=self.env, stdout=log,
                                    stderr=subprocess.STDOUT)
            timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            elapsed = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        ok = proc.returncode == 0
        if not ok:
            self.failed += 1
            print(f"command failed with exit code {proc.returncode}: {' '.join(argv)}",
                  file=sys.stderr)
        return elapsed, usage.ru_maxrss / 1024.0, ok

    def adaterm(self, *args):
        return [sys.executable, "-m", "adaterm", *map(str, args)]

    def traced(self, spans, *args):
        return [sys.executable, str(HERE / "tracer.py"), str(spans), *map(str, args)]

    def setup_probe(self):
        return [sys.executable, "-c", SETUP_PROBE, str(self.cfg_path)]

    def fresh_output(self):
        shutil.rmtree(self.out_dir, ignore_errors=True)

    def timed_round(self, k):
        """Round ``k``: one run, then set-up probes and summarize commands,
        untraced.  Returns None if the run failed."""
        self.fresh_output()
        run_s, rss, ok = self.launch(self.adaterm("run", self.cfg_path))
        if not ok:
            return None
        r = {"run_s": run_s, "rss": rss, "setup": [], "summarize": [],
             "run_summary": (self.out_dir / "summary.csv").read_bytes(),
             "summary_stable": True}
        for _ in range(self.short_pairs):
            self.short_pair(r)
        r["digest"] = _digest(self.out_dir)
        return r

    def short_pair(self, r):
        """One set-up probe and one summarize of the current output, timed
        into round ``r``."""
        for argv, times in ((self.setup_probe(), r["setup"]),
                            (self.adaterm("summarize", self.out_dir), r["summarize"])):
            s, _, ok = self.launch(argv)
            if ok:
                times.append(s)
        if (self.out_dir / "summary.csv").read_bytes() != r["run_summary"]:
            r["summary_stable"] = False

    def traced_round(self, k):
        """Round ``k``: one untraced run for the baseline, then a traced
        run and a traced summarize.  Returns None if a command failed."""
        self.fresh_output()
        base_s, _, ok = self.launch(self.adaterm("run", self.cfg_path))
        if not ok:
            return None
        base_digest = _digest(self.out_dir)
        self.fresh_output()
        run_spans = self.work_dir / f"run{k}.npz"
        sum_spans = self.work_dir / f"summarize{k}.npz"
        traced_s, _, ok = self.launch(self.traced(run_spans, "run", self.cfg_path))
        if not ok:
            return None
        digest = _digest(self.out_dir)
        _, _, ok = self.launch(self.traced(sum_spans, "summarize", self.out_dir))
        if not ok:
            return None
        return {"base_s": base_s, "traced_s": traced_s, "digest": digest,
                "base_digest": base_digest, "run": tracer.span_totals(run_spans),
                "summarize": tracer.span_totals(sum_spans)}

    def rounds(self, deadline, one_round):
        """Repeat ``one_round`` while the next round is expected to end
        by ``deadline`` (a ``time.perf_counter`` value); at least one round
        is made."""
        done = []
        t0 = time.perf_counter()
        for attempts in itertools.count(1):
            r = one_round(len(done))
            if r is not None:
                done.append(r)
                print(f"round {len(done)}: {_times(r)}", file=sys.stderr)
            now = time.perf_counter()
            if now + (now - t0) / attempts > deadline:
                return done

    def check(self, rounds):
        """Check the last round's output and that every round wrote the
        same bytes."""
        if not rounds:
            return ["no round completed"]
        errors = checks.check_output(self.cfg, self.out_dir)
        first = rounds[0]["digest"]
        for i, r in enumerate(rounds):
            if r["digest"] != first:
                errors.append(f"round {i + 1} wrote different output from round 1")
            if r.get("base_digest", first) != first:
                errors.append(f"round {i + 1}: the traced run wrote different output "
                              "from the untraced run")
            if r.get("summary_stable") is False:
                errors.append(f"round {i + 1}: summarize rewrote summary.csv differently")
        print(f"results.csv sha256 {first.get('results.csv')}", file=sys.stderr)
        return errors


def end_to_end(bench, seconds):
    # An untimed probe first lets the interpreter write its bytecode caches.
    bench.launch(bench.setup_probe())
    deadline = time.perf_counter() + seconds
    rounds = bench.rounds(deadline, bench.timed_round)
    # The time left after the last whole round goes to more short pairs on
    # its output, so that the commands fill the window.
    while rounds and time.perf_counter() < deadline:
        bench.short_pair(rounds[-1])
    errors = bench.check(rounds)
    # Times are means over the run, not medians: a shared host runs the
    # program at two speeds, 1.3 to 1.7 times apart, in phases of one to
    # tens of seconds, and a median of such a two-mode sample jumps from one
    # mode to the other as their mix changes.  The mean moves in proportion.
    metrics = {
        "setup_s": (_mean([s for r in rounds for s in r["setup"]]), "s"),
        "run_s": (_mean([r["run_s"] for r in rounds]), "s"),
        "summarize_s": (_mean([s for r in rounds for s in r["summarize"]]), "s"),
        "peak_rss_mib": (_median([r["rss"] for r in rounds]), "MiB"),
    }
    return errors, metrics


def per_layer(bench, seconds):
    rounds = bench.rounds(time.perf_counter() + seconds, bench.traced_round)
    errors = bench.check(rounds)
    metrics = {}
    if not rounds:
        return errors, metrics

    def exact(name, values, unit):
        """A count that must repeat exactly in every traced round."""
        if len(set(values)) > 1:
            errors.append(f"{name} differs between traced rounds: {values}")
        metrics[name] = (values[0], unit)

    def both_commands(r):
        totals = dict(r["run"]["functions"])
        for name, (calls, self_s) in r["summarize"]["functions"].items():
            c0, s0 = totals.get(name, (0, 0.0))
            totals[name] = (c0 + calls, s0 + self_s)
        return totals

    per_command = [both_commands(r) for r in rounds]
    for name in tracer.NAMES:
        per_round = [totals.get(name) for totals in per_command]
        if per_round[0] is None:
            metrics[f"{name}.calls"] = (None, "count")
            metrics[f"{name}.self_s"] = (None, "s")
            continue
        exact(f"{name}.calls", [c for c, _ in per_round], "count")
        metrics[f"{name}.self_s"] = (_median([s for _, s in per_round]), "s")
    exact("tdist.downweighted", [r["run"]["downweighted"] for r in rounds], "count")
    # Every round wrote the same bytes (Bench.check), so one size stands for all.
    out = bench.out_dir
    metrics["harness.results_csv_bytes"] = ((out / "results.csv").stat().st_size, "B")
    metrics["regret.trace_csv_bytes"] = (
        sum(p.stat().st_size for p in out.glob("regret_*.csv")), "B")
    exact("trace.spans", [r["run"]["spans"] + r["summarize"]["spans"] for r in rounds], "count")
    base = _median([r["base_s"] for r in rounds])
    traced = _median([r["traced_s"] for r in rounds])
    metrics["trace.overhead_share"] = ((traced - base) / base, "ratio")
    metrics["trace.covered_share"] = (
        _median([r["run"]["self_s"] / r["traced_s"] for r in rounds]), "ratio")
    return errors, metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not (ROOT / "src" / "adaterm" / "cli.py").is_file():
        print(f"benchmark: no program at {ROOT / 'src' / 'adaterm'}", file=sys.stderr)
        return 2

    work_dir = ROOT / ".bench_out" / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    shutil.rmtree(work_dir, ignore_errors=True)
    work_dir.mkdir(parents=True)
    bench = Bench(args.workload, args.seed, work_dir)
    try:
        measure = per_layer if args.trace else end_to_end
        errors, metrics = measure(bench, args.seconds)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    for e in errors:
        print(f"check failed: {e}", file=sys.stderr)
    print(json.dumps({
        "correct": not errors,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
