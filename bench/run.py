#!/usr/bin/env python3
"""Benchmark of the ajc pipeline on three workloads.

    python3 bench/run.py --workload tw-fine|grid-2500|sample-tw48|all
        [--seed N] [--seconds S] [--trace 0|1] [--size full|tiny]

Each workload runs as a closed loop with one caller: a pass starts when the
previous one has finished, for --seconds seconds.  Run from anywhere; the
package is imported from the src/ directory next to bench/.  The last line
of standard output is one JSON object with the keys correct, attempted,
failed and metrics: the end-to-end metrics with --trace 0, the per-layer
metrics with --trace 1.  See bench/README.md for what each metric means.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"
NAMES = ("tw-fine", "grid-2500", "sample-tw48")
# A run has `workload.rounds` rounds: each takes one set-up sample (or,
# traced, one import sample and one writer pass), one CLI set and its share
# of the pass loop, so every kind of sample is spread over the whole run.
MIN_PASSES = 4
CLI_COMMANDS = ("assemble", "committor", "convergence", "koopman", "propagate", "sample")
LAYER_SPANS = ("io.build_sequence", "galerkin.assemble", "operators.koopman",
               "committor.committor", "operators.activity", "operators.synchronize",
               "committor.coherence", "oracle.convergence", "jumpchain.sample",
               "io.save_jump_matrix", "io.write_csv")
EXACT_COUNTERS = ("galerkin.nnz", "galerkin.matrix_bytes", "galerkin.cumulative_bytes",
                  "jumpchain.jumps", "jumpchain.trajectories", "io.bytes_written")
ACCURACY = {"galerkin.mass_closure": "galerkin.mass_closure_err",
            "operators.koopman_ones": "operators.koopman_ones_err",
            "operators.duality": "operators.duality_err",
            "committor.range": "committor.range_err"}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=NAMES + ("all",))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=None,
                   help="measured time per run (default: run_seconds of BENCHMARK.json)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full")
    p.add_argument("--setup-child", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def child_env() -> dict:
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=str(SRC) + (os.pathsep + path if path else ""))


def metric(value, unit) -> dict:
    return {"value": value, "unit": unit}


class Run:
    """One workload, one seed: set-up, timed passes, CLI set, report."""

    def __init__(self, args, launcher):
        from harness import HostProbe, NullTracer, ProcessProbe, Tracer
        from workloads import WORKLOADS, Checks

        self.args = args
        self.launcher = launcher
        self.workload = WORKLOADS[args.workload](args.seed, args.size)
        self.probe = HostProbe()
        self.checks = Checks()
        self.counters: dict = {}
        self.steady = True
        self.tracer = Tracer() if args.trace else NullTracer()
        self.null = NullTracer()
        self.passes: list[tuple[int, float, float]] = []  # (pass id, wall, factor)
        self.cli_times: dict[str, list[float]] = {}
        self.cli_rss: dict[str, list[float]] = {}
        self.workdir = OUT / f"{args.workload}-seed{args.seed}-{os.getpid()}"
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.process_probe = ProcessProbe(launcher, self.workdir, child_env())
        self._process_before: float | None = None  # probe just taken, if any
        # the untimed warm-up pass of this process's own set-up; checking it
        # also builds what the checks need before any pass is timed
        self.reference = self.workload.run_pass(self.null)
        self.note_counters(self.workload.check(self.reference, self.checks))

    def note_counters(self, counters: dict) -> None:
        """Exact counters must repeat in every pass of a run."""
        for name, value in counters.items():
            if self.counters.setdefault(name, value) != value:
                self.steady = False
                print(f"unsteady counter {name}: {value} != {self.counters[name]}")

    def child(self, argv: list[str], cwd) -> tuple:
        """(result, corrected wall time) of one child process.  Consecutive
        children share the process probe taken between them."""
        before = self._process_before or self.process_probe.probe()
        res = self.launcher.run(argv, cwd, child_env())
        self._process_before = self.process_probe.probe()
        return res, res.wall_s * self.process_probe.factor(before, self._process_before)

    def tracer_for(self, i: int):
        """Traced runs alternate traced (even) and untraced (odd) passes."""
        if not self.args.trace or i % 2:
            return self.null
        self.tracer.pass_id = i
        return self.tracer

    def timed_passes(self, seconds: float, at_least: int = 1) -> None:
        """Closed loop for `seconds`: each pass starts after the last returned."""
        import gc

        self._process_before = None
        t_end = time.perf_counter() + seconds
        before = self.probe.probe()
        first = len(self.passes)
        while time.perf_counter() < t_end or len(self.passes) - first < at_least:
            i = len(self.passes)
            tracer = self.tracer_for(i)
            t0 = time.perf_counter()
            with tracer.span("pass"):
                out = self.workload.run_pass(tracer)
            wall = time.perf_counter() - t0
            self.note_counters(self.workload.check(out, self.checks.repeats))
            self.reference = out
            gc.collect()
            after = self.probe.probe()
            self.passes.append((i, wall, self.probe.factor(before, after)))
            before = after

    def setup_sample(self) -> float:
        argv = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", self.args.workload,
                "--seed", str(self.args.seed), "--size", self.args.size, "--setup-child"]
        res, corrected = self.child(argv, self.workdir)
        if res.returncode != 0:
            raise RuntimeError(f"set-up child failed: {res.stderr}")
        return corrected

    def cli_set(self) -> None:
        """One run of the workload's CLI set, each command in a fresh process."""
        for command, config, extra in self.workload.cli_configs():
            directory = self.workdir / f"cli-{command}"
            directory.mkdir()
            (directory / "config.json").write_text(json.dumps(config))
            argv = [sys.executable, "-m", "ajc.cli", command,
                    "--config", "config.json", "--out", "."] + extra
            res, corrected = self.child(argv, directory)
            if res.returncode != 0:
                print(f"cli {command} exited {res.returncode}: {res.stderr.strip()}")
            self.checks.record(f"cli.{command}", res.returncode == 0 and self.workload.check_cli(
                command, directory, res.stdout, self.reference))
            self.cli_times.setdefault(command, []).append(corrected)
            self.cli_rss.setdefault(command, []).append(res.peak_rss_mb)
            shutil.rmtree(directory)

    def write_outputs(self, r: int) -> tuple[str, float]:
        """Library writers on the last pass's results; returns (span pass id, factor)."""
        directory = self.workdir / "writers"
        directory.mkdir()
        self.tracer.pass_id = f"write{r}"
        self._process_before = None
        before = self.probe.probe()
        self.workload.write_outputs(self.reference, self.tracer, directory)
        factor = self.probe.factor(before, self.probe.probe())
        self.note_counters({"io.bytes_written": sum(p.stat().st_size for p in directory.iterdir())})
        shutil.rmtree(directory)
        return self.tracer.pass_id, factor

    def end_to_end(self) -> dict:
        from harness import median, tail_percentile

        setup = []
        for _ in range(self.workload.rounds):
            setup.append(self.setup_sample())
            self.cli_set()
            self.timed_passes(self.args.seconds / self.workload.rounds)
        if len(self.passes) < MIN_PASSES:
            self.timed_passes(0.0, MIN_PASSES - len(self.passes))
        corrected = [w * f for _, w, f in self.passes]
        sets = list(zip(*self.cli_times.values()))
        set_rss = list(zip(*self.cli_rss.values()))
        tail = tail_percentile(corrected)
        print(f"pass_s: median {median(corrected):.4f} s over {len(corrected)} passes "
              f"(raw wall median {median([w for _, w, _ in self.passes]):.4f} s); "
              + (f"p{tail[0]} {tail[1]:.4f} s" if tail else
                 "no percentile has 10 samples beyond it"))
        print(f"setup_s samples: {[round(s, 4) for s in setup]}")
        print(f"cli_s samples: {[round(sum(s), 4) for s in sets]}")
        return {"setup_s": metric(median(setup), "s"),
                "pass_s": metric(median(corrected), "s"),
                "cli_s": metric(median([sum(s) for s in sets]), "s"),
                "cli_peak_rss_mb": metric(median([max(s) for s in set_rss]), "MB")}

    def per_layer(self) -> dict:
        from harness import median

        factors, imports = {}, []
        import_argv = [sys.executable, "-c", "import ajc.cli"]
        for r in range(self.workload.rounds):
            imports.append(self.child(import_argv, self.workdir)[1])
            pass_id, factors[pass_id] = self.write_outputs(r)
            self.cli_set()
            self.timed_passes(self.args.seconds / self.workload.rounds)
        if len(self.passes) < MIN_PASSES:
            self.timed_passes(0.0, MIN_PASSES - len(self.passes))
        factors.update({i: f for i, _, f in self.passes})
        traced = [w * f for i, w, f in self.passes if i % 2 == 0]
        untraced = [w * f for i, w, f in self.passes if i % 2]

        self_times = self.tracer.self_times()
        metrics = {}
        for name in LAYER_SPANS:
            ids = [k for k in factors if (k, name) in self_times]
            metrics[name + "_s"] = metric(
                median([self_times[(k, name)] * factors[k] for k in ids]) if ids else 0.0, "s")
        units = {"galerkin.nnz": "count", "jumpchain.jumps": "count",
                 "jumpchain.trajectories": "count"}
        for name in EXACT_COUNTERS:
            metrics[name] = metric(self.counters.get(name, 0), units.get(name, "bytes"))
        sample_s = metrics["jumpchain.sample_s"]["value"]
        metrics["jumpchain.jumps_per_s"] = metric(
            self.counters["jumpchain.jumps"] / sample_s if sample_s else 0.0, "1/s")
        for check, name in ACCURACY.items():
            metrics[name] = metric(self.checks.worst.get(check, 0.0), "1")
        accuracy = self.workload.accuracy(self.reference)
        for name in ("operators.activity_residual", "oracle.slope"):
            metrics[name] = metric(accuracy.get(name, 0.0), "1")
        metrics["cli.import_s"] = metric(median(imports), "s")
        for command in CLI_COMMANDS:
            metrics[f"cli.{command}_s"] = metric(
                median(self.cli_times[command]) if command in self.cli_times else 0.0, "s")
            metrics[f"cli.{command}_rss_mb"] = metric(
                median(self.cli_rss[command]) if command in self.cli_rss else 0.0, "MB")
        metrics["bench.trace_overhead_s"] = metric(median(traced) - median(untraced), "s")
        metrics["host.probe_s"] = metric(median(self.probe.samples), "s")
        metrics["host.process_probe_s"] = metric(median(self.process_probe.samples), "s")

        trace_file = OUT / f"trace-{self.args.workload}-seed{self.args.seed}.json"
        trace_file.write_text(json.dumps({"spans": self.tracer.as_records(),
                                          "factors": {str(k): f for k, f in factors.items()}}))
        print(f"spans: {len(self.tracer.spans)} written to {trace_file.relative_to(ROOT)}")
        return metrics

    def report(self, metrics: dict) -> dict:
        for name, failed in sorted(self.checks.failed.items()):
            worst = self.checks.worst.get(name)
            print(f"check failed: {name} in {failed} operations"
                  + (f" (worst {worst:.3g})" if worst is not None else ""))
        print("counters " + json.dumps(self.counters, sort_keys=True))
        for name, m in metrics.items():
            print(f"metric {name} {m['value']!r} {m['unit']}")
        return {"correct": self.steady, "attempted": self.checks.attempted,
                "failed": self.checks.failed_total, "metrics": metrics}

    def close(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)


def run_one(args) -> int:
    if args.setup_child:
        from harness import NullTracer
        from workloads import WORKLOADS

        WORKLOADS[args.workload](args.seed, args.size).run_pass(NullTracer())
        return 0
    from harness import Launcher

    launcher = Launcher()
    run = None
    try:
        run = Run(args, launcher)
        metrics = run.per_layer() if args.trace else run.end_to_end()
        result = run.report(metrics)
    finally:
        if run is not None:
            run.close()
        launcher.close()
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(result, indent=1))
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, one after another."""
    import subprocess

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in NAMES:
        argv = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace), "--size", args.size]
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=600)
        print(f"== {name}\n{proc.stdout}", end="")
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return proc.returncode
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        combined["metrics"].update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    (OUT / f"BENCH_seed{args.seed}_trace{args.trace}.json").write_text(
        json.dumps(combined, indent=1))
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "ajc" / "__init__.py").is_file():
        print(f"bench: ajc sources not found under {SRC}", file=sys.stderr)
        return 2
    if args.seconds is None:
        args.seconds = float(json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"])
    OUT.mkdir(exist_ok=True)
    if args.workload == "all":
        return run_all(args)
    # One BLAS thread for this process and every child.  On 2 cores an idle
    # second BLAS thread spins against the caller: it doubled the spread of
    # CLI child times and halved their correlation with the process probe.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
