"""Benchmark of the ``gkmgraphs`` command line.

Run from the root of a source checkout:

    python3 bench/run.py --workload solver --seed 1 --seconds 25 --trace 0

This process runs a workload's commands as child processes, one at a time
(a closed loop with one client), in passes until ``--seconds`` have gone;
each pass uses its own renamed copy of the inputs.  Every child's exit
code and stdout are checked against the recorded ``reference.json``.
``--trace 0`` reports the end-to-end metrics, medians over the passes;
``--trace 1`` runs the same commands in one child that traces every layer
(``tracer.py``) and reports the per-layer metrics.
The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import NamedTuple

import workloads as wl

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SETUP_REPEATS = 3
STARTUP_REPEATS = 5
COMMAND_TIMEOUT_S = 60.0
# Every run ends well inside the 180 s the caller allows, even when
# commands hang: no child may run past this point.
HARD_LIMIT_S = 150.0


class Outcome(NamedTuple):
    cmd: str
    code: int | None
    stdout: bytes
    wall_s: float
    cpu_s: float
    rss_kib: int
    timed_out: bool


class Run:
    """One invocation: its inputs, child environment and deadlines."""

    def __init__(self, workload, seed, seconds):
        self.workload = workload
        self.commands = wl.WORKLOADS[workload]
        self.seed = seed
        self.seconds = seconds
        self.t0 = time.perf_counter()
        self.dir = WORK / f"{workload}-s{seed}"
        self.env = dict(
            os.environ,
            PYTHONPATH=str(SRC),
            PYTHONHASHSEED=str(seed % 2**32),
        )
        # set-up warms the bytecode cache; the children must use it
        self.env.pop("PYTHONDONTWRITEBYTECODE", None)
        self.files = []  # per variant: rung -> input path
        self.backs = []  # per variant: rung -> map from renamed ids back
        self.refs = {}

    def time_left(self):
        return HARD_LIMIT_S - (time.perf_counter() - self.t0)

    # -- set-up ----------------------------------------------------------------------

    def setup_once(self):
        """Generate, rename and write the inputs, warm the bytecode cache and
        load the references; return the wall time taken."""
        t = time.perf_counter()
        subprocess.run(
            [sys.executable, "-c", "import gkmgraphs.cli"], env=self.env, check=True
        )
        from gkmgraphs.fixtures import KlmSpec, gen_klm

        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        self.files = [{} for _ in range(wl.VARIANTS)]
        self.backs = [{} for _ in range(wl.VARIANTS)]
        for rung in wl.rungs_of(self.commands):
            doc = gen_klm(KlmSpec(*map(int, rung))).to_dict()
            for v in range(wl.VARIANTS):
                out, back = (
                    wl.rename(doc, wl.variant_rng(self.seed, rung, v))
                    if self.seed
                    else (doc, {})
                )
                path = self.dir / f"L{rung}-{v}.json"
                path.write_text(json.dumps(out, sort_keys=True, indent=1) + "\n")
                self.files[v][rung] = str(path)
                self.backs[v][rung] = back
        self.refs = wl.load_references()
        return time.perf_counter() - t

    def setup(self):
        return statistics.median(self.setup_once() for _ in range(SETUP_REPEATS))

    # -- checking ----------------------------------------------------------------------

    def back_map(self, cmd, variant):
        rungs = wl.rungs_of([cmd])
        return self.backs[variant][rungs[0]] if rungs else {}

    def ok(self, cmd, variant, exit_code, stdout):
        return wl.check(cmd, exit_code, stdout, self.back_map(cmd, variant), self.refs[cmd])

    # -- children ------------------------------------------------------------------------

    def spawn_and_reap(self, argvs, stdout_path, timeout):
        """Run the stages of one command as a pipe of child processes.

        CPU time and peak RSS come from ``os.wait4`` on each child, so each
        is charged to its own command.  Returns (exit code of the last
        stage, wall s, cpu s, peak RSS KiB, timed out).
        """
        procs = []
        t = time.perf_counter()
        with open(stdout_path, "wb") as out, open(self.dir / "stderr", "wb") as err:
            stdin = subprocess.DEVNULL
            for i, argv in enumerate(argvs):
                last = i == len(argvs) - 1
                p = subprocess.Popen(
                    [sys.executable, *argv],
                    stdin=stdin,
                    stdout=out if last else subprocess.PIPE,
                    stderr=err,
                    env=self.env,
                    cwd=self.dir,
                )
                if procs:
                    procs[-1].stdout.close()
                stdin = p.stdout
                procs.append(p)
            timed_out = threading.Event()

            def kill():
                timed_out.set()
                for p in procs:
                    p.kill()

            timer = threading.Timer(timeout, kill)
            timer.start()
            cpu, rss = 0.0, 0
            try:
                for p in procs:
                    _, status, ru = os.wait4(p.pid, 0)
                    p.returncode = os.waitstatus_to_exitcode(status)
                    cpu += ru.ru_utime + ru.ru_stime
                    rss = max(rss, ru.ru_maxrss)
            finally:
                timer.cancel()
                timer.join()
        wall = time.perf_counter() - t
        return procs[-1].returncode, wall, cpu, rss, timed_out.is_set()

    def cli_argvs(self, cmd, variant):
        return [["-m", "gkmgraphs.cli", *a] for a in wl.stages(cmd, self.files[variant])]

    # -- untraced passes --------------------------------------------------------------

    def run_pass(self, index):
        variant = index % wl.VARIANTS
        rows = []
        t = time.perf_counter()
        for cmd in wl.command_order(self.commands, self.seed, index):
            out_path = self.dir / "stdout"
            left = self.time_left()
            if left <= 0:
                rows.append(Outcome(cmd, None, b"", 0.0, 0.0, 0, True))
                continue
            code, wall, cpu, rss, timed_out = self.spawn_and_reap(
                self.cli_argvs(cmd, variant), out_path, min(COMMAND_TIMEOUT_S, left)
            )
            rows.append(Outcome(cmd, code, out_path.read_bytes(), wall, cpu, rss, timed_out))
        wall = time.perf_counter() - t
        fails = [
            r.cmd
            for r in rows
            if r.timed_out or not self.ok(r.cmd, variant, r.code, r.stdout)
        ]
        return {
            "wall_s": wall,
            "cpu_s": sum(r.cpu_s for r in rows),
            "cmd_wall_s": {r.cmd: r.wall_s for r in rows},
            "peak_rss_mb": max(r.rss_kib for r in rows) / 1024,
            "attempted": len(rows),
            "failed": fails,
        }

    def measure(self):
        deadline = time.perf_counter() + self.seconds
        passes = []
        while True:
            p = self.run_pass(len(passes))
            passes.append(p)
            print(
                f"pass {len(passes)}: wall {p['wall_s']:.3f} s, cpu {p['cpu_s']:.3f} s, "
                f"slowest {max(p['cmd_wall_s'].values()):.3f} s, rss {p['peak_rss_mb']:.1f} MB, "
                f"failed {len(p['failed'])}/{p['attempted']} {p['failed'][:3]}",
                flush=True,
            )
            if time.perf_counter() + p["wall_s"] > deadline or self.time_left() < 2 * p["wall_s"]:
                break
        attempted = sum(p["attempted"] for p in passes)
        failed = sum(len(p["failed"]) for p in passes)
        metrics = {
            key: statistics.median(p[key] for p in passes)
            for key in ("wall_s", "cpu_s", "peak_rss_mb")
        }
        # the command that is slowest in the median over passes (each pass
        # has its own renaming, so one unlucky draw does not decide it)
        metrics["slowest_cmd_s"] = max(
            statistics.median(p["cmd_wall_s"][cmd] for p in passes) for cmd in self.commands
        )
        metrics["success_rate"] = (attempted - failed) / attempted
        return attempted, failed, metrics

    # -- traced run ---------------------------------------------------------------------

    def startup_s(self):
        walls = []
        for _ in range(STARTUP_REPEATS):
            t = time.perf_counter()
            subprocess.run(
                [sys.executable, "-c", "import gkmgraphs.cli"], env=self.env, check=True
            )
            walls.append(time.perf_counter() - t)
        return statistics.median(walls)

    def trace(self):
        commands = wl.command_order(self.commands, self.seed, 0)
        spec = self.dir / "trace-spec.json"
        out = self.dir / "trace-out.json"
        spans = WORK / f"spans-{self.workload}-s{self.seed}.json"
        t = time.perf_counter()
        startup = self.startup_s()
        budget = self.seconds - (time.perf_counter() - t)
        spec.write_text(
            json.dumps(
                {
                    "commands": [
                        [cmd, wl.stages(cmd, self.files[0])] for cmd in commands
                    ],
                    "seconds": max(budget, 0.0),
                    "spans_file": str(spans),
                }
            )
        )
        tracer = Path(__file__).resolve().parent / "tracer.py"
        code, _, _, _, timed_out = self.spawn_and_reap(
            [[str(tracer), str(spec), str(out)]], self.dir / "trace-stdout", self.time_left()
        )
        if code != 0 or timed_out:
            raise RuntimeError(f"traced run failed (exit {code}, timed out {timed_out})")
        doc = json.loads(out.read_text())
        failed = sum(
            not self.ok(cmd, 0, c, stdout.encode())
            for cmd, (c, stdout) in zip(commands, doc["results"])
        )
        metrics = doc["metrics"]
        metrics["cli.startup_s"] = startup
        print(f"traced passes: {doc['passes']}, spans in {spans}", flush=True)
        return len(commands), failed, metrics


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "gkmgraphs" / "cli.py").is_file():
        print(f"no gkmgraphs sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    run = Run(args.workload, args.seed, args.seconds)
    setup_s = run.setup()
    if args.trace:
        attempted, failed, metrics = run.trace()
        units = {m["name"]: m["unit"] for m in _benchmark()["per_layer"]}
    else:
        attempted, failed, metrics = run.measure()
        metrics["setup_s"] = setup_s
        units = {m["name"]: m["unit"] for m in _benchmark()["end_to_end"]}
    shutil.rmtree(run.dir, ignore_errors=True)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


def _benchmark():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


if __name__ == "__main__":
    sys.exit(main())
