"""Run one benchmark workload against the kchord sources of this checkout.

    python3 perfbench/run.py --workload census --seed 1 --seconds 22 --trace 0

Run from the root of a checkout.  The workload's command list runs in
whole rounds until ``--seconds`` have passed.  Each round starts a fresh
worker (see worker.py), which forks one child per command, so every
command starts with cold caches and only one command runs at a time.
Every output is checked (see workloads.py); the first output of a
command is checked in full, and a later one only if its bytes differ.

The last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  With ``--trace 0`` the metrics are

  wall_s       sum over commands of the median seconds of one run of it,
               each run's seconds taken at the reference machine speed
               (see below)
  setup_s      median seconds from spawning an interpreter until kchord
               and numpy are imported (every worker, plus set-up-only ones)
  peak_rss_mb  median over rounds of the largest peak RSS of a command

The speed of the machine this runs on drifts by up to a quarter over
tens of seconds, whatever the program does (see README.md).  So each
command's process times a fixed piece of pure-Python work before, during
and after the command (worker.py), and the command's seconds are scaled
by ``REFERENCE_CALIBRATION_S`` over the median of those times: a command
that ran while the machine was 20% slow counts the seconds it would have
taken at the reference speed.  Stderr shows the unscaled seconds too.
Set-up seconds are not scaled: scaling them by bursts run right after
set-up left their spread as it was (README.md).

With ``--trace 1`` functions of every layer are wrapped (spans.py) and
the metrics are the per-layer ones, each the median over rounds; the
spans of every round are written to ``.perfbench/trace-<workload>.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import select
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

import spans
from workloads import WORKLOADS, Fault

COMMAND_TIMEOUT_S = 150
# A typical median time of worker.calibration_burst on the reference
# machine (2 vCPUs of an Intel Xeon under KVM, Python 3.11.7), where it
# ranged from 1.06 to 1.55 ms over two hours.
REFERENCE_CALIBRATION_S = 0.00125
SETUP_SPAWNS_PER_ROUND = 2


def log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


class Worker:
    """One worker process; ``setup_s`` is the time it took to become ready."""

    def __init__(self, root: Path, setup_only: bool = False):
        # Interpreter settings are fixed here, so that, e.g., a caller's
        # PYTHONDONTWRITEBYTECODE cannot make every worker recompile kchord.
        env = {k: v for k, v in os.environ.items() if not k.startswith(("KCHORD_", "PYTHON"))}
        env["PYTHONPATH"] = str(root / "src")
        env["PYTHONHASHSEED"] = "0"
        argv = [sys.executable, str(Path(__file__).with_name("worker.py"))]
        spawned = time.monotonic()
        self.proc = subprocess.Popen(
            argv + (["--setup-only"] if setup_only else []),
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            env=env,
            text=True,
            start_new_session=True,
        )
        self.setup_s = self._reply()["ready"] - spawned

    def _reply(self) -> dict:
        ready, _, _ = select.select([self.proc.stdout], [], [], COMMAND_TIMEOUT_S)
        line = self.proc.stdout.readline() if ready else ""
        if not line:
            raise RuntimeError("worker gave no answer in time" if not ready else "worker exited")
        return json.loads(line)

    def run(self, request: dict) -> int:
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        return self._reply()["status"]

    def close(self) -> None:
        try:
            self.proc.stdin.close()
            self.proc.wait(timeout=10)
        except (OSError, subprocess.TimeoutExpired):
            pass
        if self.proc.poll() is None:
            os.killpg(self.proc.pid, signal.SIGKILL)
            self.proc.wait()
        self.proc.stdout.close()


class Run:
    def __init__(self, root: Path, workload: str, seed: int, trace: bool):
        self.root = root
        self.trace = trace
        self.ops = WORKLOADS[workload](seed, root / "tests" / "fixtures")
        self.order = list(range(len(self.ops)))
        random.Random(seed).shuffle(self.order)
        self.work = root / ".perfbench" / f"work-{os.getpid()}"
        self.work.mkdir(parents=True, exist_ok=True)
        self.verdicts: list[dict[str, str | None]] = [{} for _ in self.ops]
        self.seconds: list[list[float]] = [[] for _ in self.ops]  # at the reference speed
        self.raw_seconds: list[list[float]] = [[] for _ in self.ops]
        self.calibrations: list[float] = []
        self.setup: list[float] = []
        self.peaks: list[float] = []
        self.round_spans: list[list[dict]] = []
        self.untraced: set[str] = set()
        self.attempted = self.failed = 0
        self.correct = True

    def round(self) -> None:
        for _ in range(SETUP_SPAWNS_PER_ROUND):
            probe = Worker(self.root, setup_only=True)
            self.setup.append(probe.setup_s)
            probe.close()
        worker = Worker(self.root)
        self.setup.append(worker.setup_s)
        peak = 0.0
        traced = []
        try:
            for index in self.order:
                meta = self.command(worker, index)
                peak = max(peak, meta["rss_kb"] / 1024)
                if self.trace:
                    self.untraced.update(meta.get("untraced", ()))
                    traced.append({"argv": self.ops[index].argv, "spans": meta.get("spans") or []})
        finally:
            worker.close()
        self.peaks.append(peak)
        self.round_spans.append(traced)

    def command(self, worker: Worker, index: int) -> dict:
        op = self.ops[index]
        out, meta_path = self.work / "out", self.work / "meta.json"
        started = time.perf_counter()
        status = worker.run(
            {"argv": list(op.argv), "out": str(out), "meta": str(meta_path), "trace": self.trace}
        )
        # A child that died without its record is timed from here instead.
        meta = json.loads(meta_path.read_text(encoding="utf-8")) if status == 0 else {}
        self.attempted += 1
        seconds = meta.get("seconds", time.perf_counter() - started)
        calibration = meta.get("calibration_s", REFERENCE_CALIBRATION_S)
        self.calibrations.append(calibration)
        self.raw_seconds[index].append(seconds)
        self.seconds[index].append(seconds * REFERENCE_CALIBRATION_S / calibration)
        meta.setdefault("rss_kb", 0)
        if status != 0 or meta["error"] or meta["code"] != 0:
            self.failed += 1
            log(f"FAILED {' '.join(op.argv)}: status={status} {meta.get('error') or meta.get('code')}")
            return meta
        text = out.read_bytes()
        digest = hashlib.sha256(text).hexdigest()
        if digest not in self.verdicts[index]:
            try:
                self.verdicts[index][digest] = op.check(text.decode("utf-8"))
            except (ValueError, KeyError, IndexError, TypeError) as exc:
                self.verdicts[index][digest] = f"unreadable output: {type(exc).__name__}: {exc}"
        problem = self.verdicts[index][digest]
        if isinstance(problem, Fault) and op.known_fault:
            self.failed += 1
            log(f"FAILED (known fault: {op.known_fault}): {problem}")
        elif problem:
            self.correct = False
            log(f"WRONG {' '.join(op.argv)}: {problem}")
        return meta

    def end_to_end(self) -> dict:
        return {
            "wall_s": {"value": sum(median(s) for s in self.seconds), "unit": "s"},
            "setup_s": {"value": median(self.setup), "unit": "s"},
            "peak_rss_mb": {"value": median(self.peaks), "unit": "MB"},
        }

    def per_layer(self) -> dict:
        rounds = [spans.layer_metrics([c["spans"] for c in r]) for r in self.round_spans]
        return {
            name: {"value": median(r[name] for r in rounds), "unit": unit}
            for name, unit in spans.UNITS.items()
        }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = Path.cwd()
    for needed in ("src/kchord/cli.py", "tests/fixtures"):
        if not (root / needed).exists():
            log(f"error: {needed} not found; run from the root of a kchord checkout")
            return 2

    Worker(root, setup_only=True).close()  # compiles the sources once, untimed
    run = Run(root, args.workload, args.seed, bool(args.trace))
    try:
        start = time.monotonic()
        while run.attempted == 0 or time.monotonic() - start < args.seconds:
            run.round()
    finally:
        shutil.rmtree(run.work, ignore_errors=True)

    e2e = run.end_to_end()
    log(
        f"{args.workload} seed={args.seed} trace={args.trace}: {len(run.peaks)} rounds, "
        + ", ".join(f"{k}={v['value']:.4f}" for k, v in e2e.items())
    )
    log(
        f"  unscaled wall_s={sum(median(s) for s in run.raw_seconds):.4f}, "
        f"median calibration burst {median(run.calibrations) * 1000:.3f} ms "
        f"(reference {REFERENCE_CALIBRATION_S * 1000:.3f} ms); per command: scaled median, unscaled seconds"
    )
    for index in run.order:
        seconds = run.raw_seconds[index]
        log(
            f"  {median(run.seconds[index]):8.4f}s  " + " ".join(f"{s:.3f}" for s in seconds)
            + "  " + " ".join(run.ops[index].argv)
        )
    if run.untraced:
        log(f"not traced (not found): {', '.join(sorted(run.untraced))}")
    if args.trace:
        trace_file = root / ".perfbench" / f"trace-{args.workload}.json"
        trace_file.write_text(json.dumps({"rounds": run.round_spans}), encoding="utf-8")
    result = {
        "correct": run.correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": run.per_layer() if args.trace else e2e,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
