"""Wall-clock benchmark of the process-per-replica deployment.

Run from the root of a checkout of the repository::

    python3 perfbench/run.py --workload kv-write-batched --seed 1 \\
        --seconds 10 --trace 0

Each run starts three replica processes (``repro.net.Supervisor``, every
``NetConfig`` default) on loopback TCP, drives one workload against them,
checks every answer, and prints its metrics.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` (the end-to-end metrics with ``--trace 0``, the per-layer ones
with ``--trace 1``).  The line before it holds the run's provenance and the
sample count of every metric.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import asdict
from pathlib import Path
from typing import Any, Dict, List, Tuple

ROOT = Path(__file__).resolve().parents[1]
#: Scratch space for fleet configs, replica logs and trace files.
WORKDIR = ROOT / ".perfbench-work"

#: A metric as reported: (value, unit, sample count).
Metric = Tuple[float, str, int]

#: Equal slices of the measured window.  Each end-to-end metric is
#: computed per slice and reported as the median over the slices, so a
#: few seconds in which the shared host runs slow do not move it.
SLICES = 10


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        description="Wall-clock benchmark of the 3-replica TCP deployment.")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="length of the measured window")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: traced run reporting per-layer metrics")
    return parser


# ------------------------------------------------------------------ running


def set_up(workload: Any, seed: int, traced: bool) -> Tuple[Any, float]:
    """Spawn a fleet and prepare it; returns it with its set-up time."""
    from fleet import Fleet, make_config
    from load import prepare

    config = make_config(workload.service)
    started = time.monotonic()
    fleet = Fleet(config, WORKDIR, traced=traced)
    try:
        fleet.start()
        prepare(config, workload, seed)
    except BaseException:
        fleet.stop()
        raise
    return fleet, time.monotonic() - started


def measure(fleet: Any, workload: Any, seed: int, seconds: float,
            on_mark: Any = None) -> Tuple[Any, float]:
    """Drive the load; returns (window, load-generator CPU s).

    ``Window.marks`` holds the replicas' CPU seconds at each slice edge;
    ``on_mark`` is called at the start and the end of the window.
    """
    from load import run_load

    edges: List[float] = []

    def mark() -> float:
        if on_mark is not None and len(edges) in (0, SLICES):
            on_mark()
        edges.append(time.process_time())
        return fleet.cpu_seconds()

    window = run_load(fleet.config, workload, seed, seconds, mark, SLICES)
    return window, edges[-1] - edges[0]


def end_to_end(window: Any) -> Dict[str, Metric]:
    """Each metric per slice of the window, reported as the median."""
    from load import quantiles

    rates, p50s, p99s, cpus = [], [], [], []
    for part in window.slices():
        rates.append(part.committed / part.seconds)
        latencies = part.latencies()
        if latencies:
            p50, p99 = quantiles(latencies, 0.5, 0.99)
            p50s.append(p50 * 1e3)
            p99s.append(p99 * 1e3)
            cpus.append((part.marks[1] - part.marks[0]) * 1e6
                        / part.committed)

    def median(values: List[float]) -> float:
        return statistics.median(values) if values else 0.0

    committed, answered = window.committed, len(window.latencies())
    return {
        "throughput_cps": (median(rates), "1/s", committed),
        "latency_p50_ms": (median(p50s), "ms", answered),
        "latency_p99_ms": (median(p99s), "ms", answered),
        "cpu_ms_per_kcmd": (median(cpus), "ms", committed),
        "error_rate": (window.failed / window.attempted
                       if window.attempted else 1.0,
                       "fraction", window.attempted),
    }


def untraced_run(workload: Any, seed: int, seconds: float,
                 setups: int) -> Tuple[Dict[str, Metric], Any]:
    times = []
    fleet = None
    for index in range(setups):
        fleet, setup_s = set_up(workload, seed, traced=False)
        times.append(setup_s)
        if index < setups - 1:
            fleet.stop()
    with fleet:
        window, _ = measure(fleet, workload, seed, seconds)
    metrics = end_to_end(window)
    metrics["setup_s"] = (statistics.median(times), "s", len(times))
    return metrics, window


def traced_pass(workload: Any, seed: int, seconds: float
                ) -> Tuple[Any, List[Dict[str, Any]], Dict[str, Any], float]:
    """One traced run: (window, replica dumps, client spans, load-generator
    CPU s)."""
    from tracing import Recorder, client_targets

    recorder = Recorder()
    fleet, _ = set_up(workload, seed, traced=True)
    with fleet:
        undo = recorder.patch_all(client_targets(fleet.config.wire))
        try:
            def toggle() -> None:
                fleet.mark()
                recorder.active = not recorder.active

            window, own_cpu = measure(
                fleet, workload, seed, seconds, on_mark=toggle)
        finally:
            recorder.active = False
            undo()
        # Let followers learn the last commits before the state digests.
        time.sleep(0.5)
        dumps = fleet.stop()
    return window, dumps, recorder.export(), own_cpu


def traced_run(workload: Any, seed: int, seconds: float
               ) -> Tuple[Dict[str, Metric], List[Any], bool]:
    """An untraced baseline, then the traced run; per-layer metrics.

    The third result is whether the replicas' final states agree.
    """
    from tracing import analyse

    baseline, base_window = untraced_run(workload, seed, seconds, setups=1)
    window, dumps, client_spans, own_cpu = traced_pass(
        workload, seed, seconds)
    states_agree = len({dump["digest"] for dump in dumps}) == 1
    metrics = analyse(window, dumps, client_spans, own_cpu)
    traced = end_to_end(window)
    for name, invert in (("throughput_cps", True), ("latency_p50_ms", False),
                         ("latency_p99_ms", False),
                         ("cpu_ms_per_kcmd", False)):
        base, value = baseline[name][0], traced[name][0]
        ratio = (base / value if invert else value / base) if (
            base and value) else 0.0
        metrics[f"trace.slowdown.{name}"] = (ratio, "x", traced[name][2])
    return metrics, [base_window, window], states_agree


# --------------------------------------------------------------- reporting


def provenance(args: argparse.Namespace, config: Any) -> Dict[str, Any]:
    sha = None
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=10, check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            sha = None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    net_config = asdict(config)
    del net_config["addresses"]
    return {
        "git_sha": sha,
        "src_sha256": digest.hexdigest(),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "net_config": net_config,
    }


def main(argv: List[str]) -> int:
    parser = make_parser()
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro package under {ROOT / 'src'}; run "
              "from a checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    WORKDIR.mkdir(exist_ok=True)
    # The Supervisor writes its config with tempfile: keep it in the tree.
    tempfile.tempdir = str(WORKDIR)
    os.environ["TMPDIR"] = str(WORKDIR)

    from fleet import make_config
    from load import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from "
                     f"{sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    if args.trace:
        metrics, windows, correct = traced_run(
            workload, args.seed, args.seconds)
    else:
        metrics, window = untraced_run(
            workload, args.seed, args.seconds, workload.setups)
        windows, correct = [window], True
    correct = correct and all(w.wrong == 0 and w.committed > 0
                              for w in windows)
    attempted = sum(w.attempted for w in windows)
    failed = sum(w.failed for w in windows)

    info = provenance(args, make_config(workload.service))
    info["samples"] = {name: samples
                       for name, (_, _, samples) in metrics.items()}
    info["wrong_answers"] = sum(w.wrong for w in windows)
    for name, (value, unit, samples) in metrics.items():
        print(f"{name:40s} {value:14.4f} {unit:8s} n={samples}")
    print(json.dumps({"provenance": info}))
    if not args.trace:
        # error_rate can be 0, so it is carried by attempted/failed only.
        del metrics["error_rate"]
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
