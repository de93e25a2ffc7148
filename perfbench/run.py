"""The repository's benchmark: one workload per invocation.

Run from the root of a checkout::

    python3 perfbench/run.py --workload fig5-warm --seed 1 --seconds 15 --trace 0

Each round of the workload runs in a fresh process (``rounds.py``) on
the default paths: interpreted engine, one job, no kernel flags, every
``REPRO_*`` variable removed from its environment, and its stores and
daemon socket in a fresh directory under ``.perfbench-work/``.  Rounds
repeat until their timed parts add up to ``--seconds``.

``--trace 0`` reports the end-to-end metrics, in CPU time scaled to a
nominal host speed by calibration slices (see README.md).  ``--trace 1``
runs one untraced round, one traced round (plus a profiled round on
``fig5-warm``) and reports the per-layer metrics, the tracing overhead
and a Chrome trace file.  The last stdout line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines
before it give host facts, the workload's own throughput name and every
output check.  See README.md for what each workload and metric means.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
WORK = ROOT / ".perfbench-work"
WORKLOADS = ("fig5-warm", "fig6-cold", "ingest-screen", "serve-roundtrip")
#: Files every workload needs from the checkout.
REQUIRED = (
    ROOT / "src" / "repro" / "__init__.py",
    ROOT / "benchmarks" / "fixtures" / "lackey_mixed.log.gz",
)
#: What work_kps counts on each workload (its name in the README).
WORK_ITEM = {
    "fig5-warm": "sim_kips: committed instructions of the cycle-level engine",
    "fig6-cold": "func_kips: instructions of the functional simulator",
    "ingest-screen": "trace_krps: fixture records taken from capture to frontier",
    "serve-roundtrip": "read round trips answered from the store",
}
#: Per-layer metric -> the span name(s) whose self time it sums.
SPAN_LAYERS = {
    "workloads.build_s": ("workloads.build",),
    "func.capture_s": ("func.capture",),
    "engine.plan_s": ("engine.plan",),
    "func.execute_s": ("func.execute",),
    "tlb.storage_s": ("tlb.storage",),
    "ingest.convert_s": ("ingest.convert",),
    "ingest.write_s": ("ingest.write",),
    "ingest.read_s": ("ingest.read",),
    "ingest.compile_s": ("ingest.compile",),
    "eval.artifacts.save_s": ("eval.artifacts.save",),
    "eval.artifacts.load_s": ("eval.artifacts.load",),
    "analysis.profile_s": ("analysis.profile",),
    "analysis.calibrate_s": ("analysis.calibrate",),
    "analysis.predict_s": ("analysis.predict",),
    "eval.screen.select_s": ("eval.screen.select",),
}
FAMILIES = ("multiported", "interleaved", "multilevel", "pretranslation", "piggyback")
PHASES = (
    "commit", "issue", "dispatch", "mech_tick", "tlb_service",
    "next_event", "mshr_expire", "stores", "squash",
)
#: Per-layer metrics recorded by the rounds under their own names.
DIRECT_LAYERS = (
    "engine.executed_cycles",
    "eval.resultstore.get_ms",
    "eval.resultstore.put_ms",
    "eval.runner.codec_ms",
    "serve.protocol_ms",
    "serve.journal.append_ms",
    "serve.journal_lines",
)
#: CPU seconds of one calibration slice (``rounds.calibration_slice``) on
#: the reference host; gated CPU times are scaled to this host speed.
NOMINAL_SLICE_S = 0.0075
ROUND_TIMEOUT_S = 150
IMPORT_PROBES = 3


class BenchError(RuntimeError):
    """A round failed or the checkout cannot be benchmarked."""


def child_env() -> dict:
    """The caller's environment without REPRO_*, importing only ``src``."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def run_round(workload: str, seed: int, mode: str, check: bool, inject: str | None) -> dict:
    """One fresh-process round; adds its wall time from process start to first timed op."""
    cmd = [
        sys.executable, str(HERE / "rounds.py"),
        "--workload", workload, "--seed", str(seed), "--mode", mode,
        "--work", str(WORK),
    ]
    if check:
        cmd.append("--check")
    if inject:
        cmd += ["--inject", inject]
    if mode == "traced":
        cmd += ["--trace-out", str(WORK / f"trace-{workload}-seed{seed}.json")]
    spawned = time.monotonic()
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
            text=True, timeout=ROUND_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{workload} round timed out after {exc.timeout}s") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{workload} round exited with code {proc.returncode}")
    record = json.loads(lines[-1])
    record["setup_wall_s"] = record["t_first"] - spawned
    return record


def import_seconds() -> float:
    """Median time of ``import repro.eval`` in a fresh interpreter."""
    probe = (
        "import time; t = time.perf_counter(); import repro.eval; "
        "print(time.perf_counter() - t)"
    )
    samples = []
    for _ in range(IMPORT_PROBES):
        out = subprocess.run(
            [sys.executable, "-c", probe], cwd=ROOT, env=child_env(),
            stdout=subprocess.PIPE, text=True, timeout=ROUND_TIMEOUT_S, check=True,
        )
        samples.append(float(out.stdout.strip()))
    return statistics.median(samples)


def steal_ticks() -> int | None:
    """Cumulative steal ticks of all CPUs, from /proc/stat."""
    try:
        with open("/proc/stat") as fh:
            fields = fh.readline().split()
        return int(fields[8])
    except (OSError, IndexError, ValueError):
        return None


def host_facts() -> dict:
    model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        numpy = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy = "absent"
    return {
        "cpu": model,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy,
    }


def percentile_ms(samples: list[float], pct: int) -> float:
    """Inclusive-method percentile of samples in seconds, as ms."""
    if len(samples) == 1:
        return samples[0] * 1e3
    return statistics.quantiles(samples, n=100, method="inclusive")[pct - 1] * 1e3


def speed_scale(r: dict) -> float:
    """Factor taking a round's CPU times to the nominal host speed."""
    return NOMINAL_SLICE_S / statistics.median(r["slices_s"])


def end_to_end(rounds: list[dict], scaled: bool = True) -> dict:
    """The gated metrics: CPU time of the work, at the nominal host speed."""
    scale = [speed_scale(r) if scaled else 1.0 for r in rounds]
    ops = [t * k for r, k in zip(rounds, scale) for t in r["ops_cpu_s"]]
    # The tail is taken per round, then the median over rounds: a round
    # of fewer than 100 operations contributes its slowest one, which
    # pooling would turn into the single slowest of the whole run.
    tails = [
        percentile_ms([t * k for t in r["ops_cpu_s"]], 99)
        for r, k in zip(rounds, scale)
    ]
    cpu = [r["cpu_s"] * k for r, k in zip(rounds, scale)]
    setup = [r["setup_cpu_s"] * k for r, k in zip(rounds, scale)]
    return {
        "setup_s": (statistics.median(setup), "s"),
        "cpu_s": (statistics.median(cpu), "s"),
        "work_kps": (
            statistics.median(r["work"] / c for r, c in zip(rounds, cpu)) / 1e3, "k/s"
        ),
        "op_cpu_p50_ms": (percentile_ms(ops, 50), "ms"),
        "op_cpu_p99_ms": (statistics.median(tails), "ms"),
        "peak_rss_mb": (statistics.median(r["rss_kb"] for r in rounds) / 1024, "MB"),
    }


def wall_clock(rounds: list[dict]) -> str:
    """The same figures in wall-clock time (reported, not gated)."""
    ops = [t for r in rounds for t in r["ops_s"]]
    return (
        f"wall: setup_s {statistics.median(r['setup_wall_s'] for r in rounds):.4f}, "
        f"wall_s {statistics.median(r['wall_s'] for r in rounds):.4f}, "
        f"op_p50_ms {percentile_ms(ops, 50):.4f}, "
        f"op_p99_ms {percentile_ms(ops, 99):.4f} over {len(ops)} operations"
    )


def per_layer(base: dict, traced: list[dict]) -> dict:
    """Per-layer metrics from one traced (and maybe one profiled) round."""
    layers: dict[str, float] = {}
    for r in traced:
        for name, value in r["layers"].items():
            layers[name] = layers.get(name, 0.0) + value
    metrics = {"repro.import_s": (import_seconds(), "s")}
    metrics["engine.run_s"] = (
        sum(v for k, v in layers.items() if k.startswith("engine.run.")), "s"
    )
    for family in FAMILIES:
        metrics[f"engine.run_s.{family}"] = (layers.get(f"engine.run.{family}", 0.0), "s")
    for name, spans in SPAN_LAYERS.items():
        metrics[name] = (sum(layers.get(s, 0.0) for s in spans), "s")
    for phase in PHASES:
        metrics[f"engine.phase.{phase}_s"] = (layers.get(f"engine.phase.{phase}", 0.0), "s")
    for name in DIRECT_LAYERS:
        unit = "ms" if name.endswith("_ms") else name.rpartition("_")[2]
        metrics[name] = (layers.get(name, 0.0), unit)
    metrics["trace.overhead_s"] = (traced[0]["wall_s"] - base["wall_s"], "s")
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--inject",
        choices=("cycle-loop", "func-executor"),
        help="add a fixed CPU cost per call to one layer (sensitivity self-test)",
    )
    args = parser.parse_args(argv)
    missing = [str(p.relative_to(ROOT)) for p in REQUIRED if not p.is_file()]
    if missing:
        print(f"perfbench: not a repro checkout, missing {missing}", file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    facts = host_facts()
    steal_before = steal_ticks()
    try:
        if args.trace:
            base = run_round(args.workload, args.seed, "plain", True, args.inject)
            traced = [run_round(args.workload, args.seed, "traced", False, args.inject)]
            if args.workload == "fig5-warm":
                traced.append(
                    run_round(args.workload, args.seed, "profiled", False, args.inject)
                )
            rounds = [base] + traced
            metrics = per_layer(base, traced)
        else:
            rounds = []
            while not rounds or sum(r["wall_s"] for r in rounds) < args.seconds:
                rounds.append(
                    run_round(args.workload, args.seed, "plain", not rounds, args.inject)
                )
            metrics = end_to_end(rounds)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    steal_after = steal_ticks()
    if steal_before is not None and steal_after is not None:
        facts["steal_ticks"] = steal_after - steal_before
    print(f"host: {json.dumps(facts)}")
    print(
        f"workload {args.workload}: seed {args.seed}, {len(rounds)} rounds, "
        f"ops timed {sum(len(r['ops_s']) for r in rounds)}; "
        f"work_kps counts {WORK_ITEM[args.workload]}"
    )
    print(wall_clock(rounds))
    if args.trace:
        print(f"trace: {WORK / f'trace-{args.workload}-seed{args.seed}.json'}")
    else:
        raw = ", ".join(f"{k} {v:.4f}" for k, (v, _) in end_to_end(rounds, False).items())
        slices = [statistics.median(r["slices_s"]) * 1e3 for r in rounds]
        print(f"unscaled: {raw}; calibration slice ms per round {slices}")
    checks = [c for r in rounds for c in r["checks"]]
    for name, ok, detail in checks:
        print(f"check {name}: {'ok' if ok else 'FAILED ' + detail}")
    correct = all(ok for _, ok, _ in checks)
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": sum(r["attempted"] for r in rounds),
                "failed": 0,
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()
                },
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
