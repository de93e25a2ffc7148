"""Sensitivity self-test: the benchmark catches a slowdown where it should.

Each case slows one layer's public function by a fixed CPU cost per call
(``run.py --inject``) and asserts that the workload exercising that
layer reads worse than the ``cpu_s`` bound in ``BENCHMARK.json``,
while a workload that bypasses the layer stays within it.  Run from the
checkout root (about two minutes)::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import functools
import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BOUNDS = {
    metric["name"]: metric["bound"]
    for metric in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
}
SECONDS = "8"


def cpu_s(workload: str, inject: "str | None" = None) -> float:
    cmd = [
        sys.executable, str(HERE / "run.py"), "--workload", workload,
        "--seed", "3", "--seconds", SECONDS, "--trace", "0",
    ]
    if inject:
        cmd += ["--inject", inject]
    out = subprocess.run(
        cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=170, check=True
    )
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    return result["metrics"]["cpu_s"]["value"]


@functools.cache
def baseline(workload: str) -> float:
    return cpu_s(workload)


@pytest.mark.parametrize(
    "layer, exercised, bypassed",
    [
        ("cycle-loop", "fig5-warm", "fig6-cold"),
        ("func-executor", "fig6-cold", "fig5-warm"),
    ],
)
def test_injected_slowdown_is_caught(layer, exercised, bypassed):
    bound = BOUNDS["cpu_s"]
    slower = cpu_s(exercised, layer) / baseline(exercised) - 1
    assert slower > bound, f"{layer} slowdown on {exercised}: only {slower:+.1%}"
    drift = cpu_s(bypassed, layer) / baseline(bypassed) - 1
    assert abs(drift) <= bound, f"{layer} slowdown leaked into {bypassed}: {drift:+.1%}"
