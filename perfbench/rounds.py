"""One round of one benchmark workload, run in a fresh process.

``run.py`` starts this script once per round with a scrubbed
environment (``PYTHONPATH`` = the checkout's ``src``, no ``REPRO_*``)
and reads the single JSON record it prints on its last stdout line::

    python3 perfbench/rounds.py --workload fig5-warm --seed 1 \
        --mode plain --work .perfbench-work [--check] [--inject LAYER]

A round is *set-up* (everything before the first timed operation),
the *timed part*, and, outside the timed part, the output checks
(``--check``: every check; otherwise only the cheap ones).  ``--mode``
selects what else the round records:

* ``plain``    -- nothing else: the end-to-end figures come from these;
* ``traced``   -- spans around every call into a layer (see
  :mod:`tracer`), reduced to per-layer self times, plus the layer
  replays that measure what the timed part cannot isolate;
* ``profiled`` -- the program's own ``repro.perf.SimProfiler`` attached
  to every ``run_one`` (cycle-loop phases; ``fig5-warm`` only).

``--inject`` wraps one layer's public function with a fixed slowdown;
only the benchmark's sensitivity self-test uses it.
"""

from __future__ import annotations

import argparse
import asyncio
import collections
import dataclasses
import gc
import gzip
import json
import math
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from contextlib import contextmanager, nullcontext
from pathlib import Path

from tracer import Tracer

ROOT = Path.cwd()
FIXTURE = ROOT / "benchmarks" / "fixtures" / "lackey_mixed.log.gz"

#: fig5-warm: one program per locality regime, every Table-2 design.
FIG5_PROGRAMS = ("compress", "tomcatv", "xlisp")
FIG5_BUDGET = 7_000
#: fig6-cold: all ten programs at this functional-simulation budget.
FIG6_BUDGET = 60_000
#: ingest-screen: screening budget and sampling window over the fixture.
INGEST_BUDGET = 10_000
INGEST_WINDOW = dict(warmup=2_000, window=4_000, count=3, select="stride", stride=7)
#: serve-roundtrip: the small requests written once (twice each), then read.
SERVE_PROGRAMS = ("compress", "xlisp")
SERVE_BUDGET = 2_000
SERVE_READS = 1_000
#: Layer replays in a traced serve round: calls timed per layer.
SERVE_REPLAYS = 200

#: Translation-mechanism class -> Table-2 family (per-family run time).
FAMILY = {
    "MultiPortedTLB": "multiported",
    "InterleavedTLB": "interleaved",
    "MultiLevelTLB": "multilevel",
    "PretranslationMechanism": "pretranslation",
    "PiggybackTLB": "piggyback",
}


#: Cells in one calibration slice (about 7 ms of CPU).
CALIBRATION_CELLS = 12_000


class _Cell:
    __slots__ = ("key", "value", "next")


def calibration_slice() -> float:
    """CPU seconds of a fixed pure-Python workload shaped like the simulator's.

    It allocates small slotted objects, chases pointers through them in
    a scattered order and updates a dict.  Slices run between the timed
    operations (their time is taken out of the round's figures), so the
    round can be expressed at a fixed host speed: the host these figures
    come from changes speed by up to twofold within minutes.
    """
    n = CALIBRATION_CELLS
    gc.disable()  # a collection of the workload's objects is not host speed
    start = time.process_time()
    cells = []
    for i in range(n):
        cell = _Cell()
        cell.key = (i * 2654435761) % 65521
        cell.value = i
        cells.append(cell)
    for i, cell in enumerate(cells):
        cell.next = cells[(i * 7919 + 1) % n]
    table: dict[int, int] = {}
    cell = cells[0]
    for _ in range(4 * n):
        table[cell.key] = table.get(cell.key, 0) + cell.value
        cell = cell.next
    elapsed = time.process_time() - start
    gc.enable()
    return elapsed


class Round:
    """What one round measured, checked and traced."""

    def __init__(self, args, tmp: Path):
        self.seed = args.seed
        self.mode = args.mode
        self.full_check = args.check
        self.tmp = tmp
        self.tracer = Tracer() if args.mode == "traced" else None
        #: A calibration slice runs after every ``slice_every`` operations.
        self.slice_every = 1
        self.slices: list[float] = []
        self._slice_wall = 0.0
        self.t_first: float | None = None
        self.setup_cpu_s = 0.0
        self.wall_s = 0.0
        self.cpu_s = 0.0
        self.ops: list[float] = []
        self.ops_cpu: list[float] = []
        #: CPU nanoseconds of the other processes doing the round's work
        #: (the serve daemon and its worker), and of the daemon's main
        #: thread, which serves each read; None when all work is in-process.
        self.other_cpu_ns = None
        self.op_cpu_ns = None
        self.attempted = 0
        self.work = 0
        self.rss_kb = 0
        self.checks: list[tuple[str, bool, str]] = []
        self.layers: dict[str, float] = {}

    def _other_cpu_s(self) -> float:
        return self.other_cpu_ns() / 1e9 if self.other_cpu_ns else 0.0

    @contextmanager
    def timed(self):
        """The timed part, in wall and CPU time.

        Set-up CPU is what the round's processes used before it began,
        interpreter start-up included.  Peak RSS is read at its end,
        before any check runs.
        """
        self.t_first = time.monotonic()
        cpu, other = time.process_time(), self._other_cpu_s()
        self.setup_cpu_s = cpu + other
        start = time.perf_counter()
        yield
        self.wall_s = time.perf_counter() - start - self._slice_wall
        self.cpu_s = (
            time.process_time() - cpu - sum(self.slices)
            + self._other_cpu_s() - other
        )
        self.rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    @contextmanager
    def op(self, name: str):
        """One operation: counted, timed, and traced as span ``name``."""
        self.attempted += 1
        other = self.op_cpu_ns() if self.op_cpu_ns else 0
        cpu = time.process_time()
        start = time.perf_counter()
        with self.span(name):
            yield
        self.ops.append(time.perf_counter() - start)
        cpu = time.process_time() - cpu
        if self.op_cpu_ns:
            cpu += (self.op_cpu_ns() - other) / 1e9
        self.ops_cpu.append(cpu)
        if len(self.ops) % self.slice_every == 0:
            start = time.perf_counter()
            self.slices.append(calibration_slice())
            self._slice_wall += time.perf_counter() - start

    def span(self, name: str):
        return self.tracer.span(name) if self.tracer is not None else nullcontext()

    def trace(self, owner, attr: str, name: str) -> None:
        """Trace calls to ``owner.attr`` (traced rounds only)."""
        if self.tracer is not None:
            self.tracer.wrap(owner, attr, name)

    def expect(self, name: str, ok: bool, detail: str = "") -> None:
        self.checks.append((name, bool(ok), detail))

    def record(self) -> dict:
        layers = dict(self.layers)
        if self.tracer is not None:
            for name, seconds in self.tracer.self_seconds().items():
                layers[name] = layers.get(name, 0.0) + seconds
        return {
            "t_first": self.t_first,
            "setup_cpu_s": self.setup_cpu_s,
            "wall_s": self.wall_s,
            "cpu_s": self.cpu_s,
            "ops_s": self.ops,
            "ops_cpu_s": self.ops_cpu,
            "slices_s": self.slices,
            "attempted": self.attempted,
            "work": self.work,
            "rss_kb": self.rss_kb,
            "checks": self.checks,
            "layers": layers,
        }


def family_span(req) -> str:
    """Span name of one simulation: engine.run.<Table-2 family>."""
    mech = type(req.make_mech(req.machine_config().page_shift)).__name__
    return "engine.run." + FAMILY.get(mech, "other")


def trace_builds(r: Round) -> None:
    from repro.workloads.base import Workload

    r.trace(Workload, "build", "workloads.build")


# -- fig5-warm ------------------------------------------------------------------


def fig5_warm(r: Round) -> None:
    """Figure 5 over 13 designs x 3 programs; builds made in set-up."""
    from repro.eval import run_one, runner, simulate
    from repro.eval.experiments import EXPERIMENTS
    from repro.perf import SimProfiler
    from repro.tlb.factory import DESIGN_MNEMONICS

    spec = EXPERIMENTS["figure5"]
    grid = {
        (w, d): spec.request(w, d, FIG5_BUDGET, 1.0)
        for w in FIG5_PROGRAMS
        for d in DESIGN_MNEMONICS
    }
    trace_builds(r)
    r.trace(runner, "capture_trace", "func.capture")
    r.trace(runner, "build_fetch_plan", "engine.plan")
    for w in FIG5_PROGRAMS:
        req = grid[w, DESIGN_MNEMONICS[0]]
        trace = runner._CACHE.get_trace(
            w, req.int_regs, req.fp_regs, req.scale, req.max_instructions
        )
        runner._CACHE.get_fetch_plan(req, req.machine_config(), trace)
    spans = {key: family_span(req) for key, req in grid.items()}
    profiler = SimProfiler() if r.mode == "profiled" else None

    results = {}
    with r.timed():
        for key, req in grid.items():
            with r.op(spans[key]):
                results[key] = run_one(req, profiler=profiler)
    r.work = sum(res.stats.committed for res in results.values())

    if profiler is not None:
        for phase, ns in profiler.phase_ns.items():
            r.layers[f"engine.phase.{phase}"] = ns / 1e9
        r.layers["engine.executed_cycles"] = profiler.to_dict()["executed_cycles"]

    short = [k for k, res in results.items() if res.stats.committed != FIG5_BUDGET]
    r.expect("fig5.commits_budget", not short, f"short runs: {short}")
    for w in FIG5_PROGRAMS:
        ipc = {d: results[w, d].ipc for d in ("T4", "T2", "T1")}
        r.expect(
            f"fig5.ipc_order.{w}",
            ipc["T4"] >= ipc["T2"] >= ipc["T1"],
            f"T4/T2/T1 IPC {ipc}",
        )
    if not r.full_check:
        return
    rng = random.Random(r.seed)
    for w in FIG5_PROGRAMS:
        d = rng.choice(DESIGN_MNEMONICS)
        plain = dataclasses.replace(grid[w, d], config=(("event_driven", False),))
        same = dataclasses.asdict(simulate(plain).stats) == dataclasses.asdict(
            results[w, d].stats
        )
        r.expect(f"fig5.event_driven_off.{w}/{d}", same, "MachineStats differ")


# -- fig6-cold ------------------------------------------------------------------


def _reference_pages(name: str, budget: int) -> tuple[list[int], int]:
    """Re-execute one program; its data-reference page stream and length."""
    from repro.func.executor import Executor
    from repro.workloads import make_workload

    build = make_workload(name).build()
    executor = Executor(build.program, build.memory)
    pages = [dyn.ea >> 12 for dyn in executor.run(budget) if dyn.ea is not None]
    return pages, executor.retired


def _lru_misses(pages: list[int], entries: int) -> int:
    """Misses of a fully-associative LRU buffer of ``entries`` pages."""
    resident: collections.OrderedDict = collections.OrderedDict()
    misses = 0
    for page in pages:
        if page in resident:
            resident.move_to_end(page)
            continue
        misses += 1
        resident[page] = None
        if len(resident) > entries:
            resident.popitem(last=False)
    return misses


def fig6_cold(r: Round) -> None:
    """Figure 6's miss-rate sweep over all ten programs, from a cold process."""
    from repro.eval import missrates
    from repro.func.executor import Executor
    from repro.tlb.storage import FullyAssocTLB
    from repro.workloads import iter_workload_names, make_workload

    names = list(iter_workload_names())
    # Traced rounds replay each layer on its own after the timed part;
    # their programs are built here, before any span is recorded.
    replay = {n: make_workload(n).build() for n in names} if r.tracer else {}
    trace_builds(r)
    measure = missrates.measure_miss_rates

    def timed_row(*args, **kwargs):
        with r.op("fig6.row"):
            return measure(*args, **kwargs)

    missrates.measure_miss_rates = timed_row
    with r.timed():
        fig = missrates.run_figure6(max_instructions=FIG6_BUDGET)
    r.work = FIG6_BUDGET * len(fig.rows)

    for name, build in replay.items():
        with r.span("func.execute"):
            stream = list(Executor(build.program, build.memory).run(FIG6_BUDGET))
        vpns = [dyn.ea >> 12 for dyn in stream if dyn.ea is not None]
        with r.span("tlb.storage"):
            tlbs = [
                FullyAssocTLB(size, replacement=missrates.policy_for(size))
                for size in missrates.SIZES
            ]
            for vpn in vpns:
                for tlb in tlbs:
                    if not tlb.probe(vpn):
                        tlb.insert(vpn)

    for row in fig.rows:
        rate = row.miss_rate
        r.expect(
            f"fig6.lru_inclusion.{row.program}",
            rate[4] >= rate[8] >= rate[16],
            f"4/8/16-entry rates {rate[4]}, {rate[8]}, {rate[16]}",
        )
    total = sum(row.references for row in fig.rows)
    for size in fig.sizes:
        mean = sum(row.miss_rate[size] * row.references for row in fig.rows) / total
        r.expect(
            f"fig6.weighted_average.{size}",
            math.isclose(fig.rtw_average[size], mean, rel_tol=1e-12),
            f"{fig.rtw_average[size]} != {mean}",
        )
    if not r.full_check:
        return
    modelled = random.Random(r.seed).choice(names)
    for row in fig.rows:
        pages, retired = _reference_pages(row.program, FIG6_BUDGET)
        r.expect(
            f"fig6.executes_budget.{row.program}",
            retired == FIG6_BUDGET and len(pages) == row.references,
            f"{retired} instructions, {len(pages)} references "
            f"(row says {row.references})",
        )
        floor = len(set(pages)) / len(pages)
        r.expect(
            f"fig6.above_compulsory.{row.program}",
            all(rate >= floor for rate in row.miss_rate.values()),
            f"compulsory rate {floor}, rates {row.miss_rate}",
        )
        if row.program == modelled:
            for size in (4, 8, 16):
                own = _lru_misses(pages, size) / len(pages)
                r.expect(
                    f"fig6.lru_model.{row.program}.{size}",
                    own == row.miss_rate[size],
                    f"own model {own}, figure {row.miss_rate[size]}",
                )


# -- ingest-screen --------------------------------------------------------------


def _lackey_counts(path: Path) -> collections.Counter:
    """Record and class counts read straight from lackey's text lines.

    The converter emits one record per data reference, plus one record
    for each instruction that has none.
    """
    counts: collections.Counter = collections.Counter()
    refs = None  # data references of the current instruction
    with gzip.open(path, "rt") as fh:
        for line in fh:
            if line.startswith("I "):
                if refs == 0:
                    counts["records"] += 1
                refs = 0
            elif line[:2] in (" L", " S", " M"):
                counts[{"L": "load", "S": "store", "M": "modify"}[line[1]]] += 1
                counts["records"] += 1
                refs = (refs or 0) + 1
    if refs == 0:
        counts["records"] += 1
    return counts


def ingest_screen(r: Round) -> None:
    """Lackey fixture -> portable binary -> windowed token -> screened frontier."""
    import numpy as np

    from repro.analysis import atmodel
    from repro.eval import ArtifactStore, EvalOptions, parallel, runner
    from repro.eval import screen as screening
    from repro.ingest import (
        WindowSpec,
        convert_lackey,
        read_portable,
        trace_workload,
        write_portable,
    )

    portable = r.tmp / "fixture.rptx"
    store = ArtifactStore(r.tmp / "artifacts")
    seen = {"pareto": [], "batches": []}

    pareto_mask = screening.pareto_mask

    def recorded_pareto(np_, area, cpi):
        seen["pareto"].append((area.copy(), cpi.copy()))
        return pareto_mask(np_, area, cpi)

    run_many = parallel.run_many

    def recorded_run_many(requests, *args, **kwargs):
        requests = list(requests)
        results = run_many(requests, *args, **kwargs)
        seen["batches"].append((requests, results))
        return results

    simulate = parallel.simulate

    def timed_simulate(req, *args, **kwargs):
        with r.op(family_span(req)):
            return simulate(req, *args, **kwargs)

    screening.pareto_mask = recorded_pareto
    parallel.run_many = recorded_run_many
    parallel.simulate = timed_simulate
    r.trace(runner, "compile_workload", "ingest.compile")
    r.trace(runner, "build_fetch_plan", "engine.plan")
    for attr in dir(ArtifactStore):
        if attr.startswith(("save_", "load_")):
            r.trace(ArtifactStore, attr, "eval.artifacts." + attr[:4])
    r.trace(screening, "build_profile", "analysis.profile")
    r.trace(atmodel, "calibrate", "analysis.calibrate")
    r.trace(atmodel, "predict", "analysis.predict")
    for attr in ("enumerate_space", "space_cost", "pareto_mask"):
        r.trace(screening, attr, "eval.screen.select")

    with r.timed():
        with r.span("ingest.convert"):
            records = list(convert_lackey(FIXTURE))
        with r.span("ingest.write"):
            write_portable(portable, records, binary=True)
        with r.span("ingest.read"):
            back = list(read_portable(portable))
        token = trace_workload(portable, WindowSpec(**INGEST_WINDOW))
        spec = screening.ScreenSpec(workloads=(token,), max_instructions=INGEST_BUDGET)
        result = screening.screen(spec, EvalOptions(jobs=1, artifacts=store))
    r.work = len(records)

    r.expect("ingest.portable_round_trip", back == records, "records changed")
    area, cpi = seen["pareto"][-1]
    for entry in result.frontier:
        a, c = entry["area"], entry["predicted"]
        dominated = np.any((area <= a) & (cpi <= c) & ((area < a) | (cpi < c)))
        r.expect(
            f"ingest.frontier_undominated.{entry['label']}",
            not dominated,
            f"area {a}, predicted CPI {c}",
        )
    if not r.full_check:
        return
    counts = _lackey_counts(FIXTURE)
    got = collections.Counter(rec.op for rec in records)
    for cls in ("load", "store", "modify"):
        r.expect(
            f"ingest.class_count.{cls}",
            got[cls] == counts[cls],
            f"converted {got[cls]}, lackey lines {counts[cls]}",
        )
    r.expect(
        "ingest.record_count",
        len(records) == counts["records"],
        f"converted {len(records)}, lackey lines {counts['records']}",
    )
    frontier_reqs = seen["batches"][-1][0]
    simulated = [e for e in result.frontier if "simulated" in e]
    r.expect(
        "ingest.frontier_simulated",
        len(simulated) == len(frontier_reqs) > 0,
        f"{len(simulated)} simulated entries, {len(frontier_reqs)} requests",
    )
    runner.clear_build_cache()
    for req, entry in zip(frontier_reqs, simulated):
        fresh = simulate(req).stats
        r.expect(
            f"ingest.frontier_cpi.{entry['label']}",
            req.design == entry["label"]
            and fresh.cycles / fresh.committed == entry["simulated"],
            f"fresh {fresh.cycles / fresh.committed}, frontier {entry['simulated']}",
        )


# -- serve-roundtrip ------------------------------------------------------------


def _family(pid: int) -> list[int]:
    """``pid`` and its direct children, from /proc."""
    pids = [pid]
    for task in os.listdir(f"/proc/{pid}/task"):
        try:
            with open(f"/proc/{pid}/task/{task}/children") as fh:
                pids += [int(p) for p in fh.read().split()]
        except OSError:
            pass
    return pids


def _task_cpu_ns(pid: int, task: int) -> int:
    """CPU time of one thread, from /proc (ns, steal excluded)."""
    with open(f"/proc/{pid}/task/{task}/schedstat") as fh:
        return int(fh.read().split()[0])


def _family_cpu_ns(pid: int) -> int:
    """CPU time of every thread of ``pid`` and of its direct children."""
    total = 0
    for p in _family(pid):
        try:
            for task in os.listdir(f"/proc/{p}/task"):
                total += _task_cpu_ns(p, int(task))
        except OSError:
            pass  # exited between listing and reading
    return total


def _peak_rss_kb(pid: int) -> int:
    """Largest VmHWM of ``pid`` and its direct children (read from /proc)."""
    peak = 0
    for p in _family(pid):
        try:
            with open(f"/proc/{p}/status") as fh:
                for line in fh:
                    if line.startswith("VmHWM:"):
                        peak = max(peak, int(line.split()[1]))
        except OSError:
            pass
    return peak


def _median_ms(samples: list[float]) -> float:
    return statistics.median(samples) * 1e3


def serve_roundtrip(r: Round) -> None:
    """A one-worker daemon: one duplicated write batch, then store-hit reads."""
    from repro.eval import RunRequest, simulate
    from repro.serve.client import ServeClient
    from repro.tlb.factory import DESIGN_MNEMONICS

    writes = [
        RunRequest(workload=w, design=d, max_instructions=SERVE_BUDGET)
        for w in SERVE_PROGRAMS
        for d in DESIGN_MNEMONICS
    ]
    # The write order is fixed: it decides the worker's simulation order,
    # and with it the worker's peak RSS.  The seed orders the reads.
    batch = writes * 2
    rng = random.Random(r.seed)
    reads = [rng.choice(writes) for _ in range(SERVE_READS)]
    store_dir = r.tmp / "store"
    daemon = subprocess.Popen(
        [
            sys.executable, "-m", "repro.serve",
            "--listen", "unix:serve.sock", "--jobs", "1",
            "--store", str(store_dir), "--artifacts", str(r.tmp / "artifacts"),
        ],
        cwd=r.tmp,
        stdout=subprocess.DEVNULL,
    )
    # The socket path is relative to the daemon's working directory, so
    # a deep checkout cannot exceed the unix-socket path limit.
    os.chdir(r.tmp)
    # Client, daemon and worker share one CPU.  A round trip across two
    # CPUs pays for cross-CPU wake-ups, which on a shared virtual machine
    # cost what the neighbours make them cost: beside two processes
    # hammering fsync, the median round trip's CPU rose by up to 45 %
    # unpinned and by 2 % pinned.
    cpu = {min(os.sched_getaffinity(0))}
    os.sched_setaffinity(daemon.pid, cpu)
    os.sched_setaffinity(0, cpu)
    served = []

    r.slice_every = 25
    r.other_cpu_ns = lambda: _family_cpu_ns(daemon.pid)
    r.op_cpu_ns = lambda: _task_cpu_ns(daemon.pid, daemon.pid)

    async def session() -> dict:
        client = await ServeClient.connect("unix:serve.sock", retry_for=60)
        try:
            with r.timed():
                await client.results(batch)
                r.attempted += len(batch)
                for req in reads:
                    with r.op("serve.read"):
                        served.append((await client.results([req]))[0])
            info = await client.info()
            r.rss_kb = _peak_rss_kb(daemon.pid)
            await client.shutdown()
            return info
        finally:
            await client.close()

    try:
        info = asyncio.run(session())
        daemon.wait(timeout=60)
    finally:
        if daemon.poll() is None:
            daemon.kill()
            daemon.wait()
        os.chdir(ROOT)
    r.work = len(reads)
    with open(store_dir / "journal.jsonl", encoding="utf-8") as fh:
        r.layers["serve.journal_lines"] = sum(1 for _ in fh)

    counters = info["scheduler"]
    expected = {
        "simulated": len(writes),
        "deduped": len(batch) - len(writes),
        "store_hits": len(reads),
        "failed": 0,
    }
    for key, want in expected.items():
        r.expect(
            f"serve.info.{key}", counters[key] == want, f"{counters[key]} != {want}"
        )
    if r.full_check:
        for i in sorted(rng.sample(range(len(reads)), 3)):
            local = simulate(reads[i]).to_dict()["stats"]
            remote = served[i].to_dict()["stats"]
            r.expect(
                f"serve.bit_identical.{reads[i].name}",
                json.dumps(local, sort_keys=True) == json.dumps(remote, sort_keys=True),
                "served stats differ from a local simulate",
            )
    if r.tracer is not None:
        _serve_layer_replays(r, store_dir, writes, served[:SERVE_REPLAYS])


def _serve_layer_replays(r: Round, store_dir: Path, writes, served) -> None:
    """Time the layers under a read round trip, one public call at a time."""
    from repro.eval.resultstore import ResultStore
    from repro.eval.runner import RunResult
    from repro.serve import protocol
    from repro.serve.journal import JobJournal

    def timed(fn, items) -> list[float]:
        samples = []
        for item in items:
            start = time.perf_counter()
            fn(item)
            samples.append(time.perf_counter() - start)
        return samples

    store = ResultStore(store_dir)
    hits = timed(store.get, writes * 4)
    r.expect("serve.replay_store_hits", store.stats.misses == 0, "daemon store missed")
    puts = timed(ResultStore(r.tmp / "put-store").put, served)

    def codec(result) -> None:
        RunResult.from_dict(json.loads(json.dumps(result.to_dict())))

    def message(result) -> None:
        line = protocol.encode(
            {"op": "result", "id": "b1", "index": 0, "source": "store",
             "result": result.to_dict()}
        )

        async def decode() -> None:
            reader = asyncio.StreamReader(limit=protocol.STREAM_LIMIT)
            reader.feed_data(line)
            reader.feed_eof()
            await protocol.read_message(reader)

        asyncio.run(decode())

    journal = JobJournal(r.tmp / "journal-replay" / "journal.jsonl")

    def append(result) -> None:
        journal.record_queued(result.request)
        journal.record_done(result.request)

    r.layers["eval.resultstore.get_ms"] = _median_ms(hits)
    r.layers["eval.resultstore.put_ms"] = _median_ms(puts)
    r.layers["eval.runner.codec_ms"] = _median_ms(timed(codec, served))
    r.layers["serve.protocol_ms"] = _median_ms(timed(message, served))
    r.layers["serve.journal.append_ms"] = _median_ms(timed(append, served))


# -- entry ----------------------------------------------------------------------

WORKLOADS = {
    "fig5-warm": fig5_warm,
    "fig6-cold": fig6_cold,
    "ingest-screen": ingest_screen,
    "serve-roundtrip": serve_roundtrip,
}

#: Fixed CPU cost added per call, by layer (sensitivity self-test only).
INJECT_DELAY_S = {"cycle-loop": 0.03, "func-executor": 0.1}


def _spin(seconds: float) -> None:
    """Burn ``seconds`` of CPU (the gated figures are CPU time)."""
    end = time.process_time() + seconds
    while time.process_time() < end:
        pass


def inject(layer: str) -> None:
    """Slow one layer's public function by a fixed CPU cost per call."""
    delay = INJECT_DELAY_S[layer]
    if layer == "cycle-loop":
        from repro.engine.machine import Machine

        run = Machine.run

        def slow_run(self, *args, **kwargs):
            _spin(delay)
            return run(self, *args, **kwargs)

        Machine.run = slow_run
    else:
        from repro.func.executor import Executor

        execute = Executor.run

        def slow_execute(self, *args, **kwargs):
            _spin(delay)
            yield from execute(self, *args, **kwargs)

        Executor.run = slow_execute


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("plain", "traced", "profiled"), default="plain")
    parser.add_argument("--check", action="store_true", help="run every output check")
    parser.add_argument("--work", type=Path, required=True)
    parser.add_argument("--trace-out", type=Path, help="Chrome trace file (traced mode)")
    parser.add_argument("--inject", choices=sorted(INJECT_DELAY_S))
    args = parser.parse_args()
    if args.inject:
        inject(args.inject)
    tmp = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=args.work))
    try:
        r = Round(args, tmp)
        WORKLOADS[args.workload](r)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    if r.tracer is not None and args.trace_out is not None:
        r.tracer.write_chrome(str(args.trace_out))
    print(json.dumps(r.record()))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
