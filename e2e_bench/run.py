"""End-to-end, layer-attributed benchmark of the reproduction.

Run from the repository root::

    python3 e2e_bench/run.py --workload reproduce --seed 0 --seconds 15 --trace 0
    python3 e2e_bench/run.py --smoke

One client in a closed loop: every pass is a fresh interpreter
(``child.py``) that drives the program through its public entry points
and exits; the next pass starts when the previous one has ended.  All
program state -- result store, C-kernel cache, telemetry -- lives in a
private directory under ``.e2e_bench_work/`` that is deleted at the end,
so the checkout's own ``.repro-cache/`` is never read or written.

The last line of standard output is the result object
``{"correct", "attempted", "failed", "metrics"}``; the line before it
is the full record (samples, checks, host and build metadata).  See
``README.md`` in this directory for the workloads, the metrics and the
layer -> end-to-end mapping.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import shutil
import socket
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path
from typing import NamedTuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD = HERE / "child.py"
DIGESTS = HERE / "digests.json"
SPEC = ROOT / "BENCHMARK.json"
WORK = ROOT / ".e2e_bench_work"

#: The seed whose inputs are the paper's own: experiments in paper
#: order and the benchmark models' own address seeds.  Its outputs are
#: pinned in ``digests.json``.
DEFAULT_SEED = 0

#: A run must end well inside the 180 s every invocation is allowed.
RUN_DEADLINE_S = 170.0
SETUP_REPEATS = 3
#: Warm passes after each cold pass.  A warm pass is short, so host
#: noise is large against its length; two per round give the warm
#: median twice the samples of the cold one.
WARM_PER_COLD = 2
#: Seconds the reference re-simulation may spend beyond the cells
#: it must draw to cover every stratum (``child.reference_sample``).
REFERENCE_BUDGET_S = 3.0
EXACT_SCENARIOS = 3

EXPERIMENTS = (
    "fig4", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10", "fig11",
    "fig12", "fig13", "fig14", "fig15", "fig16", "fig17", "fig18", "fig19",
    "assoc", "costs", "incache", "linesize", "robustness", "schedule",
)
BENCHMARKS = (
    "alvinn", "doduc", "ear", "fpppp", "hydro2d", "mdljdp2", "mdljsp2",
    "nasa7", "ora", "su2cor", "swm256", "spice2g6", "tomcatv", "wave5",
    "compress", "eqntott", "espresso", "xlisp",
)
#: (label, cache bytes, associativity, scheduled load latency).
SWEEP_TABLES = (
    ("8KB-dm/lat3", 8 * 1024, 1, 3),
    ("8KB-dm/lat10", 8 * 1024, 1, 10),
    ("64KB-2way/lat3", 64 * 1024, 2, 3),
    ("64KB-2way/lat10", 64 * 1024, 2, 10),
)
FRONTIER_MODELS = ("eqntott", "compress", "espresso", "su2cor", "tomcatv",
                   "doduc")
FRONTIER_SIZES_KB = (8, 64, 256)
FRONTIER_LATENCIES = (3, 10, 20)
#: The priced design catalogue of the design frontier: the studied
#: designs of Section 2 widened with their size ladders.  Storage
#: prices are MSHR bits for 32-byte lines; the per-set limits carry a
#: synthetic eight-entry price.  (description, (policies constructor,
#: args, kwargs), bits).
CATALOGUE = (
    ("lockup cache", ("blocking_cache", [], {}), 0),
    ("1 single-field MSHR", ("mc", [1], {}), 61),
    ("2 single-field MSHRs", ("mc", [2], {}), 122),
    ("4 single-field MSHRs", ("mc", [4], {}), 244),
    ("1 four-field explicit MSHR", ("fc", [1], {}), 112),
    ("2 four-field explicit MSHRs", ("fc", [2], {}), 224),
    ("4 four-field explicit MSHRs", ("fc", [4], {}), 448),
    ("in-cache transit bits", ("in_cache", [1], {}), 256),
    ("16 implicit MSHRs (8B words)", ("with_layout", [4, 1], {}), 1472),
    ("16 implicit MSHRs (4B words)", ("with_layout", [8, 1], {}), 2240),
    ("16 hybrid 2x2 MSHRs", ("with_layout", [2, 2], {}), 1728),
    ("inverted MSHR (70 dest)", ("no_restrict", [], {}), 3780),
    ("3 single-field MSHRs", ("mc", [3], {}), 183),
    ("6 single-field MSHRs", ("mc", [6], {}), 366),
    ("8 single-field MSHRs", ("mc", [8], {}), 488),
    ("12 single-field MSHRs", ("mc", [12], {}), 732),
    ("16 single-field MSHRs", ("mc", [16], {}), 976),
    ("3 four-field explicit MSHRs", ("fc", [3], {}), 336),
    ("6 four-field explicit MSHRs", ("fc", [6], {}), 672),
    ("8 four-field explicit MSHRs", ("fc", [8], {}), 896),
    ("fs=1 per-set limit", ("fs", [1], {}), 896),
    ("fs=2 per-set limit", ("fs", [2], {}), 896),
    ("fs=4 per-set limit", ("fs", [4], {}), 896),
    ("inverted MSHR (16 dest)", ("inverted", [16], {}), 864),
    ("inverted MSHR (35 dest)", ("inverted", [35], {}), 1890),
    ("16 hybrid 4x2 MSHRs", ("with_layout", [4, 2], {}), 2624),
    ("lockup cache + write-allocate",
     ("blocking_cache", [], {"write_allocate": True}), 0),
)

LANES = ("c", "numpy", "python", "interp")

#: Span name -> layer (see tracer.TARGETS).
SPAN_LAYER = {
    "simulate": "simulate",
    "compiler.lookup": "compiler", "compiler.compile": "compiler",
    "trace.expand": "trace",
    "stream.build": "stream", "stream.classify": "stream",
    "codegen.py": "codegen.py", "codegen.c": "codegen.c",
    "replay.c": "replay.c", "replay.numpy": "replay.numpy",
    "replay.python": "replay.python", "replay.interp": "replay.interp",
    "closed_form": "closed_form",
    "screen.band": "screen", "screen.bounds": "screen",
    "store.load": "store", "store.store": "store",
    "planner": "planner",
    "dispatch": "dispatch", "dispatch.shutdown": "dispatch",
    "telemetry": "telemetry",
    "operation": "operation",
}


class BenchError(Exception):
    """The benchmark cannot produce a result (exit without printing)."""


_STARTED = time.monotonic()


def log(message: str) -> None:
    elapsed = time.monotonic() - _STARTED
    print(f"[e2e_bench {elapsed:6.1f}s] {message}", file=sys.stderr,
          flush=True)


# -- inputs ----------------------------------------------------------------------


def make_inputs(workload: str, seed: int, scale: float, workers: int):
    """Everything the program sees, drawn from ``seed`` alone."""
    rng = random.Random(f"{workload}:{seed}")

    def reseed(names):
        if seed == DEFAULT_SEED:
            return [[name, None] for name in names]
        return [[name, rng.randrange(1, 2 ** 31 - 1)] for name in names]

    if workload == "reproduce":
        order = list(EXPERIMENTS)
        if seed != DEFAULT_SEED:
            rng.shuffle(order)
        return {"order": order, "scale": scale}
    return {
        "sweep": {"models": reseed(BENCHMARKS),
                  "tables": [list(t) for t in SWEEP_TABLES],
                  "workers": workers, "scale": scale},
        "frontier": {"models": reseed(FRONTIER_MODELS),
                     "sizes_kb": list(FRONTIER_SIZES_KB),
                     "latencies": list(FRONTIER_LATENCIES),
                     "catalogue": [list(c) for c in CATALOGUE],
                     "scale": scale},
    }


# -- passes ------------------------------------------------------------------------


class Pass(NamedTuple):
    """What the parent measures of one child process, from ``wait4``.

    ``cpu`` is user plus system time of the child and of every process
    it waited for (pool workers, compiler runs).  Unlike ``wall`` it
    leaves out the time the child sat runnable while other processes,
    or the hypervisor, had the CPU.
    """

    wall: float
    cpu: float
    rss_mb: float


class Runner:
    """Launches child passes inside one private work directory."""

    def __init__(self, workload, inputs, work: Path, deadline: float):
        self.workload = workload
        self.inputs = inputs
        self.work = work
        self.deadline = deadline
        self.count = 0
        (work / "tmp").mkdir()
        self.env = {k: v for k, v in os.environ.items()
                    if not k.startswith("REPRO_")}
        self.env.update(PYTHONPATH=str(ROOT / "src"),
                        TMPDIR=str(work / "tmp"))

    def fresh_root(self, template=None) -> Path:
        """An empty cache root, optionally holding built kernels."""
        self.count += 1
        root = self.work / f"cache{self.count}"
        root.mkdir()
        if template is not None and template.is_dir():
            shutil.copytree(template, root / "kernels")
        return root

    def child(self, mode, root: Path, trace=False, **extra):
        """Run one child; returns (Pass, output, stderr)."""
        self.count += 1
        tag = f"{mode}{self.count}"
        spec = dict(extra, mode=mode, workload=self.workload,
                    inputs=self.inputs, trace=trace,
                    out=str(self.work / f"{tag}.out.json"),
                    span_dir=str(self.work / f"{tag}.spans"))
        Path(spec["span_dir"]).mkdir()
        spec_path = self.work / f"{tag}.spec.json"
        spec_path.write_text(json.dumps(spec))
        env = dict(self.env, REPRO_CACHE_DIR=str(root),
                   REPRO_TELEMETRY_DIR=str(root))
        cmd = [sys.executable]
        if trace:
            cmd += ["-X", "importtime"]
        cmd += [str(CHILD), str(spec_path)]
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            raise BenchError("run deadline passed before a pass could start")
        err_path = self.work / f"{tag}.stderr"
        with open(err_path, "wb") as err:
            started = time.perf_counter()
            proc = subprocess.Popen(cmd, cwd=ROOT, env=env,
                                    stdout=subprocess.DEVNULL, stderr=err)
            killer = threading.Timer(timeout, proc.kill)
            killer.start()
            try:
                _pid, status, usage = os.wait4(proc.pid, 0)
            finally:
                killer.cancel()
            wall = time.perf_counter() - started
        proc.returncode = os.waitstatus_to_exitcode(status)
        stderr = err_path.read_text(errors="replace")
        if proc.returncode != 0:
            raise BenchError(f"{mode} pass exited {proc.returncode}:\n"
                             f"{stderr[-3000:]}")
        out = json.loads(Path(spec["out"]).read_text())
        out["span_dir"] = spec["span_dir"]
        return Pass(wall, usage.ru_utime + usage.ru_stime,
                    usage.ru_maxrss / 1024.0), out, stderr


def kernel_families(root: Path):
    """The C-kernel families a pass left in its cache root."""
    families = []
    for meta in sorted((root / "kernels").glob("*.json")):
        families.append(json.loads(meta.read_text())["family"])
    return families


# -- per-layer numbers -------------------------------------------------------------


def import_seconds(stderr: str):
    """(before work, during work) top-level ``-X importtime`` totals."""
    before = during = 0
    seen_marker = False
    for line in stderr.splitlines():
        if line.startswith("E2E-WORK-START"):
            seen_marker = True
            continue
        if not line.startswith("import time:"):
            continue
        parts = line.split("|")
        if len(parts) != 3 or parts[2].startswith("  "):
            continue
        try:
            cumulative = int(parts[1])
        except ValueError:  # the header line
            continue
        if seen_marker:
            during += cumulative
        else:
            before += cumulative
    return before / 1e6, during / 1e6


def span_self_times(spans):
    """Per span: (name, duration, self time, outcome)."""
    covered = [0.0] * len(spans)
    for name, start, end, parent, _outcome in spans:
        if parent >= 0:
            covered[parent] += end - start
    return [(span[0], span[2] - span[1], span[2] - span[1] - covered[i],
             span[4]) for i, span in enumerate(spans)]


def worker_spans(span_dir: str):
    spans = []
    for path in sorted(Path(span_dir).glob("spans-*.jsonl")):
        with open(path) as fh:
            spans.append([json.loads(line) for line in fh])
    return spans


def layer_metrics(out, wall: float, stderr: str, untraced_wall: float):
    """Per-layer numbers of one traced pass, plus the lane check."""
    parent = span_self_times(out["spans"])
    workers = [span_self_times(s) for s in worker_spans(out["span_dir"])]
    every = parent + [item for spans in workers for item in spans]

    calls, self_s, landed, declined, sums = {}, {}, {}, {}, {}
    for name, _duration, own, outcome in every:
        layer = SPAN_LAYER[name]
        calls[name] = calls.get(name, 0) + 1
        self_s[layer] = self_s.get(layer, 0.0) + own
        if outcome is True:
            landed[name] = landed.get(name, 0) + 1
        elif outcome is False:
            declined[name] = declined.get(name, 0) + 1
        elif isinstance(outcome, list):
            total = sums.setdefault(name, [0] * len(outcome))
            for i, value in enumerate(outcome):
                total[i] += value

    def ratio(num, den):
        return num / den if den else 0.0

    import_before, import_during = import_seconds(stderr)
    m = {
        "import.s": import_before,
        "import.lazy_s": import_during,
        "compiler.calls": calls.get("compiler.compile", 0),
        "compiler.lookups": calls.get("compiler.lookup", 0),
        "trace.calls": calls.get("trace.expand", 0),
        "stream.calls": (calls.get("stream.build", 0)
                         + calls.get("stream.classify", 0)),
        "codegen.py.kernels": calls.get("codegen.py", 0),
        "codegen.c.builds": landed.get("codegen.c", 0),
        "replay.declined": sum(declined.get(n, 0) for n in (
            "replay.c", "replay.numpy", "replay.python", "closed_form")),
        "closed_form.cells": landed.get("closed_form", 0),
        "store.loads": calls.get("store.load", 0),
        "store.hit_ratio": ratio(landed.get("store.load", 0),
                                 calls.get("store.load", 0)),
        "store.writes": landed.get("store.store", 0),
        "simulate.cells": calls.get("simulate", 0),
        "dispatch.cells": sum(outcome for name, _d, _own, outcome in parent
                              if name == "dispatch"),
    }
    for lane in LANES:
        m[f"replay.{lane}.cells"] = landed.get(f"replay.{lane}", 0)
    band = sums.get("screen.band", [0, 0])
    m["screen.cells"], m["screen.simulated"] = band
    m["screen.prune_rate"] = ratio(band[0] - band[1], band[0])
    plan = sums.get("planner", [0, 0])
    m["planner.cells"] = plan[0]
    m["planner.dedup_ratio"] = ratio(plan[0] - plan[1], plan[0])
    for layer in ("compiler", "trace", "stream", "codegen.py", "codegen.c",
                  "replay.c", "replay.numpy", "replay.python",
                  "replay.interp", "closed_form", "screen", "store",
                  "planner", "simulate", "telemetry"):
        m[f"{layer}.self_s"] = self_s.get(layer, 0.0)
    m["dispatch.wait_s"] = sum(own for name, _d, own, _o in parent
                               if SPAN_LAYER[name] == "dispatch")
    m["dispatch.worker_self_s"] = sum(own for spans in workers
                                      for _n, _d, own, _o in spans)
    experiment_s = {}
    for name, duration, _own, outcome in parent:
        if name == "operation" and outcome is not None:
            experiment_s[outcome] = experiment_s.get(outcome, 0.0) + duration
    for eid in EXPERIMENTS:
        m[f"experiment.{eid}.s"] = experiment_s.get(eid, 0.0)
    # An operation span's own time is whatever the program does outside
    # every wrapped layer, so it counts as unattributed.
    attributed = import_before + sum(own for name, _d, own, _o in parent
                                     if name != "operation")
    m["traced_cold_s"] = wall
    m["unattributed.s"] = wall - attributed
    m["unattributed.share"] = (wall - attributed) / wall
    m["tracing_overhead"] = wall / untraced_wall

    lane_cells = sum(m[f"replay.{lane}.cells"] for lane in LANES)
    problems = []
    if lane_cells + m["closed_form.cells"] != m["simulate.cells"]:
        problems.append(
            f"lane cells {lane_cells} + closed-form "
            f"{m['closed_form.cells']} != cells simulated "
            f"{m['simulate.cells']}")
    return m, problems


# -- checks ------------------------------------------------------------------------


def check_outputs(workload, seed, scale, passes, checks):
    """Digest agreement across passes and with the pinned digests.

    ``passes`` is a list of child outputs; returns (attempted, failures,
    digest per operation).
    """
    failures = []
    attempted = 0
    by_op = {}
    for out in passes:
        for record in out["ops"]:
            attempted += 1
            if record["error"] is not None:
                failures.append(f"{record['id']} raised:\n{record['error']}")
                continue
            by_op.setdefault(record["id"], set()).add(record["digest"])
    for op_id, digests in by_op.items():
        if len(digests) != 1:
            failures.append(f"{op_id}: output differs between passes")
    if scale == 1.0 and (seed == DEFAULT_SEED
                                 or workload == "reproduce"):
        # Reproduce's inputs are the same on every seed (only the order
        # moves), so its pinned digests apply to every seed.
        pinned = json.loads(DIGESTS.read_text()).get(workload, {})
        for op_id, digests in by_op.items():
            if op_id not in pinned:
                failures.append(f"{op_id}: no pinned digest")
            elif pinned[op_id] not in digests:
                failures.append(f"{op_id}: output differs from the pinned "
                                f"digest")
    for check in checks:
        attempted += check["attempted"]
        failures.extend(check["failures"])
    return attempted, failures, {k: sorted(v)[0] for k, v in by_op.items()}


# -- metadata ----------------------------------------------------------------------


def _first_line(cmd):
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=10, cwd=ROOT)
    except (OSError, subprocess.TimeoutExpired):
        return None
    if proc.returncode != 0:
        return None
    return (proc.stdout.strip().splitlines() or [None])[0]


def source_digest() -> str:
    """sha256 over the program's source tree (the checkout has no .git)."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def speed_probe() -> float:
    """Median time of a fixed pure-Python loop: how fast the host is now.

    Shared hosts drift; recording this at the start and end of a run
    lets a reader tell a slower program from a slower machine.
    """
    times = []
    for _ in range(5):
        started = time.perf_counter()
        total = 0
        for i in range(300_000):
            total += i
        times.append(time.perf_counter() - started)
    return statistics.median(times)


def host_meta(workers: int, probes):
    return {
        "speed_probe_s": probes,
        "git_sha": (_first_line(["git", "rev-parse", "HEAD"])
                    if (ROOT / ".git").exists() else None),
        "source_sha256": source_digest(),
        "host": socket.gethostname(),
        "platform": platform.platform(),
        "nproc": workers,
        "python": platform.python_version(),
        "cc": _first_line(["cc", "--version"]),
    }


# -- the run -----------------------------------------------------------------------


def rounds(seconds: float, minimum: int):
    """Yield measurement rounds for about ``seconds``.

    A round starts only if one more round of the last round's length
    still fits, so slow rounds do not overrun the window by a whole
    round; at least ``minimum`` rounds run regardless.
    """
    started = time.monotonic()
    count = 0
    last = 0.0
    while count < minimum or time.monotonic() - started + last <= seconds:
        round_start = time.monotonic()
        yield count
        count += 1
        last = time.monotonic() - round_start


def measure(args, runner: Runner):
    """Cold/warm loop (--trace 0) or traced/untraced pairs (--trace 1)."""
    log(f"{args.workload}: priming pass (builds the C kernels)")
    priming_root = runner.fresh_root()
    _pass, priming, _err = runner.child("pass", priming_root)
    template = priming_root / "kernels"
    passes = [priming]
    samples = {}
    layer_samples = []
    problems = []

    if not args.trace:
        log(f"{args.workload}: set-up x{SETUP_REPEATS}")
        families = kernel_families(priming_root)
        setups = []
        for _ in range(SETUP_REPEATS):
            _p, out, _e = runner.child("setup", runner.fresh_root(),
                                       families=families)
            setups.append(out["setup_s"])
        samples["setup_s"] = setups
        log(f"{args.workload}: measuring for {args.seconds:g} s")
        cold, warm = [], []
        for _ in rounds(args.seconds, minimum=2):
            root = runner.fresh_root(template)
            measured, out, _err = runner.child("pass", root)
            cold.append(measured)
            passes.append(out)
            for _ in range(WARM_PER_COLD):
                measured, out, _err = runner.child("pass", root)
                warm.append(measured)
                passes.append(out)
        samples.update(cold_cpu_s=[p.cpu for p in cold],
                       warm_cpu_s=[p.cpu for p in warm],
                       peak_rss_mb=[p.rss_mb for p in cold],
                       cold_wall_s=[p.wall for p in cold],
                       warm_wall_s=[p.wall for p in warm])
    else:
        untraced, traced = [], []
        log(f"{args.workload}: traced rounds for {args.seconds:g} s")
        for _ in rounds(args.seconds, minimum=1):
            measured, out, _err = runner.child(
                "pass", runner.fresh_root(template))
            untraced.append(measured.wall)
            passes.append(out)
            root = runner.fresh_root(template)
            measured, out, err = runner.child("pass", root, trace=True)
            traced.append(measured.wall)
            passes.append(out)
            layers, lane_problems = layer_metrics(out, measured.wall, err,
                                                  untraced[-1])
            layer_samples.append(layers)
            problems.extend(lane_problems)
        samples.update(untraced_cold_s=untraced, traced_cold_s=traced)

    log(f"{args.workload}: output checks")
    _p, verify, _e = runner.child(
        "verify", root, check_seed=args.seed,
        reference_budget_s=REFERENCE_BUDGET_S,
        exact_scenarios=EXACT_SCENARIOS)
    passes.append(verify)
    log(f"{args.workload}: done")
    return passes, samples, layer_samples, problems, verify


def load_spec() -> dict:
    """BENCHMARK.json: the workloads, the metrics and their units."""
    try:
        return json.loads(SPEC.read_text())
    except (OSError, ValueError) as exc:
        raise BenchError(f"cannot read {SPEC.name}: {exc}") from exc


def declared_metrics(declared, values):
    """The metrics BENCHMARK.json declares, with their measured values."""
    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing:
        raise BenchError(f"declared metrics not measured: {missing}")
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in declared}


def run(args, spec) -> dict:
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        raise BenchError(f"no program sources under {ROOT / 'src'}")
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        raise BenchError(f"unknown workload {args.workload!r}")
    workers = len(os.sched_getaffinity(0))
    inputs = make_inputs(args.workload, args.seed, args.scale, workers)
    probes = [speed_probe()]
    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="run-", dir=WORK))
    try:
        runner = Runner(args.workload, inputs, work,
                        time.monotonic() + RUN_DEADLINE_S)
        passes, samples, layer_samples, problems, verify = measure(args,
                                                                   runner)
        probes.append(speed_probe())
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass

    attempted, failures, digests = check_outputs(
        args.workload, args.seed, args.scale, passes, verify["checks"])
    attempted += len(layer_samples)
    failures.extend(problems)

    if args.trace:
        metrics = declared_metrics(spec["per_layer"], {
            name: statistics.median(s[name] for s in layer_samples)
            for name in layer_samples[0]
        })
    else:
        metrics = declared_metrics(spec["end_to_end"], {
            name: statistics.median(samples[name])
            for name in ("cold_cpu_s", "warm_cpu_s", "setup_s", "peak_rss_mb")
        } | {"fig13_log2_err": verify["fig13_log2_err"]})
    for failure in failures:
        log(f"FAILED: {failure}")
    record = {
        "workload": args.workload, "seed": args.seed, "scale": args.scale,
        "seconds": args.seconds, "trace": args.trace,
        "load_model": "closed loop, one client, one pass at a time",
        "samples": samples,
        "sample_counts": {k: len(v) for k, v in samples.items()},
        "operations": len(digests), "attempted": attempted,
        "failed": len(failures), "failures": failures[:20],
        "checks": {c["check"]: c["attempted"] for c in verify["checks"]},
        "program": verify["meta"], "host": host_meta(workers, probes),
        "digests": digests,
    }
    if args.trace:
        record["layers"] = layer_samples
    return {"record": record,
            "result": {"correct": not failures, "attempted": attempted,
                       "failed": len(failures), "metrics": metrics}}


# -- smoke -------------------------------------------------------------------------


def smoke(spec) -> int:
    """Every workload at tiny scale, traced and untraced; names and
    units printed must equal BENCHMARK.json exactly."""
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = 0
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()),
                   "--workload", workload, "--seed", "1", "--seconds", "1",
                   "--trace", str(trace), "--scale", "0.05"]
            proc = subprocess.run(cmd, capture_output=True, text=True,
                                  timeout=180, cwd=ROOT)
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if lines else {}
            printed = {k: v["unit"]
                       for k, v in result.get("metrics", {}).items()}
            ok = (proc.returncode == 0
                  and set(result) == {"correct", "attempted", "failed",
                                      "metrics"}
                  and result["correct"] and printed == expected[trace])
            log(f"smoke {workload} trace={trace}: "
                f"{'ok' if ok else 'FAILED'}")
            if not ok:
                problems += 1
                sys.stderr.write(proc.stderr[-3000:])
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="reproduce")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measurement window (default: BENCHMARK.json "
                             "run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="run-length multiplier (smoke runs only)")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny-scale wiring check of every workload")
    args = parser.parse_args(argv)
    try:
        spec = load_spec()
        if args.smoke:
            return smoke(spec)
        if args.seconds is None:
            args.seconds = spec["run_seconds"]
        outcome = run(args, spec)
    except BenchError as exc:
        log(f"error: {exc}")
        return 1
    print(json.dumps(outcome["record"]))
    print(json.dumps(outcome["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
