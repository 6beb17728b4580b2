"""Outside-in benchmark of fenceinj.

Usage, from the repository root:

    python3 perfbench/run.py --workload close-g11 --seed 1 --seconds 24 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 24 --trace 0

Runs cycles of one workload (see ``workloads.py``) until ``--seconds`` have
passed, checks every cycle's outputs, prints each metric by name with its
unit, and prints one JSON result as the last line of standard output.
With ``--trace 0`` the result holds the end-to-end metrics of
``BENCHMARK.json``; with ``--trace 1`` it holds the per-layer metrics, taken
from every second cycle, which runs instrumented.  The program is imported
from ``src/`` of the checkout this file sits in; nothing is installed.
Exit code 1 means a correctness gate failed, 2 means the benchmark could
not run.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
MODULES = ("fence", "generators", "oracle", "closure", "constructions",
           "analysis", "cli")
# set-ups per run; setup_s is their median.  Each re-imports every fenceinj
# module; numpy and the standard library are imported by the first only,
# since they cannot be imported afresh in the same process.
SETUP_REPEATS = 15


def _import_program() -> None:
    """Put ``src/`` first on the path, import every fenceinj module the
    workloads call and check they come from there."""
    if not (SRC / "fenceinj" / "__init__.py").is_file():
        print(f"error: no fenceinj sources under {SRC}", file=sys.stderr)
        raise SystemExit(2)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import fenceinj

    for name in MODULES:
        importlib.import_module(f"fenceinj.{name}")
    if SRC.resolve() not in Path(fenceinj.__file__).resolve().parents:
        print(f"error: fenceinj was imported from {fenceinj.__file__}, not {SRC}",
              file=sys.stderr)
        raise SystemExit(2)


def _set_up(workload, seed: int, scratch: Path) -> tuple[object, float]:
    """Import the program and build the workload's inputs SETUP_REPEATS
    times; return the last inputs and the median time."""
    times = []
    for _ in range(SETUP_REPEATS):
        for name in [m for m in sys.modules if m.split(".")[0] == "fenceinj"]:
            del sys.modules[name]
        started = time.perf_counter()
        _import_program()
        state = workload.setup(seed, scratch)
        times.append(time.perf_counter() - started)
    return state, statistics.median(times)


def _peak_rss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def _metric_specs() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def layer_metrics(spans: list[dict], counters: dict) -> dict[str, float]:
    """Per-layer values of one traced cycle, from its spans and counters.

    Durations are inclusive, except ``closure.save.s`` and ``cli.self.s``,
    which are self times, and ``cli.startup.s``, which is a CLI process's
    wall time minus its ``cli.main`` span.
    """
    from spans import self_times

    own = self_times(spans)
    by_id = {s["id"]: s for s in spans}
    out: dict[str, float] = dict(counters)

    def add(name: str, value: float) -> None:
        out[name] = out.get(name, 0.0) + value

    for s in spans:
        name, duration = s["name"], s["end"] - s["start"]
        if name in ("closure.close", "closure.witness", "closure.load") \
                or name.startswith(("oracle.", "analysis.")):
            add(name + ".s", duration)
        elif name == "closure.save":
            add("closure.save.s", own[s["id"]])
        elif name == "cli.main":
            add("cli.self.s", own[s["id"]])
            call = by_id[s["parent"]]
            add("cli.startup.s", call["end"] - call["start"] - duration)
    return out


def _meta(args, cycles: list, traced: list[bool]) -> dict:
    import numpy
    from workloads import WORKERS

    revision = None
    if (ROOT / ".git").exists():
        revision = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True,
            text=True, check=False).stdout.strip() or None
    src = hashlib.sha256()
    for path in sorted((SRC / "fenceinj").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "git_revision": revision,
        "src_sha256": src.hexdigest(), "python": platform.python_version(),
        "numpy": numpy.__version__, "nproc": os.cpu_count(), "workers": WORKERS,
        "cycles": len(cycles), "traced_cycles": sum(traced),
        "phase2_samples": sum(len(c.phase2_s) for c, t in zip(cycles, traced) if not t),
        "cycle_s": [[round(c.wall_s, 4), round(c.phase1_s, 4),
                     [round(q, 4) for q in c.phase2_s]] for c in cycles],
    }


def run_one(args) -> int:
    from spans import Tracer, instrument
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    specs = _metric_specs()
    scratch = OUT / f"run-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    try:
        state, setup_s = _set_up(workload, args.seed, scratch)
        tracer = Tracer(run_id=f"{workload.name}-s{args.seed}-p{os.getpid()}")
        warmups = []
        for _ in range(workload.warmup_cycles):
            warmups.append(workload.cycle(state, tracer))
            workload.check(state, warmups[-1])
        # this process's peak RSS once its first cycle is checked; later
        # cycles raise it only by the allocator's fragmentation
        first_peak_kb = _peak_rss_kb() if warmups else None
        cycles, traced, layers = [], [], []
        started = time.perf_counter()
        while True:
            instrumented = bool(args.trace) and len(cycles) % 2 == 1
            first_span, before = len(tracer.spans), tracer.counters.copy()
            with instrument(tracer) if instrumented else nullcontext():
                with tracer.span("cycle"):
                    cycle = workload.cycle(state, tracer)
            if instrumented:
                counters = dict(tracer.counters - before)
                counters.update(cycle.counts)
                layers.append(layer_metrics(tracer.spans[first_span:], counters))
            workload.check(state, cycle)
            first_peak_kb = first_peak_kb or _peak_rss_kb()
            cycles.append(cycle)
            traced.append(instrumented)
            # two cycles at least, so that no median is a single sample
            if time.perf_counter() - started >= args.seconds and len(cycles) >= 2:
                break
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    checked = warmups + cycles
    failures = [f for c in checked for f in c.failures]
    attempted = sum(c.attempted for c in checked)
    failed = sum(min(len(c.failures), c.attempted) for c in checked)
    plain = [c for c, t in zip(cycles, traced) if not t]
    meta = _meta(args, cycles, traced)
    meta["warmup_cycles"] = len(warmups)

    samples: dict[str, list[float]] = {}
    if args.trace:
        walls = [c.wall_s for c, t in zip(cycles, traced) if t]
        wanted = specs["per_layer"]
        values = {m["name"]: _median([layer.get(m["name"], 0.0) for layer in layers])
                  for m in wanted}
        values["trace.overhead_s"] = _median(walls) - _median([c.wall_s for c in plain])
        tracer.dump(OUT / f"trace-{workload.name}-s{args.seed}.json", meta)
    else:
        wanted = specs["end_to_end"]
        rss_kb = max([first_peak_kb] + [c.peak_rss_kb for c in plain])
        samples = {
            "wall_s": [c.wall_s for c in plain],
            "phase1_s": [c.phase1_s for c in plain],
            "phase2_s": [q for c in plain for q in c.phase2_s],
        }
        values = {name: _median(v) for name, v in samples.items()}
        values["setup_s"] = setup_s
        values["peak_rss_mb"] = rss_kb / 1024
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted}

    print(f"# {workload.name}: {workload.why}")
    for name, metric in metrics.items():
        count = f"  (median of {len(samples[name])})" if name in samples else ""
        print(f"{name:<40} {metric['value']:.6g} {metric['unit']}{count}")
    if not args.trace:
        # the two phases of a cycle, by what they measure on this workload;
        # printed but not in the result, see README.md
        for phase, alias in workload.aliases.items():
            print(f"{alias:<40} {values[phase]:.6g} s  "
                  f"(median of {len(samples[phase])}, not gated)")
    if not args.trace and "artifact_bytes" in plain[0].counts:
        artifact = _median([c.counts["artifact_bytes"] for c in plain])
        print(f"{'artifact_bytes':<40} {artifact:.0f} bytes")
    print(f"{'failed_share':<40} {failed / max(attempted, 1):.6g} "
          f"({failed} of {attempted} operations)")
    print("# meta " + json.dumps(meta, sort_keys=True))
    for failure in failures:
        print(f"gate failed: {failure}", file=sys.stderr)
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 1 if failures else 0


def run_all(args) -> int:
    """Every workload in its own process, so peak RSS belongs to one workload."""
    from workloads import WORKLOADS

    status, combined = 0, {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__)), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        if proc.returncode == 2 or not lines:
            return 2
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        status = max(status, proc.returncode)
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return status


def main() -> int:
    # a terminated run unwinds like an exception, so it deletes its scratch
    # dir and kills and reaps every process it started
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        help="close-g11, cli-factor-n11, verify-registry or all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=24)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.workload == "all":
        return run_all(args)
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}")
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
