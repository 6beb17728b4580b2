"""The benchmark's three workloads, their inputs and their correctness gates.

Each workload is a closed loop with one client and one call at a time.  A
workload is run as repeated *cycles*, and each cycle has two timed phases:

* ``close-g11``: phase 1 = ``close(build_G(11), workers=1)``, phase 2 =
  consume ``witness_items()`` in full.  Closure engine and witness
  reconstruction, no disk, no CLI.
* ``cli-factor-n11``: phase 1 = one cold ``closure`` CLI process on an empty
  cache dir, phase 2 = each warm ``factor`` CLI process on that cache.
  Persistence (writes, then reads), CLI start-up and the thread-pool path.
* ``verify-registry``: ``ctx.universe(n)``, then every claim, one
  ``run_verification`` call each, for n = 3, 5, 7, 9.  Phase 1 = the
  claims that close generating sets; phase 2 = the other claims
  (pure-Python fixpoints, sweeps and formulas).  The universes count in
  the cycle's wall time only.

Calls into the program go through module attributes looked up at call time,
so the wrappers that ``spans.instrument`` installs see them.  Checks run
after the cycle, outside every timed span and outside instrumentation.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import shutil
import subprocess
import sys
import tempfile
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from spans import Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKERS = 2
PROCESS_TIMEOUT_S = 150
# witnesses of close-g11 re-evaluated with evaluate_word in each check
WITNESS_SAMPLE = 256
# warm factor calls per cold closure in a cli-factor-n11 cycle.  This is a
# trade-off against the run length, not observed traffic: at about 10 s for
# the cold call and 5 s per warm one, a cycle takes about 20 s, and a 24 s
# run must hold at least two cycles so that cli_cold_s is not one sample.
WARM_CALLS = 2
# untimed verify-registry cycles before the timed ones.  The first cycle of a
# process ran about 5% slower than the median of the later ones (medians
# over ten runs); one cycle costs about 5 s.  close-g11 and cli-factor-n11
# get none: a cycle there costs 15 to 25 s, too much for the run budget,
# and cli-factor-n11 starts a fresh interpreter for every call anyway.
VERIFY_WARMUP = 1
# seeded factor targets of cli-factor-n11: products of random words of
# 1 to MAX_WORD generators of G_11, used in turn
TARGETS = 16
MAX_WORD = 8


@dataclass(frozen=True)
class CloseSpec:
    n: int
    count: int
    level_sizes: tuple[int, ...]
    # SHA-256 of the "code\tword\n" stream of witness_items(), recorded once
    # from the first version of the closure engine
    digest: str


@dataclass(frozen=True)
class CliSpec:
    n: int
    count: int
    level_sizes: tuple[int, ...]


@dataclass(frozen=True)
class VerifySpec:
    elements: dict[int, int]
    # claims that pass at each n in the first version of the registry; each
    # must still run and pass, so no run gets faster by dropping a claim
    passing: dict[int, tuple[str, ...]]


# registry claims whose runners close generating sets with fenceinj.closure
CLOSURE_CLAIMS = ("generates-Gn", "generates-Jn", "lemma6")

G11_LEVELS = (19, 243, 2444, 18711, 88758, 203289, 196637, 69514, 6816, 218, 1)
FULL_CLOSE = CloseSpec(
    11, 586_650, G11_LEVELS,
    "03505408fc33b6759c4d6f3abd302b0e9fc0b5c522fb8056704f36ce18d57764")
FULL_CLI = CliSpec(11, 586_650, G11_LEVELS)
_COMMON = ("identity-table", "G-size-formula", "pair-count",
           "rank-formula-consistency", "generates-Gn")
FULL_VERIFY = VerifySpec(
    elements={3: 18, 5: 182, 7: 2288, 9: 34164},
    passing={
        3: ("rank-formula-consistency", "generates-Gn", "generates-Jn",
            "prop7-claims", "minimal-rank-n3"),
        5: _COMMON + ("generates-Jn", "lemma6", "lemma-bf4", "prop7-claims",
                      "parity-reduce-sweep", "convex-extend-sweep"),
        7: _COMMON + ("generates-Jn", "lemma6", "lemma-bf4", "prop7-claims",
                      "parity-reduce-sweep", "convex-extend-sweep"),
        9: _COMMON + ("lemma-bf4", "prop7-claims", "parity-reduce-sweep"),
    })


@dataclass
class Cycle:
    """Timings and outputs of one cycle; ``counts`` feed per-layer metrics."""

    wall_s: float = 0.0
    phase1_s: float = 0.0
    phase2_s: list[float] = field(default_factory=list)
    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    peak_rss_kb: int = 0
    counts: dict[str, float] = field(default_factory=dict)
    outputs: object = None


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    # what phase1_s and phase2_s measure on this workload
    aliases: dict[str, str]
    setup: Callable[[int, Path], object]
    cycle: Callable[[object, Tracer], Cycle]
    check: Callable[[object, Cycle], None]
    # untimed cycles before the timed ones; their outputs are still checked
    warmup_cycles: int = 0


def witness_digest(items) -> str:
    h = hashlib.sha256()
    for code, word in items:
        h.update(f"{code}\t{word}\n".encode())
    return h.hexdigest()


# --- close-g11 --------------------------------------------------------------


@dataclass
class CloseState:
    spec: CloseSpec
    seed: int
    gens: object


def _close_setup(spec: CloseSpec, seed: int, scratch: Path) -> CloseState:
    from fenceinj.generators import build_G

    return CloseState(spec, seed, build_G(spec.n))


def _close_cycle(state: CloseState, tracer: Tracer) -> Cycle:
    closure = sys.modules["fenceinj.closure"]
    started = time.perf_counter()
    result = closure.close(state.gens, workers=1)
    closed = time.perf_counter()
    deque(result.witness_items(), maxlen=0)
    done = time.perf_counter()
    return Cycle(wall_s=done - started, phase1_s=closed - started,
                 phase2_s=[done - closed], attempted=2, outputs=result)


def _close_check(state: CloseState, cycle: Cycle) -> None:
    """Gate one cycle; a second, untimed ``witness_items()`` pass gives the
    digest and the seeded sample, so the timed pass keeps no witness."""
    from fenceinj.closure import evaluate_word
    from fenceinj.fence import encode

    spec, result = state.spec, cycle.outputs
    cycle.outputs = None
    count, levels = len(result), tuple(result.stats.level_sizes)
    if count != spec.count:
        cycle.failures.append(f"closure has {count} elements, want {spec.count}")
    if levels != spec.level_sizes:
        cycle.failures.append(f"level sizes {levels}, want {spec.level_sizes}")
    chosen = set(random.Random(state.seed).sample(range(count),
                                                  min(WITNESS_SAMPLE, count)))
    sample = []

    def stream():
        for i, item in enumerate(result.witness_items()):
            if i in chosen:
                sample.append(item)
            yield item

    digest = witness_digest(stream())
    if digest != spec.digest:
        cycle.failures.append(f"witness digest {digest}, want {spec.digest}")
    for code, word in sample:
        if encode(evaluate_word(word, state.gens)) != code:
            cycle.failures.append(f"witness {word} does not evaluate to {code}")
            break


def close_workload(spec: CloseSpec = FULL_CLOSE) -> Workload:
    return Workload(
        f"close-g{spec.n}",
        "closure engine and witness reconstruction in one process, no disk",
        {"phase1_s": "closure_s", "phase2_s": "witness_s"},
        lambda seed, scratch: _close_setup(spec, seed, scratch),
        _close_cycle, _close_check)


# --- cli-factor-n11 ---------------------------------------------------------


@dataclass
class CliState:
    spec: CliSpec
    scratch: Path
    gens: object
    # (map text, target element, word whose product the target is)
    targets: list[tuple[str, object, object]]
    next_target: int = 0


def _cli_setup(spec: CliSpec, seed: int, scratch: Path) -> CliState:
    from fenceinj.closure import Word, evaluate_word
    from fenceinj.fence import format_map
    from fenceinj.generators import build_G

    gens = build_G(spec.n)
    labels = sorted(gens.labels)
    rng = random.Random(seed)
    targets = []
    for _ in range(TARGETS):
        word = Word(tuple(rng.choice(labels)
                          for _ in range(rng.randint(1, MAX_WORD))))
        target = evaluate_word(word, gens)
        targets.append((format_map(target), target, word))
    return CliState(spec, scratch, gens, targets)


def run_process(cmd: list[str], cwd: Path, env: dict, stdout,
                stderr) -> tuple[int, float, int]:
    """Run one process: (exit code, wall seconds, peak RSS KB of that child).

    Waits in ``os.wait4``, which returns the child's own peak RSS
    (``RUSAGE_CHILDREN`` would give the maximum over every child so far)
    without the polling sleeps of ``Popen.wait(timeout)``.
    """
    started = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=stdout, stderr=stderr, cwd=cwd, env=env)
    killer = threading.Timer(PROCESS_TIMEOUT_S, proc.kill)
    killer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        killer.cancel()
    wall = time.perf_counter() - started
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss


def run_cli(args: list[str], tracer: Tracer, workdir: Path) -> tuple[int, str, str, float, int]:
    """One CLI process: (exit code, stdout, stderr, wall seconds, peak RSS KB).

    Instrumented, it runs through ``cli_traced.py`` and its spans are
    adopted under this call's ``cli.call`` span.
    """
    env = {k: v for k, v in os.environ.items() if k != "FENCEINJ_CACHE_DIR"}
    env["PYTHONPATH"] = str(SRC)
    out_path, err_path, spans_path = (workdir / name for name in
                                      ("call.out", "call.err", "call.spans.json"))
    cmd = [sys.executable, "-m", "fenceinj.cli", *args]
    if tracer.enabled:
        cmd[1:3] = [str(Path(__file__).with_name("cli_traced.py")), str(spans_path)]
    with tracer.span("cli.call") as call, \
            open(out_path, "wb") as out, open(err_path, "wb") as err:
        code, wall, rss = run_process(cmd, workdir, env, out, err)
    if call is not None and spans_path.exists():
        doc = json.loads(spans_path.read_text())
        spans_path.unlink()
        tracer.adopt(doc["spans"], call["id"])
        tracer.counters.update(doc["counters"])
    return code, out_path.read_text(), err_path.read_text(), wall, rss


def _cli_cycle(state: CliState, tracer: Tracer) -> Cycle:
    spec = state.spec
    common = ["--n", str(spec.n), "--gens", "G", "--workers", str(WORKERS),
              "--format", "json"]
    workdir = Path(tempfile.mkdtemp(prefix="cli-", dir=state.scratch))
    cache = workdir / "cache"
    cycle = Cycle(attempted=1 + WARM_CALLS)
    started = time.perf_counter()
    cold = run_cli(["closure", *common, "--cache-dir", str(cache)], tracer, workdir)
    cycle.phase1_s = cold[3]
    sizes = {p.name: p.stat().st_size for p in cache.iterdir()} if cache.is_dir() else {}
    warm = []
    for _ in range(WARM_CALLS):
        text, target, word = state.targets[state.next_target % len(state.targets)]
        state.next_target += 1
        result = run_cli(["factor", *common, "--cache-dir", str(cache),
                          "--map", text], tracer, workdir)
        cycle.phase2_s.append(result[3])
        warm.append((target, word, result))
    cycle.wall_s = time.perf_counter() - started
    shutil.rmtree(workdir)
    cycle.peak_rss_kb = max(r[4] for r in [cold] + [w[2] for w in warm])
    cycle.counts = {
        "artifact_bytes": sum(sizes.values()),
        "closure.bin_bytes": sum(v for k, v in sizes.items() if k.endswith(".bin")),
        "closure.wit_bytes": sum(v for k, v in sizes.items() if k.endswith(".wit")),
    }
    cycle.outputs = (cold, warm)
    return cycle


def _cli_parse(name: str, result, failures: list[str]) -> dict | None:
    code, stdout, stderr, _, _ = result
    if code != 0:
        failures.append(f"{name} exited {code}: {stderr.strip()[-300:]}")
        return None
    try:
        return json.loads(stdout)
    except json.JSONDecodeError:
        failures.append(f"{name} printed no JSON document")
        return None


def _cli_check(state: CliState, cycle: Cycle) -> None:
    from fenceinj.closure import Word, evaluate_word
    from fenceinj.fence import encode

    spec = state.spec
    cold, warm = cycle.outputs
    cycle.outputs = None
    doc = _cli_parse("closure", cold, cycle.failures)
    if doc is not None and (doc.get("count") != spec.count
                            or tuple(doc.get("level_sizes", ())) != spec.level_sizes):
        cycle.failures.append(
            f"cold closure reports {doc.get('count')} elements in levels "
            f"{doc.get('level_sizes')}")
    for target, word, result in warm:
        doc = _cli_parse("factor", result, cycle.failures)
        if doc is None:
            continue
        if not (doc.get("generated") is True and doc.get("verified") is True
                and doc.get("code") == encode(target)):
            cycle.failures.append(f"factor of {doc.get('map')} is not verified")
            continue
        found = Word.parse(doc["word"])
        if evaluate_word(found, state.gens) != target:
            cycle.failures.append(f"word {found} does not evaluate to {doc['map']}")
        elif len(found) > len(word):
            cycle.failures.append(
                f"word {found} is longer than {word}, which also gives {doc['map']}")


def cli_workload(spec: CliSpec = FULL_CLI) -> Workload:
    return Workload(
        f"cli-factor-n{spec.n}",
        "cold closure CLI call, then warm factor calls on its cache",
        {"phase1_s": "cli_cold_s", "phase2_s": "factor_p50_s"},
        lambda seed, scratch: _cli_setup(spec, seed, scratch),
        _cli_cycle, _cli_check)


# --- verify-registry --------------------------------------------------------


@dataclass
class VerifyState:
    spec: VerifySpec
    seed: int
    # claim ids run at each n: the registry's designated ones, in registry
    # order, then any passing-at-seed claim the registry no longer designates
    claims: dict[int, tuple[str, ...]]


def _verify_setup(spec: VerifySpec, seed: int, scratch: Path) -> VerifyState:
    from fenceinj.analysis import claim_registry

    registry = claim_registry()
    claims = {}
    for n, passing in spec.passing.items():
        designated = [c.claim_id for c in registry if n in c.designated_ns]
        claims[n] = tuple(designated + [c for c in passing if c not in designated])
    return VerifyState(spec, seed, claims)


def _verify_cycle(state: VerifyState, tracer: Tracer) -> Cycle:
    analysis = sys.modules["fenceinj.analysis"]
    cycle = Cycle()
    results = []
    other_claims_s = 0.0
    started = time.perf_counter()
    ctx = analysis.VerifyContext(workers=WORKERS, seed=state.seed)
    for n, claim_ids in state.claims.items():
        with tracer.span(f"oracle.enumerate.n{n}"):
            size = len(ctx.universe(n))
        cycle.counts[f"oracle.elements.n{n}"] = size
        results.append((n, "universe", size))
        for claim_id in claim_ids:
            with tracer.span(f"analysis.claim.{claim_id}.n{n}"):
                t0 = time.perf_counter()
                try:
                    report = analysis.run_verification(n, ctx, (claim_id,))
                except ValueError as exc:
                    outcome = ("error", str(exc))
                else:
                    check = next(c for c in report.checks if c.claim_id == claim_id)
                    outcome = (check.status, check.evidence)
                elapsed = time.perf_counter() - t0
            results.append((n, claim_id, outcome))
            if claim_id in CLOSURE_CLAIMS:
                cycle.phase1_s += elapsed
            else:
                other_claims_s += elapsed
    cycle.wall_s = time.perf_counter() - started
    cycle.phase2_s = [other_claims_s]
    cycle.attempted = len(results)
    cycle.outputs = results
    return cycle


def _verify_check(state: VerifyState, cycle: Cycle) -> None:
    spec = state.spec
    for n, claim_id, outcome in cycle.outputs:
        if claim_id == "universe":
            if outcome != spec.elements[n]:
                cycle.failures.append(f"|FI_{n}| = {outcome}, want {spec.elements[n]}")
            continue
        status, evidence = outcome
        expected = claim_id in spec.passing.get(n, ())
        if status == "fail" or status == "error" or (expected and status != "pass"):
            cycle.failures.append(f"{claim_id} at n={n}: {status} ({evidence})")
    cycle.outputs = None


def verify_workload(spec: VerifySpec = FULL_VERIFY) -> Workload:
    return Workload(
        "verify-registry",
        "enumeration oracle, wide-generator closures and pure-Python sweeps",
        {"phase1_s": "verify_closure_s", "phase2_s": "verify_other_s"},
        lambda seed, scratch: _verify_setup(spec, seed, scratch),
        _verify_cycle, _verify_check, warmup_cycles=VERIFY_WARMUP)


WORKLOADS = {w.name: w for w in (close_workload(), cli_workload(), verify_workload())}
