"""Self-test of the benchmark: every workload at a reduced n, and its gates.

Usage, from the repository root: ``python3 perfbench/selftest.py``.

Runs one plain and one instrumented cycle of each workload at n = 7 (the
registry at n = 3 and 5), then shows that the gates reject a wrong witness
digest, a tampered witness stream, a wrong CLI factor word, a failing claim
and a claim that is no longer designated.  Takes a few seconds and
exits non-zero if any case does not behave as stated.
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import sys
from contextlib import contextmanager

from run import OUT, _import_program, layer_metrics
from spans import Tracer, instrument
from workloads import (
    FULL_VERIFY,
    CliSpec,
    CloseSpec,
    VerifySpec,
    cli_workload,
    close_workload,
    verify_workload,
)

G7_LEVELS = (10, 66, 291, 803, 873, 226, 19)
CLOSE7 = CloseSpec(
    7, 2288, G7_LEVELS,
    "59dd361cb184d6dc76a2c8623fa66fceaf8159fb7730279ea6f05ff444f805b2")
CLI7 = CliSpec(7, 2288, G7_LEVELS)
VERIFY35 = VerifySpec(
    elements={n: FULL_VERIFY.elements[n] for n in (3, 5)},
    passing={n: FULL_VERIFY.passing[n] for n in (3, 5)})


def run_cycle(workload, scratch, *, traced=False, tamper=None):
    """One cycle of ``workload``; returns (failures, layer metrics or None)."""
    state = workload.setup(7, scratch)
    tracer = Tracer(run_id="selftest")
    layers = None
    if traced:
        with instrument(tracer):
            cycle = workload.cycle(state, tracer)
        counters = dict(tracer.counters)
        counters.update(cycle.counts)
        layers = layer_metrics(tracer.spans, counters)
    else:
        cycle = workload.cycle(state, tracer)
    if tamper is not None:
        tamper(cycle)
    workload.check(state, cycle)
    return cycle.failures, layers


@contextmanager
def patched(owner, attr, value):
    original = getattr(owner, attr)
    setattr(owner, attr, value)
    try:
        yield
    finally:
        setattr(owner, attr, original)


def main() -> int:
    _import_program()
    import fenceinj.analysis as analysis
    import fenceinj.closure as closure

    scratch = OUT / f"selftest-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    results = []

    def case(name, ok, detail=""):
        results.append(ok)
        print(f"{'ok  ' if ok else 'FAIL'} {name}{': ' + detail if detail else ''}")

    try:
        for workload, layer in ((close_workload(CLOSE7), "closure.witness.s"),
                                (cli_workload(CLI7), "cli.startup.s"),
                                (verify_workload(VERIFY35), "analysis.claim.lemma6.n5.s")):
            failures, _ = run_cycle(workload, scratch)
            case(f"{workload.name} passes its gates", not failures, "; ".join(failures))
            failures, layers = run_cycle(workload, scratch, traced=True)
            case(f"{workload.name} instrumented: {layer} recorded",
                 not failures and layers.get(layer, 0) > 0, "; ".join(failures))

        wrong = dataclasses.replace(CLOSE7, digest="0" * 64)
        failures, _ = run_cycle(close_workload(wrong), scratch)
        case("a wrong witness digest is rejected", any("digest" in f for f in failures))

        items = closure.ClosureResult.witness_items

        def shifted(self):
            codes, words = zip(*items(self))
            yield from zip(codes, words[1:] + words[:1])

        with patched(closure.ClosureResult, "witness_items", shifted):
            failures, _ = run_cycle(close_workload(CLOSE7), scratch)
        case("a tampered witness stream is rejected",
             any("digest" in f for f in failures)
             and any("does not evaluate" in f for f in failures))

        def wrong_word(cycle):
            cold, warm = cycle.outputs
            target, word, (code, stdout, stderr, wall, rss) = warm[0]
            doc = json.loads(stdout)
            doc["word"] = "gamma" if doc["word"] != "gamma" else "alpha_1"
            warm[0] = (target, word, (code, json.dumps(doc), stderr, wall, rss))

        failures, _ = run_cycle(cli_workload(CLI7), scratch, tamper=wrong_word)
        case("a factor word that does not evaluate to its map is rejected",
             any("does not evaluate" in f for f in failures))

        def never_generates(gens, universe, workers=1):
            return closure.GenerationCheck(gens.n, False, (0,), (), None)

        with patched(closure, "verify_generates", never_generates):
            failures, _ = run_cycle(verify_workload(VERIFY35), scratch)
        case("a failing claim is rejected",
             any(f.startswith("generates-Gn") for f in failures))

        dropped = tuple(dataclasses.replace(c, designated_ns=())
                        if c.claim_id == "lemma6" else c for c in analysis._REGISTRY)
        with patched(analysis, "_REGISTRY", dropped):
            failures, _ = run_cycle(verify_workload(VERIFY35), scratch)
        case("a claim that is no longer designated is rejected",
             any(f.startswith("lemma6") and "skipped" in f for f in failures))
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    print(f"{sum(results)} of {len(results)} self-test cases behave as stated")
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
