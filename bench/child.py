"""Workload processes for the benchmark, each started in a fresh interpreter.

Every mode that the benchmark times samples the reference kernel in its own
process (speed.py) from its first line to its last, and hands the samples
back with its result.

    child.py solve --warm N,N,... --trace 0|1 --seconds S
        Imports the library, makes one call at each listed n (set-up), prints
        "ready", then reads one JSON job line from stdin and prints one JSON
        result line.  An empty job line (a set-up probe) returns only the
        reference samples.
    child.py cli REF SPANS ARG...
        Runs the command line in-process; writes the reference samples to REF
        and, unless SPANS is "-", traces and writes the spans to SPANS.
    child.py width REF SPANS
        The library call poset_width(build_hasse(12, Q)), which the command
        line cannot reach; prints the width.
    child.py import REF
        Imports partition_posets.cli and nothing else.
    child.py probe SPANS
        Traced layer probes: q_rank_profile(120) cold then warm, and each
        structural check of verify_structure(10) run singly.
"""

from __future__ import annotations

import json
import sys
import time
from array import array
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import speed  # noqa: E402  (benchmark module beside this file)

CROSSOVER_ALGOS = ("brute", "dp", "qenum", "pruned", "minfast", "corollary")


def _warm_weights(n: int) -> list[int]:
    # fixed, seed-independent weights; the first call at this n fills any
    # lazily built tables the workload's calls at this n would use
    import random

    rng = random.Random(n)
    return [rng.randint(1, 1000) for _ in range(n)]


def _solve_once(core, solver, errors, raw):
    """One timed operation; returns (start, seconds, outcome)."""
    t0 = time.perf_counter()
    try:
        sol = solver.solve(core.normalize_instance(raw), "auto")
    except errors.TooLarge:
        return t0, time.perf_counter() - t0, ["TooLarge"]
    except Exception as exc:  # every other failure is counted, not fatal
        return t0, time.perf_counter() - t0, ["exception", repr(exc)]
    dt = time.perf_counter() - t0
    if sol is None:
        return t0, dt, ["exception", "auto returned None"]
    outcome = ["ok", sol.delta, sol.abs_delta, list(sol.subset.indices), sol.algorithm,
               sol.nodes_visited]
    return t0, dt, outcome


def _pass(core, solver, errors, instances, first=None, tracer=None):
    """One closed-loop pass over the instances, in order.

    Returns start times, seconds and [index, outcome] pairs.  Outcomes equal
    to the same instance's outcome in ``first`` (an earlier pass) are left
    out, so memory stays flat however many passes run.
    """
    starts, seconds, outcomes = array("d"), array("d"), []
    for i, raw in enumerate(instances):
        if tracer is not None:
            tracer.op = f"solve:{i}"
        t0, dt, outcome = _solve_once(core, solver, errors, raw)
        starts.append(t0)
        seconds.append(dt)
        if first is None or first[i] != outcome:
            outcomes.append([i, outcome])
    return {"t0": starts, "dt": seconds, "outcomes": outcomes}


def _crossover(core, solver, errors, instances):
    """Each explicit algorithm on every instance its guard admits."""
    rows = []
    for i, raw in enumerate(instances):
        inst = core.normalize_instance(raw)
        for algo in CROSSOVER_ALGOS:
            t0 = time.perf_counter()
            try:
                sol = solver.solve(inst, algo)
            except (errors.TooLarge, errors.TooSmall):
                continue
            dt = time.perf_counter() - t0
            rows.append([i, algo, dt, None if sol is None else sol.abs_delta])
    return rows


def _timed_passes(core, solver, errors, job: dict, trace: bool, seconds: float) -> dict:
    import resource

    instances = job["instances"]
    if not trace:
        start = time.perf_counter()
        passes = [_pass(core, solver, errors, instances)]
        first = [outcome for _, outcome in passes[0]["outcomes"]]
        while time.perf_counter() - start < seconds:
            passes.append(_pass(core, solver, errors, instances, first))
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        return {"passes": passes, "maxrss_kb": rss}

    import tracing

    # the first untraced pass warms up; the overhead compares the traced pass
    # with the untraced pass after it
    tracer = tracing.Tracer()
    passes = [_pass(core, solver, errors, instances)]
    tracer.install()
    passes.append(_pass(core, solver, errors, instances, tracer=tracer))
    tracer.uninstall()
    first = [outcome for _, outcome in passes[0]["outcomes"]]
    passes.append(_pass(core, solver, errors, instances, first))
    envelope = _pass(core, solver, errors, job["envelope"])
    return {"passes": passes, "envelope": envelope, "spans": tracer.spans,
            "counts": tracer.counts}


def solve_main(argv: list[str]) -> int:
    warm = [int(x) for x in argv[argv.index("--warm") + 1].split(",")]
    trace = argv[argv.index("--trace") + 1] == "1"
    seconds = float(argv[argv.index("--seconds") + 1])
    log = speed.SpeedLog()
    result: dict = {}
    job = None
    with speed.sampling(log):
        from partition_posets import core, errors, solver

        for n in warm:
            solver.solve(core.normalize_instance(_warm_weights(n)), "auto")
        print("ready", flush=True)
        line = sys.stdin.readline()
        if line.strip():
            job = json.loads(line)
            result = _timed_passes(core, solver, errors, job, trace, seconds)
    if trace and job is not None:
        result["crossover"] = _crossover(core, solver, errors, job["instances"])
    result["ref"] = log.samples
    print(json.dumps(result, default=list))
    return 0


def _traced(spans_path: str, op: str):
    """A started tracer when spans_path is not "-", else None."""
    if spans_path == "-":
        return None
    import tracing

    tracer = tracing.Tracer()
    tracer.install()
    tracer.op = op
    return tracer


def _finish(ref_path: str, log, spans_path: str, tracer) -> None:
    sys.stdout.flush()
    if tracer is not None:
        tracer.uninstall()
        Path(spans_path).write_text(json.dumps({"spans": tracer.spans, "counts": tracer.counts}))
    Path(ref_path).write_text(json.dumps(log.samples))


def cli_main(argv: list[str]) -> int:
    ref, spans, args = argv[0], argv[1], argv[2:]
    log = speed.SpeedLog()
    with speed.sampling(log):
        from partition_posets import cli

        tracer = _traced(spans, "cli:" + " ".join(args))
        try:
            return cli.main(args)
        finally:
            _finish(ref, log, spans, tracer)


def width_main(argv: list[str]) -> int:
    ref, spans = argv
    log = speed.SpeedLog()
    with speed.sampling(log):
        from partition_posets import poset

        tracer = _traced(spans, "lib:poset_width")
        print(poset.poset_width(poset.build_hasse(12, poset.PosetKind.Q)))
        _finish(ref, log, spans, tracer)
    return 0


def import_main(argv: list[str]) -> int:
    log = speed.SpeedLog()
    with speed.sampling(log):
        import partition_posets.cli  # noqa: F401
    Path(argv[0]).write_text(json.dumps(log.samples))
    return 0


def probe_main(argv: list[str]) -> int:
    import tracing

    from partition_posets import counting, poset

    tracer = tracing.Tracer()
    tracer.install()
    for op in ("probe:cold", "probe:warm"):
        tracer.op = op
        counting.q_rank_profile(120)
    for check in poset.CHECKS:
        tracer.op = f"probe:{check}"
        results = poset.verify_structure(10, [check])
        if not all(r.passed for r in results):
            print(f"check {check} failed: {results}", file=sys.stderr)
            return 1
    tracer.uninstall()
    Path(argv[0]).write_text(json.dumps({"spans": tracer.spans, "counts": tracer.counts}))
    return 0


if __name__ == "__main__":
    modes = {"solve": solve_main, "cli": cli_main, "width": width_main,
             "import": import_main, "probe": probe_main}
    sys.exit(modes[sys.argv[1]](sys.argv[2:]))
