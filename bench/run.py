"""Benchmark for partition-posets.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see bench/README.md for why each exists):
    solve-hard   instances without a perfect partition at n = 17..21, where
                 auto falls through both certificates into the pruned ascent
    solve-easy   2002 small instances at n = 3..64 where a certificate, an
                 early parity stop or the DP oracle answers in well under 1 ms
    structure    a fixed script of fresh command-line processes and one
                 library call: counting, Hasse DAGs, verification

Each workload runs as one closed-loop client: the next operation starts
when the previous answer is back.  Inputs are generated from --seed; every
answer is checked outside the timed section.  Times are scaled by a
reference kernel run beside them (speed.py).  The last line of standard
output is one JSON object: end-to-end metrics with --trace 0, per-layer
metrics from a traced run with --trace 1.  Names and units come from
BENCHMARK.json at the repository root.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import re
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from collections import Counter, defaultdict
from pathlib import Path

import families as fam
import speed
import tracing

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
CHILD = str(Path(__file__).resolve().parent / "child.py")
TRACE_DIR = ROOT / ".bench_trace"
PY = sys.executable
ENV = {**os.environ, "PYTHONPATH": str(SRC)}
SETUP_SAMPLES = 5
TIME_LIMIT = 170.0
FAIL_CLASSES = ("TooLarge", "exception", "wrong_answer", "exit_nonzero")
SOLVER_FNS = ("solve", "solve_min_fastpath", "solve_corollary", "solve_pruned",
              "solve_dp", "solve_q_enum", "solve_brute")
AUTO_PATHS = ("minfast", "corollary", "pruned", "dp")


def plan(family: str, sizes, perfect: bool | None = None) -> list[tuple]:
    """Plan entries (family, n, perfect): perfect is whether the instance
    must (True) or must not (False) have a perfect partition, or None."""
    return [(family, n, perfect) for n in sizes]


# solve-hard: phase-transition instances across the n = 20 table cap, plus
# the 63-bit and parity-gap families at the cheaper sizes.  Two instances at
# n = 21 halve the weight of either one's own cost, which varies by up to 10 %
# from seed to seed.  Four instances at n = 17, three at 18 and four above
# keep the median latency on the middle n = 18 instance, however many passes
# run.
HARD_PLAN = (plan("phase", (17, 17, 18, 19, 20, 21, 21), False)
             + plan("boundary63", (17, 18), False) + plan("parity_gap", (17, 18), False))
# Traced runs only: inside the documented bounds, refused today by the DP cap.
ENVELOPE_PLAN = plan("envelope", (25, 28, 30, 32), False)
# Share of `uniform` draws without a perfect partition, per n (600 draws up to
# n = 16, 300 above).  Each seed gets exactly the expected number of them:
# those instances sweep Q(n)/2 and make solve-easy's tail, so leaving their
# count to chance would move op_p99_ms by 20 % from seed to seed.
UNIFORM_NONPERFECT = {3: .995, 4: .993, 5: .978, 6: .977, 7: .948, 8: .935, 9: .843,
                      10: .745, 11: .563, 12: .342, 13: .155, 14: .037}
# solve-easy: n = 21..24 is left to solve-hard, because there the brute oracle
# costs 0.15-1.2 s per instance and the qenum crossover row 4-12 s.  The
# certificate families stop at n = 14: without a parity stop the explicit
# pruned crossover row sweeps Q(n)/2, 1.7 s per instance at n = 20.
EASY_PLAN = (
    [("uniform", n, k >= round(39 * UNIFORM_NONPERFECT.get(n, 0)))
     for n in range(3, 21) for k in range(39)]
    + plan("uniform", [25 + i % 40 for i in range(300)])
    + plan("dominant", [3 + i % 12 for i in range(150)])
    + plan("dominant", [25 + i % 40 for i in range(150)])
    + plan("superincreasing", [3 + i % 12 for i in range(300)])
    + plan("planted", [4 + 2 * (i % 9) for i in range(200)])
    + plan("planted", [26 + 2 * (i % 20) for i in range(200)])
)
# structure: fixed command script; the solve files are generated per seed,
# one per auto path (parity stop, full sweep, dp, minfast, corollary).  With
# seven quick steps out of twelve, the median step latency falls inside that
# group instead of on a single step.
SOLVE_FILES = (plan("uniform", (20,)) + plan("phase", (16,)) + plan("uniform", (48,))
               + plan("planted", (18,)) + plan("dominant", (40,))
               + plan("superincreasing", (12,)))
CLI_STEPS = [
    ("profile_120", ["profile", "120"]),
    ("profile_12", ["profile", "12"]),
    ("hasse_16", ["hasse", "16"]),
    ("hasse_14_P", ["hasse", "14", "--poset", "P"]),
    ("verify_10", ["verify", "10"]),
]
VERIFY_NAMES = {"covers", "iso", "symmetry", "chains", "dominance", "graded",
                "profiles", "solvers"}


class Run:
    """State of one benchmark invocation: deadline, scratch dir, failures."""

    def __init__(self, workload: str, seed: int, seconds: float, trace: bool, tmp: Path):
        self.workload, self.seed, self.seconds, self.trace, self.tmp = (
            workload, seed, seconds, trace, tmp)
        self.start = time.perf_counter()
        self.rng = random.Random(f"{workload}:{seed}")
        self.fails: Counter = Counter()
        self.attempted = 0
        self.failed = 0
        self.probed = 0  # operations outside the workload's own, traced runs only
        self.kernel_s: list[float] = []  # reference kernel samples of the timed process
        self.record: dict = {"workload": workload, "seed": seed}

    def remaining(self) -> float:
        left = TIME_LIMIT - (time.perf_counter() - self.start)
        if left <= 0:
            raise TimeoutError("benchmark time limit exceeded")
        return left

    def fail(self, cls: str, what: str, counted: bool = True) -> None:
        """Count a failure; the first few are described on standard error."""
        self.fails[cls] += 1
        if counted:
            self.failed += 1
        if sum(self.fails.values()) <= 10:
            print(f"failure ({cls}): {what}", file=sys.stderr)


# ---------------------------------------------------------------------------
# instances and oracles


def oracle_abs_delta(raw: list[int]) -> int:
    """solve_brute up to n = 24, else solve_dp, else (the envelope) the
    benchmark's own meet-in-the-middle."""
    from partition_posets import TooLarge, normalize_instance, solve_brute, solve_dp

    inst = normalize_instance(raw)
    if inst.n <= 24:
        return solve_brute(inst).abs_delta
    try:
        return solve_dp(inst).abs_delta
    except TooLarge:
        return fam.mitm_abs_delta(raw)


def make_instances(run: Run, entries, hard: bool = False):
    """Weights, family names and oracle optima for plan entries, in a
    seeded random order.  Hard instances admit no certificate."""
    weights, names, optima = [], [], []
    for family, n, perfect in entries:
        while True:
            w = fam.FAMILIES[family](run.rng, n)
            if hard and fam.certificate_fires(w):
                continue
            opt = oracle_abs_delta(w)
            if perfect is None or (opt == sum(w) % 2) == perfect:
                break
        weights.append(w)
        names.append(family)
        optima.append(opt)
    order = list(range(len(entries)))
    run.rng.shuffle(order)
    return ([weights[i] for i in order], [names[i] for i in order],
            [optima[i] for i in order])


def check_answer(raw: list[int], opt: int, outcome: list) -> str | None:
    """Failure class of one solve outcome, or None when it is right."""
    status = outcome[0]
    if status != "ok":
        return status
    delta, abs_delta, subset = outcome[1], outcome[2], outcome[3]
    n = len(raw)
    if any(not 1 <= i <= n for i in subset) or subset != sorted(set(subset)):
        return "wrong_answer"
    if fam.subset_delta(raw, subset) != delta or abs(delta) != abs_delta or abs_delta != opt:
        return "wrong_answer"
    return None


# ---------------------------------------------------------------------------
# processes


def start_solver(run: Run, warm: list[int], trace: bool):
    """Start a solve worker; returns (process, seconds until it was ready)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [PY, CHILD, "solve", "--warm", ",".join(map(str, warm)), "--trace",
         "1" if trace else "0", "--seconds", str(run.seconds)],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, cwd=ROOT, env=ENV)
    watchdog = threading.Timer(run.remaining(), proc.kill)
    watchdog.start()
    try:
        line = proc.stdout.readline()
    finally:
        watchdog.cancel()
    ready = time.perf_counter() - t0
    if line.strip() != "ready":
        proc.kill()
        proc.wait()
        raise RuntimeError("solve worker failed during set-up")
    return proc, ready


def finish(run: Run, proc: subprocess.Popen, job: str) -> dict:
    try:
        out, _ = proc.communicate(job, timeout=run.remaining())
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    if proc.returncode != 0:
        raise RuntimeError(f"solve worker exited with {proc.returncode}")
    return json.loads(out.splitlines()[-1]) if out.strip() else {}


def run_proc(run: Run, argv: list[str]):
    """Run a process to completion; returns (start, raw seconds, process).

    Standard output goes to a file, not a pipe: a timer signal that cuts a
    large write to a pipe short has been seen to lose the rest of the output.
    """
    out_path = run.tmp / "stdout.txt"
    with open(out_path, "w", encoding="ascii") as out:
        t0 = time.perf_counter()
        proc = subprocess.run(argv, stdout=out, stderr=subprocess.PIPE, text=True, cwd=ROOT,
                              env=ENV, timeout=run.remaining())
        dt = time.perf_counter() - t0
    proc.stdout = out_path.read_text(encoding="ascii")
    return t0, dt, proc


def import_seconds(run: Run) -> float:
    code = ("import time; t = time.perf_counter(); import partition_posets; "
            "print(time.perf_counter() - t)")
    samples = []
    for _ in range(SETUP_SAMPLES):
        _, _, proc = run_proc(run, [PY, "-c", code])
        samples.append(float(proc.stdout))
    return statistics.median(samples)


def children_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024


def quantile(values: list[float], q: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def empty_layers() -> dict[str, float]:
    """Per-layer metrics a workload does not exercise read 0."""
    return defaultdict(float)


# ---------------------------------------------------------------------------
# solve workloads


def end_to_end(rounds: list[list[float]], good: int, setup: list[float],
               rss_mb: float) -> dict[str, float]:
    """End-to-end metrics from scaled per-operation seconds grouped by pass.
    Latency percentiles are taken within each pass, then the median over
    passes is reported: with 11 or 12 operations a pass, a percentile over
    the whole run would read the single slowest operation of the run."""
    return {
        "ops_per_s": good / sum(sum(r) for r in rounds),
        "script_s": statistics.median(sum(r) for r in rounds),
        "op_p50_ms": 1000 * statistics.median(quantile(r, 50) for r in rounds),
        "op_p99_ms": 1000 * statistics.median(quantile(r, 99) for r in rounds),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": rss_mb,
    }


def scaled_pass(p: dict, log: speed.SpeedLog) -> list[float]:
    return [log.scaled(t0, dt) for t0, dt in zip(p["t0"], p["dt"])]


def pass_outcomes(p: dict, first: list | None) -> list:
    """Every outcome of a pass; one left out by the worker equals ``first``'s."""
    out = list(first) if first else [None] * len(p["dt"])
    for i, outcome in p["outcomes"]:
        out[i] = outcome
    return out


def solve_workload(run: Run, plan, hard: bool) -> dict[str, float]:
    weights, names, optima = make_instances(run, plan, hard)
    warm = sorted({len(w) for w in weights})
    if not run.trace:
        setup = []
        for k in range(SETUP_SAMPLES):
            t0 = time.perf_counter()
            proc, ready = start_solver(run, warm, False)
            last = k == SETUP_SAMPLES - 1
            res = finish(run, proc, json.dumps({"instances": weights}) + "\n" if last else "\n")
            setup.append(speed.SpeedLog(res["ref"]).scaled(t0, ready))
        log = speed.SpeedLog(res["ref"])
        good = 0
        first = None
        for p in res["passes"]:
            outcomes = pass_outcomes(p, first)
            first = first or outcomes
            for i, outcome in enumerate(outcomes):
                run.attempted += 1
                cls = check_answer(weights[i], optima[i], outcome)
                if cls is None:
                    good += 1
                else:
                    run.fail(cls, f"instance {weights[i]}: {outcome}")
        run.kernel_s = [d for _, _, d in res["ref"]]
        rss_mb = res["maxrss_kb"] / 1024
        return end_to_end([scaled_pass(p, log) for p in res["passes"]], good, setup, rss_mb)

    envelope, _, env_optima = make_instances(run, ENVELOPE_PLAN if hard else [], hard)
    proc, _ = start_solver(run, warm, True)
    res = finish(run, proc, json.dumps({"instances": weights, "envelope": envelope}) + "\n")
    m = empty_layers()
    paths: Counter = Counter()
    nodes, qhalf = defaultdict(int), defaultdict(int)
    plain1, traced, plain2 = res["passes"]
    first = pass_outcomes(plain1, None)
    for label, outcomes, w, opt in (
            ("plain", first + pass_outcomes(plain2, first), weights + weights, optima + optima),
            ("traced", pass_outcomes(traced, None), weights, optima),
            ("envelope", pass_outcomes(res["envelope"], None), envelope, env_optima)):
        for i, outcome in enumerate(outcomes):
            if label == "envelope":
                run.probed += 1
            else:
                run.attempted += 1
            cls = check_answer(w[i], opt[i], outcome)
            if cls is not None:
                run.fail(cls, f"{label} instance {w[i]}: {outcome}", label != "envelope")
            if label == "traced" and outcome[0] == "ok":
                algo = outcome[4]
                paths[algo] += 1
                if algo == "pruned":
                    for key in ("", "." + names[i]):
                        nodes[key] += outcome[5]
                        qhalf[key] += fam.q_size(len(w[i])) // 2
    for i, algo, dt, value in res["crossover"]:
        run.attempted += 1
        m[f"solver.algo.{algo}.s"] += dt
        if value is not None and value != optima[i]:
            run.fail("wrong_answer", f"{algo} gave {value} on {weights[i]}, oracle {optima[i]}")
    solved = sum(paths.values())
    for algo in AUTO_PATHS:
        m[f"solver.auto.path_share.{algo}"] = paths[algo] / solved if solved else 0.0
    m["solver.pruned.nodes_visited"] = nodes[""]
    for key in nodes:
        m["solver.pruned.visit_ratio" + key] = nodes[key] / qhalf[key]
    m["workload.perfect_share"] = sum(
        opt == sum(w) % 2 for w, opt in zip(weights, optima)) / len(weights)
    log = speed.SpeedLog(res["ref"])
    m["trace.overhead_ratio"] = sum(scaled_pass(traced, log)) / sum(scaled_pass(plain2, log))
    add_span_metrics(m, res["spans"], res["counts"])
    m["cli.import_s"] = import_seconds(run)
    run.record.update(spans=res["spans"], crossover=[
        [len(weights[i]), names[i], algo, dt] for i, algo, dt, _ in res["crossover"]])
    return m


def add_span_metrics(m: dict, spans: list, counts: dict) -> None:
    rows = tracing.self_times(spans)
    for fn in SOLVER_FNS:
        m[f"solver.{fn}.calls"] = rows[f"solver.{fn}"]["calls"]
        m[f"solver.{fn}.self_s"] = rows[f"solver.{fn}"]["self"]
    m["core.normalize_instance.calls"] = rows["core.normalize_instance"]["calls"]
    m["core.normalize_instance.self_s"] = rows["core.normalize_instance"]["self"]
    for fn in ("build_hasse", "poset_height", "poset_width"):
        m[f"poset.{fn}.s"] = rows[f"poset.{fn}"]["total"]
    attempts = hits = 0
    for _op, _sid, _parent, name, _t0, _t1, none in spans:
        if name in ("solver.solve_min_fastpath", "solver.solve_corollary"):
            attempts += 1
            hits += not none
    m["solver.certificate.attempts"] = attempts
    m["solver.certificate.hits"] = hits
    m["solver.certificate.hit_ratio"] = hits / attempts if attempts else 0.0
    m["poset.membership.calls"] = counts.get("poset.membership", 0)


# ---------------------------------------------------------------------------
# structure workload


def check_step(step: str, proc: subprocess.CompletedProcess, expect) -> str | None:
    if proc.returncode != 0:
        return "exit_nonzero"
    out = proc.stdout
    if step.startswith("profile"):
        kv = dict(line.split(": ", 1) for line in out.splitlines())
        size, counts = int(kv["size"]), [int(x) for x in kv["profile"].split()]
        return None if size == expect and sum(counts) == size else "wrong_answer"
    if step.startswith("hasse"):
        nodes = sum(line.count('";') for line in out.splitlines() if "rank=same" in line)
        edges = sum(" -> " in line for line in out.splitlines())
        return None if (nodes, edges) == expect else "wrong_answer"
    if step == "verify_10":
        names = set()
        for line in out.splitlines():
            match = re.fullmatch(r"(\w+): (PASS|SKIP)( \(.*\))?", line)
            if match is None:
                return "wrong_answer"
            names.add(match.group(1))
        return None if names == expect else "wrong_answer"
    if step.startswith("solve_json"):
        raw, opt = expect
        got = json.loads(out)
        ok = (got["n"] == len(raw) and got["total"] == sum(raw)
              and check_answer(raw, opt, ["ok", got["delta"], got["abs_delta"],
                                          got["subset"]]) is None)
        return None if ok else "wrong_answer"
    return None if int(out) == expect else "wrong_answer"


def structure_steps(run: Run, weights, optima):
    """(step name, command arguments, expected value) for the fixed script;
    the library call has no command arguments."""
    expect = {
        "profile_120": fam.q_size(120), "profile_12": fam.q_size(12),
        "hasse_16": fam.hasse_counts(16, "Q"), "hasse_14_P": fam.hasse_counts(14, "P"),
        "verify_10": VERIFY_NAMES,
    }
    steps = [(name, args, expect[name]) for name, args in CLI_STEPS]
    for k, (w, opt) in enumerate(zip(weights, optima)):
        path = run.tmp / f"instance{k}.txt"
        path.write_text(f"# seed {run.seed}, file {k}\n" + " ".join(map(str, w)) + "\n")
        steps.append((f"solve_json_{k}", ["solve", str(path), "--json"], (w, opt)))
    steps.append(("lib_width_q12", None, fam.q_peak_level(12)))
    return steps


def structure_script(run: Run, steps, traced: bool):
    """(step name, argv, expected value, spans path) for every step.  Each
    step runs through child.py, which samples the reference kernel."""
    ref = str(run.tmp / "ref.json")
    out = []
    for name, args, exp in steps:
        spans = str(run.tmp / f"spans-{name}.json") if traced else "-"
        mode = ["width", ref, spans] if args is None else ["cli", ref, spans, *args]
        out.append((name, [PY, CHILD, *mode], exp, spans))
    return out


def run_timed(run: Run, argv: list[str]):
    """Run a child.py process that writes its reference samples to the path
    in argv[3]; returns (scaled seconds, process)."""
    ref = Path(argv[3])
    ref.unlink(missing_ok=True)
    t0, dt, proc = run_proc(run, argv)
    if not ref.exists():
        return dt, proc
    return speed.SpeedLog(json.loads(ref.read_text())).scaled(t0, dt), proc


def run_script(run: Run, script):
    """One pass over the script; returns scaled seconds and output per step."""
    wall, stdout = {}, {}
    for name, argv, exp, _spans in script:
        run.attempted += 1
        wall[name], proc = run_timed(run, argv)
        cls = check_step(name, proc, exp)
        if cls is not None:
            run.fail(cls, f"step {name} exited {proc.returncode}: "
                          f"{proc.stdout[:300]!r} {proc.stderr[-300:]!r}")
        stdout[name] = proc.stdout
    return wall, stdout


def structure_workload(run: Run) -> dict[str, float]:
    weights, _, optima = make_instances(run, SOLVE_FILES)
    steps = structure_steps(run, weights, optima)
    if not run.trace:
        script = structure_script(run, steps, False)
        setup, rounds = [], []
        for _ in range(SETUP_SAMPLES):
            dt, proc = run_timed(run, [PY, CHILD, "import", str(run.tmp / "ref.json")])
            if proc.returncode != 0:
                raise RuntimeError("cannot import partition_posets.cli")
            setup.append(dt)
        t_start = time.perf_counter()
        while not rounds or time.perf_counter() - t_start < run.seconds:
            rounds.append(list(run_script(run, script)[0].values()))
        return end_to_end(rounds, run.attempted - run.failed, setup, children_peak_rss_mb())

    m = empty_layers()
    traced = structure_script(run, steps, True)
    wall, stdout = run_script(run, structure_script(run, steps, False))
    twall, _ = run_script(run, traced)
    m["trace.overhead_ratio"] = sum(twall.values()) / sum(wall.values())
    m["cli.hasse.dot_bytes"] = len(stdout["hasse_16"].encode())
    probe_spans = str(run.tmp / "spans-probe.json")
    run.attempted += 1
    _, _, proc = run_proc(run, [PY, CHILD, "probe", probe_spans])
    if proc.returncode != 0:
        run.fail("exit_nonzero", f"layer probe: {proc.stderr[-300:]!r}")
    spans, counts = [], Counter()
    for path in [s for *_, s in traced] + [probe_spans]:
        if os.path.exists(path):
            data = json.loads(Path(path).read_text())
            spans += data["spans"]
            counts.update(data["counts"])
    add_span_metrics(m, spans, counts)
    by_op: dict[str, float] = defaultdict(float)
    for op, _sid, _parent, name, t0, t1, _none in spans:
        if name in ("cli.main", "counting.q_rank_profile", "poset.verify_structure"):
            by_op[op] += t1 - t0
    for name, args, _exp in steps:
        if args is not None:
            key = "cli.solve_json.s" if name.startswith("solve_json") else f"cli.{name}.s"
            m[key] += by_op["cli:" + " ".join(args)]
    m["counting.q_rank_profile.cold_s"] = by_op["probe:cold"]
    m["counting.q_rank_profile.warm_s"] = by_op["probe:warm"]
    for check in ("covers", "iso", "symmetry", "chains", "dominance", "graded"):
        m[f"poset.verify_structure.{check}.s"] = by_op[f"probe:{check}"]
    paths: Counter = Counter()
    nodes = qhalf = 0
    for k, w in enumerate(weights):
        got = json.loads(stdout[f"solve_json_{k}"])
        paths[got["algo"]] += 1
        if got["algo"] == "pruned":
            nodes += got["nodes_visited"]
            qhalf += fam.q_size(len(w)) // 2
    for algo in AUTO_PATHS:
        m[f"solver.auto.path_share.{algo}"] = paths[algo] / len(weights)
    m["solver.pruned.nodes_visited"] = nodes
    m["solver.pruned.visit_ratio"] = nodes / qhalf if qhalf else 0.0
    m["workload.perfect_share"] = sum(
        opt == sum(w) % 2 for w, opt in zip(weights, optima)) / len(weights)
    m["cli.import_s"] = import_seconds(run)
    run.record.update(spans=spans)
    return m


# ---------------------------------------------------------------------------


WORKLOADS = {
    "solve-hard": lambda run: solve_workload(run, HARD_PLAN, True),
    "solve-easy": lambda run: solve_workload(run, EASY_PLAN, False),
    "structure": structure_workload,
}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "partition_posets" / "__init__.py").is_file():
        print(f"error: no library sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import partition_posets

    if Path(partition_posets.__file__).resolve().parent != SRC / "partition_posets":
        print("error: partition_posets imported from outside this checkout", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    # a terminated run still stops its children and removes its scratch files
    signal.signal(signal.SIGTERM, lambda _sig, _frame: sys.exit(1))
    # every process of the run shares one CPU with the reference kernel (speed.py)
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    tmp = Path(tempfile.mkdtemp(prefix=".bench-tmp-", dir=ROOT))
    try:
        run = Run(args.workload, args.seed, args.seconds, bool(args.trace), tmp)
        metrics = WORKLOADS[args.workload](run)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    if run.trace:
        total = run.attempted + run.probed
        for cls in FAIL_CLASSES:
            metrics[f"fail.{cls}"] = run.fails[cls]
        metrics["fail_ratio"] = sum(run.fails.values()) / total
        TRACE_DIR.mkdir(exist_ok=True)
        run.record["metrics"] = metrics
        (TRACE_DIR / f"{args.workload}-seed{args.seed}.json").write_text(json.dumps(run.record))
    section = spec["per_layer" if run.trace else "end_to_end"]
    unknown = set(metrics) - {m["name"] for m in section}
    if unknown:
        raise KeyError(f"metrics missing from BENCHMARK.json: {sorted(unknown)}")
    result = {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in section}
    if run.kernel_s:
        print(f"reference kernel in the solve worker: median "
              f"{1000 * statistics.median(run.kernel_s):.3f} ms over {len(run.kernel_s)} "
              f"samples; times are scaled to {1000 * speed.NOMINAL_S:g} ms")
    for name, row in result.items():
        print(f"{name:44s} {row['value']:.6g} {row['unit']}")
    print(json.dumps({"correct": run.failed == 0, "attempted": run.attempted,
                      "failed": run.failed, "metrics": result}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
