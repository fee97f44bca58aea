"""Command-line interface.

Subcommands: ``solve`` an instance file, ``profile`` a poset's exact rank
structure, ``hasse`` export a cover DAG as deterministic DOT, and ``verify``
run the structural / counting / solver cross-checks.  Exit codes: 0 success,
1 verification failure, 2 usage, parse, or guard error, 3 internal error (an
unexpected exception, reported in one line instead of a traceback).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import TYPE_CHECKING

from . import counting, solver
from .core import PosetKind, longest_chain, normalize_instance
from .errors import EmptyInput, Overflow, ParseError, PartitionPosetsError

if TYPE_CHECKING:
    from .poset import HasseDag

# .poset and numpy are imported by the commands that build numpy tables
# (hasse and verify), so solve and profile start without them; profile's
# height cross-check (n <= 12) is core's pure-Python longest chain, and
# solve imports numpy only for its delta tables and half sums


def read_instance_file(path: str) -> list[int]:
    """Whitespace-separated nonnegative decimal integers; '#' lines are comments."""
    try:
        text = Path(path).read_text(encoding="ascii")
    except FileNotFoundError:
        raise ParseError(f"no such file: {path}") from None
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read {path}: {exc}") from None
    values = []
    for line in text.splitlines():
        if line.lstrip().startswith("#"):
            continue
        for tok in line.split():
            if not tok.isdigit():
                raise ParseError(f"not a nonnegative integer: {tok!r}")
            digits = tok.lstrip("0") or "0"
            try:
                values.append(int(digits))
            except ValueError:  # more digits than int() converts: far past 2**63
                raise Overflow(f"weight 10**{len(digits) - 1} or more does not fit in 63 bits") from None
    if not values:
        raise EmptyInput(f"no weights found in {path}")
    return values


def _emit(payload: dict, as_json: bool) -> None:
    """One JSON line, or one ``key: value`` line per field (yes/no for
    booleans, lists space-separated)."""
    if as_json:
        print(json.dumps(payload))
        return
    for key, value in payload.items():
        if isinstance(value, bool):
            value = "yes" if value else "no"
        elif isinstance(value, (list, tuple)):
            value = " ".join(str(x) for x in value)
        print(f"{key}: {value}")


def _cmd_solve(args: argparse.Namespace) -> int:
    raw = read_instance_file(args.file)
    inst = normalize_instance(raw)
    sol = solver.solve(inst, args.algo)
    if sol is None:
        payload = {"n": inst.n, "total": inst.total, "algo": args.algo, "fired": False}
        _emit(payload, args.json)
        if not args.json:
            print(f"note: {args.algo} produced no certificate; try --algo auto")
        return 0
    payload = {
        "n": inst.n,
        "total": inst.total,
        "algo": sol.algorithm,
        "abs_delta": sol.abs_delta,
        "delta": sol.delta,
        "subset": list(sol.subset.indices),
        "nodes_visited": sol.nodes_visited,
        "optimal": True,  # every solver is exact
    }
    _emit(payload, args.json)
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    kind = PosetKind(args.poset)
    n = args.n
    if kind is PosetKind.P:
        profile = counting.p_rank_profile(n)
        size = 1 << n
        height = counting.height_formula(n, kind)
    else:
        profile = counting.q_rank_profile(n)
        size = counting.q_size(n)
        height = counting.height_formula(n, kind) if n >= 3 else None
    checks = counting.profile_checks(profile)
    height_dag = longest_chain(n, kind) if n <= 12 and size > 0 else None
    payload = {
        "poset": kind.value,
        "n": n,
        "size": size,
        "profile": list(profile.counts),
        "width": counting.width_value(n) if size > 0 else 0,
        "max_level": checks.max_level,
        "height": height,
        "height_dag": height_dag,
        "symmetric": checks.symmetric,
        "unimodal": checks.unimodal,
    }
    _emit(payload, args.json)
    return 0


def render_dot(dag: HasseDag) -> str:
    """Deterministic DOT text: sign-string node ids, one rank per layer.

    Every label has length n, so node tokens and edge lines are fixed-width
    byte rows, each filled from a template row and then its labels: a rank
    line is one slice of the node tokens sorted by rank, and the edge lines,
    in DAG order, are written straight into the output buffer.
    """
    import numpy as np

    n, edges = dag.n, len(dag.lower)
    bits = (dag.masks[:, None] >> np.arange(n)) & 1
    labels = np.where(bits == 1, ord("+"), ord("-")).astype(np.uint8)
    by_rank = np.argsort(dag.ranks, kind="stable")  # ascending masks within a rank
    tokens = np.empty((len(by_rank), n + 4), dtype=np.uint8)
    tokens[:] = np.frombuffer(f'"{"-" * n}"; '.encode(), np.uint8)
    tokens[:, 1:n + 1] = labels[by_rank]
    tokens = str(tokens, "ascii")
    lines = [f'digraph "{dag.kind.value}{n}" {{', "  rankdir=LR;", "  node [shape=box];"]
    _, starts = np.unique(dag.ranks[by_rank], return_index=True)
    for a, b in zip(starts.tolist(), [*starts[1:].tolist(), len(by_rank)]):
        lines.append(f"  {{ rank=same; {tokens[a * (n + 4):b * (n + 4)]}}}")
    head = ("\n".join(lines) + "\n").encode()
    out = np.empty(len(head) + edges * (2 * n + 12) + 2, dtype=np.uint8)
    out[:len(head)] = np.frombuffer(head, np.uint8)
    rows = out[len(head):-2].reshape(edges, 2 * n + 12)
    rows[:] = np.frombuffer(f'  "{"-" * n}" -> "{"-" * n}";\n'.encode(), np.uint8)
    rows[:, 3:n + 3] = labels[dag.lower]
    rows[:, n + 9:2 * n + 9] = labels[dag.upper]
    out[-2:] = np.frombuffer(b"}\n", np.uint8)
    return str(out, "ascii")


def _cmd_hasse(args: argparse.Namespace) -> int:
    if args.force:
        print("warning: size guards lifted; this may take a long time", file=sys.stderr)
    from . import poset

    dag = poset.build_hasse(args.n, PosetKind(args.poset), force=args.force)
    dot = render_dot(dag)
    if args.out:
        Path(args.out).write_text(dot, encoding="ascii")
    else:
        print(dot, end="")
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    checks = args.checks
    if checks != "all":
        checks = [s.strip() for s in checks.split(",") if s.strip()]
    from . import poset

    failed = False
    payload = []
    for res in poset.verify_structure(args.n, checks):
        status = "skip" if res.skipped else ("pass" if res.passed else "fail")
        failed |= status == "fail"
        payload.append({"name": res.name, "status": status, "detail": res.detail})
        if not args.json:
            suffix = f" ({res.detail})" if res.detail else ""
            print(f"{res.name}: {status.upper()}{suffix}")
    if args.json:
        print(json.dumps({"n": args.n, "checks": payload}))
    return 1 if failed else 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="partition-posets",
        description="Sign-vector posets for the number-partitioning problem: "
        "solve instances, report structure, export Hasse diagrams, verify.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="solve a partition instance file")
    p_solve.add_argument("file", help="instance file: whitespace-separated weights")
    p_solve.add_argument("--algo", default="auto", choices=solver.ALGORITHMS)
    p_solve.add_argument("--json", action="store_true")
    p_solve.set_defaults(func=_cmd_solve)

    p_profile = sub.add_parser("profile", help="exact size/rank structure report")
    p_profile.add_argument("n", type=int)
    p_profile.add_argument("--poset", default="Q", choices=["P", "Q"])
    p_profile.add_argument("--json", action="store_true")
    p_profile.set_defaults(func=_cmd_profile)

    p_hasse = sub.add_parser("hasse", help="export the cover DAG as DOT")
    p_hasse.add_argument("n", type=int)
    p_hasse.add_argument("--poset", default="Q", choices=["P", "Q"])
    p_hasse.add_argument("--out", default=None, help="output path (default: stdout)")
    p_hasse.add_argument("--force", action="store_true",
                         help="lift the size guards (may be very slow)")
    p_hasse.set_defaults(func=_cmd_hasse)

    p_verify = sub.add_parser("verify", help="run structure/counting/solver checks")
    p_verify.add_argument("n", type=int)
    p_verify.add_argument("--checks", default="all",
                          help="comma-separated check names, or 'all'")
    p_verify.add_argument("--json", action="store_true")
    p_verify.set_defaults(func=_cmd_verify)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        return args.func(args)
    except (PartitionPosetsError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # a bug: never exit 1, which means a check failed
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


def run() -> None:
    raise SystemExit(main())
