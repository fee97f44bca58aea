"""Which modules each entry point loads, and the package's lazy namespace.

numpy and ``partition_posets.poset`` are imported only by the paths that
build numpy tables: DAGs, checks, delta tables and half sums.  The Q(n)
membership table is pure Python, and so are ``profile``'s height
cross-check and a numpy-free process's first meet in the middle at
n <= 24.  The import graph is checked in fresh interpreters, since this
test process has long since loaded both.
"""

import importlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import partition_posets
from partition_posets import core, poset, solver

SRC = str(Path(partition_posets.__file__).resolve().parent.parent)
TABLE_MODULES = ["numpy", "partition_posets.poset"]

# imports the package, then the command line, then runs the command line on
# its own arguments (if any); prints the table modules loaded after each step
PROBE = """
import contextlib, io, json, sys
tables = lambda: [m for m in %r if m in sys.modules]
loaded = {}
import partition_posets
loaded["package"] = tables()
import partition_posets.cli as cli
loaded["cli"] = tables()
out, code = io.StringIO(), 0
if len(sys.argv) > 1:
    with contextlib.redirect_stdout(out):
        code = cli.main(sys.argv[1:])
loaded["main"] = tables()
print(json.dumps({"loaded": loaded, "code": code, "out": out.getvalue()}))
""" % (TABLE_MODULES,)


def _run_fresh(script: str, *argv: str):
    """The JSON that ``script`` prints, run in a fresh interpreter."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", script, *argv], env=env,
                          capture_output=True, text=True, timeout=120, check=True)
    return json.loads(proc.stdout)


def _probe(*argv: str) -> tuple[list[str], str]:
    """Table modules loaded by ``cli.main(argv)`` in a fresh interpreter, and
    its output; importing the package and the command line loads none."""
    result = _run_fresh(PROBE, *argv)
    assert result["code"] == 0, result
    assert result["loaded"]["package"] == result["loaded"]["cli"] == []
    return result["loaded"]["main"], result["out"]


def _solve_argv(tmp_path, weights, *options: str) -> list[str]:
    path = tmp_path / "instance.txt"
    path.write_text(" ".join(map(str, weights)) + "\n")
    return ["solve", str(path), *options, "--json"]


def test_imports_load_no_tables():
    assert _probe() == ([], "")


# up to n = 12 the height is cross-checked on core's pure-Python longest chain
PROFILE_SIZES = [("profile 1 --poset P", 2), ("profile 3", 2), ("profile 12", 2248),
                 ("profile 12 --poset P", 4096),
                 ("profile 120", 2**120 - 2 * math.comb(120, 60))]


@pytest.mark.parametrize("args, size", PROFILE_SIZES, ids=[args for args, _ in PROFILE_SIZES])
def test_profile_loads_no_tables(args, size):
    loaded, out = _probe(*args.split())
    assert f"size: {size}\n" in out
    assert loaded == []


@pytest.mark.parametrize("weights, algo", [
    ([10, 3, 2, 1], "minfast"),
    ([10, 6, 5, 2], "corollary"),
    (list(range(1, 31)), "dp"),
    ([6, 5, 4, 3, 3, 1], "dp"),  # a parity stop for pruned: auto skips its ascent
    ([13, 8, 5, 3, 1], "pruned"),  # pruned's closed form: the first candidate
    # perfect uniform draw at n = 20: the parity stop reuses the bitsets
    ([634, 634, 178, 686, 786, 472, 968, 453, 485, 377, 956, 429, 556,
      162, 632, 93, 468, 816, 245, 939], "dp"),
    # 14-bit uniform draw at n = 30, 7.6e6 cells: beyond the bitset bound,
    # but above n = 24 the DP table fits
    ([6867, 13426, 6727, 4879, 15449, 14822, 3440, 5298, 16093, 15582,
      1338, 14508, 1616, 11303, 7111, 3984, 3065, 8617, 5093, 860, 9842,
      15201, 7779, 10064, 15067, 8018, 1341, 7882, 8046, 9643], "dp"),
])
def test_certificate_and_dp_solves_load_no_tables(tmp_path, weights, algo):
    loaded, out = _probe(*_solve_argv(tmp_path, weights))
    assert json.loads(out)["algo"] == algo
    assert loaded == []


@pytest.mark.parametrize("weights, abs_delta", [
    ([6, 5, 4, 3, 3, 1], 0),  # the parity stop: the DP bitset reaches total/2
    ([13, 8, 5, 3, 1], 2),  # the closed form's first candidate is recorded
])
def test_dp_sized_pruned_solves_load_no_tables(tmp_path, weights, abs_delta):
    # the Q(n) table is core's bytes, so pruned needs numpy only for the
    # half-sum kernel and the tie/zero walk; auto never runs the ascent
    loaded, out = _probe(*_solve_argv(tmp_path, weights, "--algo", "pruned"))
    result = json.loads(out)
    assert (result["algo"], result["abs_delta"], loaded) == ("pruned", abs_delta, [])


def test_table_commands_load_numpy_and_poset(tmp_path):
    loaded, out = _probe("hasse", "5")
    assert out.startswith('digraph "Q5"') and loaded == TABLE_MODULES
    # beyond SWEEP_DP_MAX_CELLS, pruned's v* comes from the half-sum kernel;
    # auto answers with the meet in the middle, whose first call in a
    # numpy-free process runs in pure Python at n <= 24
    weights = [13 * 10**6, 8 * 10**6, 5 * 10**6, 3 * 10**6, 10**6]
    assert len(weights) * (sum(weights) + 1) > solver.SWEEP_DP_MAX_CELLS
    loaded, out = _probe(*_solve_argv(tmp_path, weights, "--algo", "pruned"))
    result = json.loads(out)
    assert (result["algo"], result["abs_delta"], loaded) == ("pruned", 2 * 10**6, ["numpy"])
    loaded, out = _probe(*_solve_argv(tmp_path, weights))
    result = json.loads(out)
    assert (result["algo"], result["abs_delta"], loaded) == ("mitm", 2 * 10**6, [])


# two meets of wide weights at n = 24 in one process: numpy is loaded
# after the second, so a long-running process keeps the numpy kernel
TWO_MEETS = """
import json, random, sys
from partition_posets import normalize_instance, solve
rng = random.Random(24)
loaded, answers = [], []
for _ in range(2):
    sol = solve(normalize_instance([rng.getrandbits(30) for _ in range(24)]))
    answers.append(sol.algorithm)
    loaded.append("numpy" in sys.modules)
print(json.dumps({"answers": answers, "loaded": loaded}))
"""


def test_only_the_first_meet_of_a_process_skips_numpy():
    assert _run_fresh(TWO_MEETS) == {"answers": ["mitm", "mitm"], "loaded": [False, True]}


# ---------------------------------------------------------------------------
# the package namespace


def test_every_public_name_is_its_home_object():
    # the home is the defining module; ALGORITHMS, a tuple, has no __module__
    for name in partition_posets.__all__:
        obj = getattr(partition_posets, name)
        home = importlib.import_module(getattr(obj, "__module__", "partition_posets.solver"))
        assert home.__name__ != "partition_posets" and getattr(home, name) is obj, name


def test_star_import_and_dir_list_every_public_name():
    namespace: dict = {}
    exec("from partition_posets import *", namespace)
    assert set(partition_posets.__all__) <= namespace.keys()
    for name in partition_posets.__all__:
        assert namespace[name] is getattr(partition_posets, name), name
    assert set(partition_posets.__all__) <= set(dir(partition_posets))


def test_unknown_attribute_raises():
    with pytest.raises(AttributeError, match="no_such_name"):
        partition_posets.no_such_name  # noqa: B018
    assert not hasattr(partition_posets, "numpy")


def test_poset_reexports_the_core_primitives():
    assert poset.PosetKind is core.PosetKind
    assert poset.membership is core.membership
    assert poset.min_element_mask is core.min_element_mask
    assert poset.max_element_mask is core.max_element_mask
