import dataclasses
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from partition_posets import ALGORITHMS, PosetKind, build_hasse
from partition_posets.cli import main, read_instance_file, render_dot
from partition_posets.errors import ParseError


def write(tmp_path, text, name="inst.txt"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


# ---------------------------------------------------------------------------
# instance files


def test_read_instance_file(tmp_path):
    path = write(tmp_path, "# weights\n10 3\n2\n1\n")
    assert read_instance_file(path) == [10, 3, 2, 1]


def test_read_instance_rejects_garbage(tmp_path):
    with pytest.raises(ParseError):
        read_instance_file(write(tmp_path, "x y\n"))
    with pytest.raises(ParseError):
        read_instance_file(write(tmp_path, "3 -1\n"))
    with pytest.raises(ParseError):
        read_instance_file(str(tmp_path / "missing.txt"))


# ---------------------------------------------------------------------------
# solve


def test_solve_text_output(tmp_path, capsys):
    code = main(["solve", write(tmp_path, "10 3 2 1\n")])
    out = capsys.readouterr().out
    assert code == 0
    assert "algo: minfast" in out
    assert "abs_delta: 4" in out
    assert "subset: 1" in out


def test_solve_json_round_trip(tmp_path, capsys):
    raw = [3, 10, 2, 1]
    path = write(tmp_path, " ".join(map(str, raw)) + "\n")
    code = main(["solve", path, "--json"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert set(payload) >= {"n", "total", "algo", "abs_delta", "delta", "subset",
                            "nodes_visited"}
    assert payload["n"] == 4 and payload["total"] == 16
    assert payload["optimal"] is True
    total = sum(raw)
    s = sum(raw[i - 1] for i in payload["subset"])
    assert 2 * s - total == payload["delta"]
    assert abs(payload["delta"]) == payload["abs_delta"]


@pytest.mark.parametrize("algo", ALGORITHMS)
def test_solve_algorithms_agree_via_cli(tmp_path, capsys, algo):
    # every name, minfast and corollary included: both certificates fire here
    path = write(tmp_path, "4 3 2 1\n")
    assert main(["solve", path, "--algo", algo, "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["abs_delta"] == 0
    assert payload["algo"] == ("minfast" if algo == "auto" else algo)


def test_solve_fast_path_without_certificate(tmp_path, capsys):
    path = write(tmp_path, "10 6 5 2\n")
    code = main(["solve", path, "--algo", "minfast", "--json"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["fired"] is False


@pytest.mark.parametrize("raw, expected", [
    ([100000000], (100000000, [1])),
    ([4611686018427387904, 1], (4611686018427387903, [1])),
])
def test_solve_one_or_two_large_weights(tmp_path, capsys, raw, expected):
    # beyond the DP cap, auto scans the at most two sign patterns instead
    path = write(tmp_path, " ".join(map(str, raw)) + "\n")
    assert main(["solve", path, "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert (payload["delta"], payload["subset"]) == expected


def test_solve_parse_error_exits_2(tmp_path, capsys):
    assert main(["solve", write(tmp_path, "x y\n")]) == 2
    assert "error:" in capsys.readouterr().err


def test_solve_guard_violation_exits_2(tmp_path, capsys):
    path = write(tmp_path, " ".join(["1"] * 30) + "\n")
    assert main(["solve", path, "--algo", "brute"]) == 2
    assert "error:" in capsys.readouterr().err


def test_solve_more_than_64_weights_exits_2(tmp_path, capsys):
    # 70 weights with no certificate once reached SignVector(70) and a traceback
    path = write(tmp_path, " ".join(map(str, range(1, 71))) + "\n")
    for algo in ("auto", "corollary"):
        assert main(["solve", path, "--algo", algo]) == 2
        assert "at most 64 weights" in capsys.readouterr().err


def test_solve_weight_too_long_to_convert_exits_2(tmp_path, capsys):
    # int() refuses a 5,000-digit token; leading zeros alone do not count
    assert main(["solve", write(tmp_path, "1 2 " + "9" * 5000 + "\n")]) == 2
    err = capsys.readouterr().err
    assert err == "error: weight 10**4999 or more does not fit in 63 bits\n"
    assert main(["solve", write(tmp_path, "0" * 5000 + "1 2\n"), "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["total"] == 3


def test_usage_error_exits_2(capsys):
    assert main(["solve"]) == 2
    assert main(["bogus-command"]) == 2


# ---------------------------------------------------------------------------
# profile


def test_profile_q5(capsys):
    assert main(["profile", "5", "--poset", "Q", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["size"] == 12
    assert payload["profile"] == [1, 2, 3, 3, 2, 1]
    assert payload["width"] == 3
    assert payload["height"] == 5
    assert payload["height_dag"] == 5
    assert payload["symmetric"] and payload["unimodal"]


def test_profile_q21_unimodal(capsys):
    assert main(["profile", "21", "--poset", "Q", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["unimodal"] is True


def test_profile_p_text(capsys):
    assert main(["profile", "3", "--poset", "P"]) == 0
    out = capsys.readouterr().out
    assert "profile: 1 1 1 2 1 1 1" in out
    assert "height: 7" in out


def test_profile_out_of_range_exits_2(capsys):
    assert main(["profile", "0"]) == 2
    assert main(["profile", "121"]) == 2


# ---------------------------------------------------------------------------
# hasse


def test_hasse_q3_stdout(capsys):
    assert main(["hasse", "3", "--poset", "Q"]) == 0
    out = capsys.readouterr().out
    assert '"+--"' in out and '"-++"' in out
    assert "->" not in out  # the two elements are incomparable


def test_hasse_q4_edges(tmp_path):
    out = tmp_path / "q4.dot"
    assert main(["hasse", "4", "--poset", "Q", "--out", str(out)]) == 0
    text = out.read_text()
    assert text.count("->") == 2
    assert '"+---" -> "+--+";' in text


def test_hasse_deterministic(tmp_path):
    a, b = tmp_path / "a.dot", tmp_path / "b.dot"
    assert main(["hasse", "5", "--poset", "P", "--out", str(a)]) == 0
    assert main(["hasse", "5", "--poset", "P", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    assert a.read_text().count("rank=same") == 16  # one layer per rank


def test_hasse_out_of_range_exits_2(capsys):
    assert main(["hasse", "0", "--poset", "Q"]) == 2


def test_hasse_guard_and_force(tmp_path, capsys):
    assert main(["hasse", "15", "--poset", "P"]) == 2
    capsys.readouterr()
    out = tmp_path / "p15.dot"
    assert main(["hasse", "15", "--poset", "P", "--out", str(out), "--force"]) == 0
    assert "warning" in capsys.readouterr().err
    assert out.read_text().count("\n") > (1 << 15)


def test_hasse_force_beyond_sign_vector_length_exits_2(capsys):
    # --force lifts the DAG and enumeration caps, not the 64-bit mask encoding
    assert main(["hasse", "65", "--force"]) == 2
    assert "capped at n = 64" in capsys.readouterr().err


def test_render_dot_matches_dag():
    dag = build_hasse(4, PosetKind.Q)
    text = render_dot(dag)
    assert text.startswith('digraph "Q4"')
    assert text.count("->") == len(dag.edges)


# sha256 of render_dot(build_hasse(n, kind)): the DOT text is pinned byte
# for byte, node order, rank layers and edge order included
DOT_SHA256 = {
    ("P", 1): "1d86e7ba9e4b625a70acc781bf8606ca56d1fad9e22bc8f92970fd85dc285f44",
    ("P", 2): "3f9b08beb89915aac68e383a13ad419ff30bf76c9826ce0de16e46e38278000b",
    ("P", 3): "6fbdc452db7de6fa5f29418fbfccf01bbe18e9a1bdb1e7f393cd851c29382a9d",
    ("P", 4): "450aa1e492a78436a06189eb38e0011a9e0ebcfc49f59ed40fad1b62055dcb97",
    ("P", 5): "03912ab05f0aca56089f69ed15dd83c1d305773892228bbd4efe4e96c34f711a",
    ("P", 6): "a3c194d4deaed592d7549643a4afbca42137d52cbceb7f15cd1370daa876b6ae",
    ("P", 7): "4a447556ace704dc203a64456ce368a4a76394935e21a79e7ced1c6c392b8018",
    ("P", 8): "b0816c76fc0171bd8414b6e2a3c53fd483a35189a5739a8011dd84a17751d8b8",
    ("Q", 3): "6139298a55a37e9c7b9cf77592a564ce2d8404f0b416041fbbf4e0356c198759",
    ("Q", 4): "b3a88b05ab3749ccf02096f149fd49a0ee17e2ba1ab179467a6225b35ccb6b9b",
    ("Q", 5): "e8cc858ae5adc0567571df8bad1817f1877a4bb50d6dc443e41ae3650ee874f1",
    ("Q", 6): "ea1c6282cb8de6ab5c99d7b9229339c034fdadb98fe6d38fefbe49471713a5ae",
    ("Q", 7): "37330b39abee29c34e0e28082e902ae2cba5d5832bdae11beb0385d4f8f92afb",
    ("Q", 8): "45128403be9307570a6b3b31c0ac527d1828c7673ee3303b56bc9fcf7c6e1e23",
    ("Q", 9): "69557f65d905f48f89d7cba309e55ef38922a04eef0537dd6a86ecc7b8061924",
    ("Q", 10): "150c42ec12c9e837b60f52b0895a00caceed55f549bbd3e00c11db0a3bf23368",
}


@pytest.mark.parametrize("kind, n", sorted(DOT_SHA256))
def test_render_dot_golden(kind, n):
    text = render_dot(build_hasse(n, PosetKind(kind)))
    assert hashlib.sha256(text.encode()).hexdigest() == DOT_SHA256[kind, n]


# ---------------------------------------------------------------------------
# verify


def test_verify_all_passes(capsys):
    assert main(["verify", "6", "--checks", "all"]) == 0
    out = capsys.readouterr().out
    for name in ("covers", "iso", "symmetry", "chains", "dominance", "graded",
                 "profiles", "solvers"):
        assert f"{name}: PASS" in out


def test_verify_selected_checks(capsys):
    assert main(["verify", "5", "--checks", "covers,iso"]) == 0
    out = capsys.readouterr().out
    assert "covers: PASS" in out and "iso: PASS" in out
    assert "symmetry" not in out


def test_verify_unknown_check_exits_2(capsys):
    assert main(["verify", "5", "--checks", "bogus"]) == 2


def test_verify_empty_check_list_exits_2(capsys):
    assert main(["verify", "5", "--checks", ","]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "no check" in captured.err


@pytest.mark.parametrize("n, name, bound", [
    (20, "solvers", 16), (121, "profiles", 120),
    (3, "chains", 4), (2, "graded", 3),  # below the check's minimum n
])
def test_verify_named_check_over_cap_exits_2(capsys, n, name, bound):
    # one guard rule for every check: SKIP under `all`, an error when named
    assert main(["verify", str(n), "--checks", name]) == 2
    reason = f"is capped at n = {bound}" if n > bound else f"requires n >= {bound}"
    assert capsys.readouterr().err == f"error: check {name!r} {reason}\n"


def test_verify_prints_checks_in_given_order(capsys):
    assert main(["verify", "5", "--checks", "solvers,covers"]) == 0
    assert capsys.readouterr().out == "solvers: PASS\ncovers: PASS\n"


def test_verify_named_check_below_n1_exits_2(capsys):
    assert main(["verify", "0", "--checks", "solvers"]) == 2
    assert "n must be at least 1" in capsys.readouterr().err


# sha256 of the stdout of `verify N` and `verify N --json`: every verdict,
# skip reason and the order of all eight checks are pinned byte for byte
VERIFY_SHA256 = {
    ("", 1): "d8ec24d399af36659445591ed692ddb2b261587f1795fee657e15e6090548632",
    ("json", 1): "3f3286a4f36b6956e5490d861f893b504a0e4a6107b467dcf7ca8499fe739e54",
    ("", 2): "d8ec24d399af36659445591ed692ddb2b261587f1795fee657e15e6090548632",
    ("json", 2): "8f00ffbd66077860b93fa02f8e24d7dbe3ef5f5d0f3e7b9b508a40d80bcdea9f",
    ("", 3): "3e91103db367ff54e387ff279ef732110e498f0bea578a2c4c76d2c34feb67ec",
    ("json", 3): "afe32a8713c7cff2eb137fe527f8078479038cb2464e9fadb925ac2d44fe17da",
    ("", 10): "3b8fb014588b74acd085fe85de79e73002a0740ce4cf26bf41eb090d133b236a",
    ("json", 10): "74557ec3614ad7a9639d6cf128ce5a92cf892e10076d89c45466bca24ff04ec2",
    ("", 11): "e436742579afc17b3b1b2c2453fa599fdae93225363b3246235b90d878382471",
    ("json", 11): "8ee81549dbbcc68ebae87eebb83574c079ee285c93e937b92c1726fd1e521e1f",
    ("", 17): "0b1ee0d1e512db3aa6d3c3564a9e564a1886a9a6dee4ddab02e05e0de08d7603",
    ("json", 17): "b02e1ba1ea39844936759dcf09495f853440e8727729d1c42749f4b505c588b9",
    ("", 121): "03764acf1e98e2188f0794de452cbc3fa9b08df947a1ba34032e48eab1e050af",
    ("json", 121): "4cfce13f2d71382e4fa8c27b537eb3466d5cd7d6e02895ec4f2916c44aa9ead8",
}


@pytest.mark.parametrize("fmt, n", sorted(VERIFY_SHA256))
def test_verify_golden(capsys, fmt, n):
    argv = ["verify", str(n)] + (["--json"] if fmt else [])
    assert main(argv) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert hashlib.sha256(captured.out.encode()).hexdigest() == VERIFY_SHA256[fmt, n]


def test_verify_skip_reported(capsys):
    assert main(["verify", "3", "--checks", "all", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    by_name = {c["name"]: c for c in payload["checks"]}
    assert by_name["chains"] == {"name": "chains", "status": "skip", "detail": "requires n >= 4"}


def test_unexpected_exception_exits_3(monkeypatch, tmp_path, capsys):
    # a bug reports one line and exit 3, never a traceback or exit 1
    from partition_posets import cli

    def broken_solve(inst, algo):
        raise AssertionError("injected bug")

    monkeypatch.setattr(cli.solver, "solve", broken_solve)
    assert main(["solve", write(tmp_path, "10 6 5 2\n")]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "internal error: AssertionError: injected bug\n"


def test_verify_failure_exits_1(monkeypatch, capsys):
    # cli imports poset when verify runs, so the patch goes on poset itself
    from partition_posets import poset
    from partition_posets.poset import CheckResult

    def fake_verify(n, checks):
        return [CheckResult("covers", False, detail="injected failure")]

    monkeypatch.setattr(poset, "verify_structure", fake_verify)
    assert main(["verify", "5", "--checks", "covers"]) == 1
    assert "covers: FAIL" in capsys.readouterr().out


def _drop_one_cover(monkeypatch):
    from partition_posets import poset

    real = poset.build_hasse

    def build(n, kind, **kwargs):
        dag = real(n, kind, **kwargs)
        return dataclasses.replace(dag, lower=dag.lower[1:], upper=dag.upper[1:])

    monkeypatch.setattr(poset, "build_hasse", build)


def _miscount_q(monkeypatch):
    # q_rank_profile, not rplus_rank_profile: q reads R+ too, so conservation
    # would still hold
    from partition_posets import counting

    real = counting.q_rank_profile

    def profile(n):
        p = real(n)
        return dataclasses.replace(p, counts=(p.counts[0] + 1,) + p.counts[1:])

    monkeypatch.setattr(counting, "q_rank_profile", profile)


def _misreport_pruned(monkeypatch):
    from partition_posets import solver

    real = solver.solve_pruned

    def solve(inst):
        sol = real(inst)
        return dataclasses.replace(sol, abs_delta=sol.abs_delta + 1)

    monkeypatch.setattr(solver, "solve_pruned", solve)


# check name -> (plants a mutant in what the check reads, its failure detail at n = 5)
MUTANTS = {
    "covers": (_drop_one_cover, "operator covers != transitive reduction for P(5)"),
    "profiles": (_miscount_q, "conservation fails at rank 5"),
    "solvers": (_misreport_pruned, "pruned got 11, brute got 10 on [761, 119, 532, 352, 452]"),
}


@pytest.mark.parametrize("name", sorted(MUTANTS))
def test_verify_reports_a_planted_failure(monkeypatch, capsys, name):
    # a check's own failure comes through verify_structure and the CLI as is
    from partition_posets.poset import CheckResult, verify_structure

    plant, detail = MUTANTS[name]
    plant(monkeypatch)
    assert verify_structure(5, name) == [CheckResult(name, False, detail=detail)]
    assert main(["verify", "5", "--checks", name]) == 1
    assert capsys.readouterr().out == f"{name}: FAIL ({detail})\n"


# ---------------------------------------------------------------------------
# the command line as a process

# the pinned instances, one weight list per file
PIN_FILES = {
    # pruned's closed-form sweep: a non-perfect phase instance at n = 21
    # (optimum from the half-sum tables; auto answers with the meet in the
    # middle) and a parity-gap instance at n = 18 (optimum from the DP
    # bitset, auto's closed form)
    "phase21": "14766354 29460213 22651102 32278036 1403023 3836668 24255354 8353482 "
               "21806620 31911695 23642689 9000238 19369915 13355341 846733 25766273 "
               "3302305 24528480 10602891 16886606 24652517",
    "gap18": "40 55 50 60 10 40 40 30 0 40 75 0 75 95 0 80 20 45",
    # kernel-path instances, whose weights are beyond the DP filter, so the
    # check runs before the ascent: a perfect instance at n = 16 (duplicated
    # 40-bit halves; the check returns None, the ascent stops after 750 pops,
    # and auto answers with the meet in the middle) and a 63-bit non-perfect
    # instance at n = 17 (closed form; auto answers with the meet in the
    # middle)
    "dup16": "1011707717353 660637959597 550786322915 898159780889 1011707717353 "
             "1033311238886 1089925756095 863764036341 1033311238886 638293147116 "
             "550786322915 660637959597 1089925756095 638293147116 898159780889 "
             "863764036341",
    "b63_17": "369387706609934748 431949825315441732 355474047590621151 403125999994407839 "
              "523902309383865883 474182782287154558 437706600307409619 278406265843895776 "
              "476167766719385420 376059563120549205 392971555590413573 386214230413203509 "
              "440097317293017744 414945544980669160 304839485550902692 417223620850196009 "
              "487490739131359683",
    # small totals, within the DP filter: a non-perfect instance at n = 10
    # (closed form) and a perfect one at n = 20 (parity stop after 344 pops;
    # auto answers with the DP)
    "small10": "988 213 11 533 753 37 161 934 244 17",
    "stop20": "155 459 675 522 246 978 152 493 973 530 123 670 248 811 221 404 438 226 629 293",
    # the closed form's fallback: a parity-gap instance at n = 17 whose
    # smallest mask of the optimal delta is left unrecorded by its ties and
    # zeros, so the vectorized walk finds the answer
    "gap17": "60 85 55 0 15 15 45 50 55 50 35 5 0 5 15 70 15",
    # the same fallback within the DP filter: an auto -> pruned instance at
    # n = 11 whose first candidate, dp's backtrack, is unrecorded
    "walk11": "15 15 200 40 15 0 200 200 0 200 15",
    # 48 uniform weights in 0..1000: auto's DP, whose build stops at the 16th
    # prefix, the first that reaches ceil(total/2)
    "uni48": "137 582 867 821 782 64 261 120 507 779 460 483 667 388 807 214 96 499 29 914 "
             "855 399 443 622 780 785 2 712 456 272 738 821 234 605 967 104 923 325 31 22 26 "
             "665 554 9 961 902 390 702",
    # the meet in the middle's extremes: a 63-bit boundary instance at n = 24
    # (totals near 2**63) and 40 weights of 40 bits
    "b63_24": "302505659365508818 360128122272073797 255065101901038142 "
              "240383068940672518 240972236215478399 273829872102283038 "
              "195817469372235335 326976311680093326 375230872893408375 "
              "200273130076387382 240764047652150513 333764063034388992 "
              "336199276619431695 265337764212274700 368368880332715485 "
              "213625643048804132 379210080868946692 382603812950389985 "
              "201739903404578012 253756729200696606 289843432650380145 "
              "281729379375818720 263052435033517861 364073409760503171",
    "mitm40": "637624860618 579296031610 266424751946 731357451366 704210530849 "
              "226191526626 838069977844 302144031077 819822280773 899541224182 "
              "579943558587 811302922622 64982314345 221797548951 780050155796 "
              "933986448975 59966269693 868341680853 346194743203 275365831424 "
              "360629496511 859615398933 749527850765 574806708798 1073240385318 "
              "447095642374 55307522961 905562290491 804515078800 368321268691 "
              "808429122258 339963076581 571929027679 765830230992 321376287701 "
              "860976965791 176046583165 648084117641 537774834438 568797197565",
    # a seeded 63-bit boundary draw at n = 17 (total in [2**62, 2**63)) that
    # auto answers with the meet in the middle, where one query meets v*
    "b63_17s": "315315501623614189 382719498754025122 311074729217170908 "
              "313340068293999126 420717074134395060 499835390277975440 "
              "516414236895166031 454829767218925436 317000887344882229 "
              "313410988147831872 389600182284803526 355935134653839890 "
              "462241705098736499 324764780431117271 507164875415992306 "
              "523539114127702837 480805922201003934",
    # a seeded phase draw at n = 24 (weights of 28 bits, random.Random(24)):
    # the largest instance whose auto meet a fresh process runs in pure Python
    "phase24": "191218115 102773377 225432026 156438478 49014138 58590920 267974454 "
               "44917206 52102110 45465913 180089785 182979336 24638781 189484631 "
               "203403472 268098055 40614354 216461970 189667016 76066971 194467885 "
               "247545755 205606202 3412260",
    # 34 weights of 12 bits: every one of the 65,536 half-sum rows meets v*,
    # so the row search runs its doubling slices
    "narrow34": "2166 1462 2399 113 3454 939 3680 122 3613 1593 1493 3909 3886 264 1737 "
                "3913 1254 1397 387 2392 2095 3369 634 395 1123 1421 2500 6 3180 634 "
                "3082 2145 353 3281",
    # tied 30-bit weights at n = 16, beyond the DP filter: pruned's closed
    # form leaves its first candidate unrecorded and walks the half-sum rows
    "tie16": "6322194214 6322194214 6322194214 6322194214 6322194214 6322194214 "
             "5791155993 5791155993 6322194214 5791155993 5791155993 6322194214 "
             "5791155993 6322194214 5791155993 5791155993",
    # 30 weights of 40 bits, beyond pruned and the DP: auto's meet in the middle
    "mitm30": "104184211328 826339674379 294813333313 180340570947 14867171083 56876858340 "
              "884408767813 767314907615 880758768747 545561821547 617066411275 943874948300 "
              "208587889087 612779707687 284795819888 682166842083 686666817047 300992779053 "
              "259049298940 63435099450 392134614507 1035887565739 728621377531 994341214022 "
              "734218057173 740967837105 43242828506 227396372768 573316503740 1056272195198",
}

# sha256 of stdout of `python -m partition_posets ARGS`, a PIN_FILES name
# standing for its file; the golden unit tests pin DOT only up to Q(10) and
# verify only up to n = 11 in process
CLI_SHA256 = [
    ("74557ec3614ad7a9639d6cf128ce5a92cf892e10076d89c45466bca24ff04ec2", "verify 10 --json"),
    ("5d0b0bd11d70bc209ab03fb19e628040232cba72b231e6a887a4b82035bbc31a", "verify 14 --json"),
    ("9fb2f9624657deeb381264cfbc7943ad9b62087fccc43e1295ed5f8388818526", "hasse 16"),
    # the largest P DAG within the cap
    ("a14160211fb7aa2a2e9fc7a9923b3f6aa992293306bbf83fc7502d00231db296", "hasse 14 --poset P"),
    # beyond the bitset bound auto answers with the meet in the middle, and
    # pruned with its closed form
    ("f7222f19f07677d92c4a5456a56793ae2453451884e901e8a900aa587677daa1",
     "solve phase21 --algo pruned --json"),
    ("a52f1351af14bffe8b921e0482f34253f15ad6d7eac258b56f8a794ba93405a3", "solve phase21 --json"),
    ("bc92951b5a98f9c9044e03bc384ee6b7332e1c5d637fe812c2362cacb57df6b3",
     "solve b63_17 --algo pruned --json"),
    ("acc516bfbfa48bbb683b5018353a2e7c32fc48ab27dac28a0e57a998e94f2198", "solve b63_17 --json"),
    ("d32e60ec364ffcfce9a525e3e25c282ef6b58498d1c9c0be2481a11982039db1", "solve gap18 --json"),
    # parity stops: pruned runs its ascent, auto skips it for mitm and dp
    ("0a1d3d114632272b15de4b54027f177933b0d4e6e3eafd2589c52d71739b8ac5",
     "solve dup16 --algo pruned --json"),
    ("7c9204fd01c71a10c3e7524d2a64f4ee2ab7321ca79caeec6eed54593cd0b3e2", "solve dup16 --json"),
    ("a331076eb0a11e4e56f1db1f5b103efe80958a6ccfb9700e582a85cf9e09e100",
     "solve stop20 --algo pruned --json"),
    ("42f18fd1ed55efbb4e0053c2619913bb8d4b07ba418998215e02f9a1d27f03f6", "solve stop20 --json"),
    ("7cfede324634c9fd06c1e6fe37a26cb9edf72b454f934e62073fbb275a762489", "solve small10 --json"),
    ("a51521ce9d64eb5e5aa2ccc9415987b1735f333463b5bfa5a93f522927b0e8d3", "solve gap17 --json"),
    ("d3a17ad17da75b6844dad17fa36b0f530174ea472e297c0d9d61c1635305ce41", "solve walk11 --json"),
    # dp on its own, with the smallest mask of delta +v* it backtracks to
    ("fcfbfa98c867b860471cdabc298679de0060842917ee983dabe072f14c96801e",
     "solve gap18 --algo dp --json"),
    # the DP's early stop, under auto and on its own
    ("31daaed39e88eb30fb01894067d8bf9bb9e3800e8716e9cdafd135530243a165", "solve uni48 --json"),
    ("31daaed39e88eb30fb01894067d8bf9bb9e3800e8716e9cdafd135530243a165",
     "solve uni48 --algo dp --json"),
    # meet in the middle, with brute's subset and delta
    ("a52f1351af14bffe8b921e0482f34253f15ad6d7eac258b56f8a794ba93405a3",
     "solve phase21 --algo mitm --json"),
    ("2070e9a12ea599ed71bd2c75d5dcb093a4acf143b3a19f249cd4a57f277096ed", "solve mitm30 --json"),
    ("16b047e94ba5f15d7b7d6bc61b8ae40e0945b363a705c0ab7e748c5cb09bf2df",
     "solve b63_24 --algo mitm --json"),
    ("08dd8f6cfa606d494e80eab64bb79efcdf75e401aed0798260cdef471a31f536",
     "solve mitm40 --algo mitm --json"),
    ("6e9454bb20194a6feb3148443e2de513c27c0b9769bfc865e596cb9b4f23f781", "solve b63_17s --json"),
    ("e23b8d9769fb1ff4e7d39c6b19020669042f5014dd1df78a87c02d919ca31811", "solve phase24 --json"),
    ("3a2a618e8c3689d11db6391954c1bc3fbee284fd734c393ed2e85cf3bcb0cfc6",
     "solve narrow34 --algo mitm --json"),
    # the closed form's walk beyond the DP filter
    ("f8e7952d77e03267d4a9d145f42bbd74d7ae69dd2dbd8f966233eb50a615f7c9",
     "solve tie16 --algo pruned --json"),
    # the height cross-check's largest n, and the counting cap
    ("2d5bd67e760bf2923add998aac6341201f39688d29267a3a9cb2724585e7bd3f", "profile 12 --json"),
    ("838c28815fcf2ffee4ea108f5922a21e590406f035549cdc090da5e6556fde2f",
     "profile 12 --poset P --json"),
    ("25795c7bc9feb0d149dcd1960917869e8dfeeb9fd9c1c2f611bd5eb57f2ae1c3", "profile 120 --json"),
]


@pytest.mark.parametrize("sha, args", CLI_SHA256, ids=[args for _, args in CLI_SHA256])
def test_cli_process_golden(tmp_path, sha, args):
    argv = []
    for arg in args.split():
        if arg in PIN_FILES:
            arg = write(tmp_path, PIN_FILES[arg] + "\n", arg + ".txt")
        argv.append(arg)
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")}
    out = subprocess.run([sys.executable, "-m", "partition_posets", *argv], env=env,
                         capture_output=True, check=True).stdout
    assert hashlib.sha256(out).hexdigest() == sha
