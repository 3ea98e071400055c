"""CLI: round-trips, exit codes, and json/text verdict parity."""

import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile

import pytest
from hypothesis import given, settings, strategies as st
from test_formal import _assert_proof

import locfine
from locfine.cli import KINDS, emit_structure, main, parse_structure
from locfine.formal import Derivation, Judgment
from locfine.frames import frame_from_space, space_sierpinski
from locfine.products import coproduct_frames

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")


def fx(name):
    return os.path.join(FIXTURES, name)


CANONICAL = [
    "sierpinski_space.cov", "chain3_space.cov", "discrete2_space.cov",
    "onepoint_space.cov", "sierpinski_frame.cov", "m3_frame.cov",
    "c4_covrel.cov", "c4_preorder.cov", "trivial_monoid.cov",
    "crossing_monoid.cov", "overlap_monoid.cov", "formal_meet.cov",
    "game_win.cov", "game_lose.cov",
]


@pytest.mark.parametrize("name", CANONICAL)
def test_round_trip_is_byte_identical(name):
    with open(fx(name), "r", encoding="utf-8") as fh:
        text = fh.read()
    kind, value = parse_structure(text)
    assert emit_structure(kind, value) == text


CANNED = [
    (["spatial", fx("sierpinski_space.cov")], 0),
    (["check", fx("m3_frame.cov")], 1),
    (["lambda", fx("trivial_monoid.cov"), "--rank"], 0),
    (["check", fx("c4_covrel.cov")], 1),
    (["saturate", fx("c4_covrel.cov")], 0),
    (["points", fx("chain3_space.cov")], 0),
    (["witness", fx("crossing_monoid.cov"), "--target", "{0} {1} {2}"], 0),
    (["witness", fx("overlap_monoid.cov"), "--target", "{0} {1} {2}"], 1),
    (["entail", fx("formal_meet.cov"), "--judgment", "1 {0}", "--proof"], 0),
    (["game", fx("game_lose.cov"), "--strategy"], 0),
    (["bounded", fx("overlap_monoid.cov"), "--target", "{0} {1} {2}",
      "--depth", "3"], 1),
    (["check", fx("bad_syntax.cov")], 2),
    (["spatial", fx("bad_topology_space.cov")], 2),
    (["coproduct", fx("sierpinski_space.cov"), fx("sierpinski_space.cov"),
      "--compare-space"], 0),
    # an invalid frame is rejected, never answered
    (["points", fx("m3_frame.cov")], 2),
    (["spatial", fx("m3_frame.cov")], 2),
    (["coproduct", fx("sierpinski_frame.cov"), fx("m3_frame.cov")], 2),
]


@pytest.mark.parametrize("argv,expected", CANNED,
                         ids=[" ".join(os.path.basename(a) for a in argv)
                              for argv, _ in CANNED])
def test_exit_codes(argv, expected, capsys):
    assert main(argv) == expected
    capsys.readouterr()


def test_removed_lambda_variant_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["lambda", fx("trivial_monoid.cov"), "--variant", "classic"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("usage: ")
    assert "unrecognized arguments: --variant classic" in captured.err
    assert "Traceback" not in captured.out + captured.err


def test_scan_guard_exceeded_exits_3():
    assert main(["--max-scan", "4", "saturate", fx("c4_covrel.cov")]) == 3


def test_coproduct_size_guard_exits_3_at_its_boundary(capsys):
    # the Sierpinski-square coproduct has 6 elements
    argv = ["coproduct", fx("sierpinski_space.cov"), fx("sierpinski_space.cov")]
    assert main(["--max-scan", "5"] + argv) == 3
    captured = capsys.readouterr()
    assert captured.out.startswith("limit exceeded: ")
    assert "Traceback" not in captured.out + captured.err
    assert main(["--json", "--max-scan", "5"] + argv) == 3
    captured = capsys.readouterr()
    payload = json.loads(captured.out)
    assert payload["exit"] == 3 and payload["error"]
    assert "Traceback" not in captured.err
    assert main(["--max-scan", "6"] + argv) == 0
    assert "coproduct frame: 6 elements" in capsys.readouterr().out


def test_coproduct_past_the_family_guard_exits_3(tmp_path, capsys):
    """Sierpinski^4's emitted 168-element locale, passed twice: its
    antichains pass the 5000 guard before any of the 28 224-element
    product is built."""
    sier = frame_from_space(space_sierpinski())
    loc, _ = coproduct_frames([sier] * 4)
    path = tmp_path / "sier4_frame.cov"
    path.write_text(emit_structure("frame", loc.frame), encoding="utf-8")
    argv = ["coproduct", str(path), str(path)]
    assert main(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ("limit exceeded: more than 5000 canonical covers; "
                            "raise the guard to proceed\n")
    assert "Traceback" not in captured.err
    assert main(["--json"] + argv) == 3
    payload = json.loads(capsys.readouterr().out)
    assert set(payload) == {"command", "error", "exit"}
    assert payload["command"] == "coproduct" and payload["exit"] == 3


def test_entail_past_the_cover_guard_exits_3(tmp_path, capsys):
    """The null monoid on 15 elements: unit u, zero z, and 13 middle
    elements whose products are all z, so divisibility has 2**13 + 2
    normalized covers."""
    middle = [f"m{i:02d}" for i in range(13)]
    rest = middle + ["z"]
    rows = ["kind formal", "elements " + " ".join(sorted(rest + ["u"])), "unit u"]
    rows += [f"mul {x} {y} z" for x in rest for y in rest if x <= y]
    path = tmp_path / "null15.cov"
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")
    argv = ["entail", str(path), "--judgment", "m01 {z}"]
    assert main(argv) == 3
    captured = capsys.readouterr()
    assert captured.out.startswith("limit exceeded: ") and captured.out.count("\n") == 1
    assert "Traceback" not in captured.out + captured.err
    assert main(["--json"] + argv) == 3
    payload = json.loads(capsys.readouterr().out)
    assert set(payload) == {"command", "error", "exit"}
    assert payload["command"] == "entail" and payload["exit"] == 3


@pytest.mark.parametrize("proof", [[], ["--proof"]])
def test_entail_reads_the_scan_guard(proof, capsys):
    """formal_meet's divisibility preorder has 6 normalized covers, so one
    fewer as --max-scan exits 3 and 6 answers."""
    argv = ["entail", fx("formal_meet.cov"), "--judgment", "1 {0}", *proof]
    assert main(["--max-scan", "5"] + argv) == 3
    assert capsys.readouterr().out == (
        "limit exceeded: more than 5 canonical covers; raise the guard to proceed\n")
    assert main(["--max-scan", "6"] + argv) == 0
    assert capsys.readouterr().out.startswith("derivable: true\n")


def test_game_strategy_builds_only_the_printed_form(monkeypatch, capsys):
    from locfine import cli

    def unused(*args):
        raise AssertionError("built a strategy form that is not printed")

    argv = ["game", fx("game_win.cov"), "--strategy"]
    monkeypatch.setattr(cli, "_fmt_cover", unused)
    assert main(["--json"] + argv) == 0
    assert json.loads(capsys.readouterr().out)["strategy"]
    monkeypatch.undo()
    monkeypatch.setattr(cli, "_cover_json", unused)
    assert main(argv) == 0
    assert "strategy:\n  at " in capsys.readouterr().out


def test_spatial_text_output(capsys):
    main(["spatial", fx("sierpinski_space.cov")])
    out = capsys.readouterr().out
    assert "spatial: true, points: 2" in out


def test_lambda_rank_output(capsys):
    main(["lambda", fx("trivial_monoid.cov"), "--rank"])
    out = capsys.readouterr().out
    assert "rank: 0" in out


def test_saturate_contains_composed_pair(capsys):
    main(["saturate", fx("c4_covrel.cov")])
    out = capsys.readouterr().out
    assert "pair t {d e}" in out


def test_saturate_trace_stage_counts_of_c4_fixture(capsys):
    main(["saturate", fx("c4_covrel.cov"), "--trace"])
    lines = [ln for ln in capsys.readouterr().out.splitlines() if ln.startswith("stage ")]
    counts = (3, 19, 8, 3, 0)
    assert lines == [f"stage {i}: {n} new pairs" for i, n in enumerate(counts)]
    main(["--json", "saturate", fx("c4_covrel.cov"), "--trace"])
    assert json.loads(capsys.readouterr().out)["trace"] == [list(p) for p in enumerate(counts)]


C4_CHECK_REPORT = """\
check: failed (covrel)
  C1 violated: missing pair (b, {b})
  C1 violated: missing pair (b, {b c})
  C1 violated: missing pair (b, {b e})
  C1 violated: missing pair (c, {b c})
  C1 violated: missing pair (c, {c})
  C1 violated: missing pair (c, {c d})
  C1 violated: missing pair (d, {c d})
  C1 violated: missing pair (d, {d})
  C1 violated: missing pair (d, {d e})
  C1 violated: missing pair (e, {b e})
  C1 violated: missing pair (e, {d e})
  C1 violated: missing pair (e, {e})
  C1 violated: missing pair (t, {t})
  C2 violated: missing pair (b, {t})
  C2 violated: missing pair (c, {t})
  C2 violated: missing pair (d, {b})
  C2 violated: missing pair (d, {t})
  C2 violated: missing pair (e, {c})
  C2 violated: missing pair (e, {t})
  C4 violated: missing pair (b, {c d})
  C4 violated: missing pair (b, {d e})
  C4 violated: missing pair (c, {b e})
  C4 violated: missing pair (c, {d e})
  C4 violated: missing pair (d, {b c})
  C4 violated: missing pair (d, {b e})
  C4 violated: missing pair (e, {b c})
  C4 violated: missing pair (e, {c d})
  C4 violated: missing pair (t, {b e})
  C4 violated: missing pair (t, {c d})
  C4 violated: missing pair (t, {d e})
"""


def test_check_reports_c4_violation(capsys):
    assert main(["check", fx("c4_covrel.cov")]) == 1
    assert capsys.readouterr().out == C4_CHECK_REPORT


COMMA_SPACE = """\
kind space
points a b a,b
open {}
open {a,b}
open {a b}
open {a b a,b}
"""


@pytest.mark.parametrize("command", ["points", "spatial"])
def test_space_whose_open_labels_collide_exits_2(command, tmp_path, capsys):
    # the opens {a,b} (one point) and {a b} (two points) share a label
    path = tmp_path / "comma.cov"
    path.write_text(COMMA_SPACE, encoding="utf-8")
    assert main([command, str(path)]) == 2
    assert "share the label {a,b}" in capsys.readouterr().out
    assert main(["--json", command, str(path)]) == 2
    payload = json.loads(capsys.readouterr().out)
    assert payload["exit"] == 2 and "share the label {a,b}" in payload["error"]


def _expected_text(command, payload):
    """The text line a JSON verdict must be reflected in."""
    if command == "spatial":
        return f"spatial: {str(payload['spatial']).lower()}"
    if command == "check":
        return "check: ok" if payload["ok"] else "check: failed"
    if command == "witness":
        return "witness:" if payload["found"] else "witness: absent"
    if command == "entail":
        return f"derivable: {str(payload['derivable']).lower()}"
    if command == "game":
        return f"winner: Player {payload['winner']}"
    if command == "bounded":
        return payload["verdict"]
    if command == "lambda" and "rank" in payload:
        return f"rank: {payload['rank']}"
    return None


@pytest.mark.parametrize("argv,expected", CANNED,
                         ids=[" ".join(os.path.basename(a) for a in argv)
                              for argv, _ in CANNED])
def test_json_and_text_verdicts_agree(argv, expected, capsys):
    code_text = main(argv)
    text = capsys.readouterr().out
    code_json = main(["--json"] + argv)
    payload = json.loads(capsys.readouterr().out)
    assert code_text == code_json == expected
    assert payload["exit"] == expected
    command = argv[0]
    if expected == 2:
        assert "error" in payload
        assert "error:" in text
        return
    want = _expected_text(command, payload)
    if want is not None:
        assert want in text


def _assert_exits_2_without_traceback(argv, capsys):
    """Exit 2 with the error alone: one text line, or a payload of
    command, error and exit."""
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out.startswith("error: ") and captured.out.count("\n") == 1
    assert "Traceback" not in captured.out + captured.err
    assert main(["--json"] + argv) == 2
    captured = capsys.readouterr()
    payload = json.loads(captured.out)
    assert payload["exit"] == 2 and payload["error"]
    assert set(payload) == {"command", "error", "exit"}
    assert "Traceback" not in captured.err


INVALID_FRAMES = {
    # Frame() used to drop the pair naming z and answer for the rest
    "unknown-name": "kind frame\nelements 0 1\nle 0 1\nle 1 z\n",
    # a and b below each other: two identical points were reported
    "cycle": "kind frame\nelements a b\nle a b\nle b a\n",
}


@pytest.mark.parametrize("case,command", [
    ("unknown-name", "check"), ("unknown-name", "points"),
    ("unknown-name", "spatial"), ("cycle", "points"), ("cycle", "spatial"),
])
def test_invalid_frame_file_exits_2_without_traceback(case, command, tmp_path,
                                                      capsys):
    path = tmp_path / f"{case}.cov"
    path.write_text(INVALID_FRAMES[case], encoding="utf-8")
    _assert_exits_2_without_traceback([command, str(path)], capsys)


def test_unknown_name_is_named_in_the_error(tmp_path, capsys):
    path = tmp_path / "unknown.cov"
    path.write_text(INVALID_FRAMES["unknown-name"], encoding="utf-8")
    main(["points", str(path)])
    assert "unknown element" in capsys.readouterr().out


def _derivation_of(tree):
    """A ``Derivation`` rebuilt from an ``entail --proof --json`` tree."""
    subject, cover = tree["judgment"]
    return Derivation(Judgment(subject, frozenset(cover)), tree["rule"],
                      tuple(map(_derivation_of, tree["premises"])))


@pytest.mark.parametrize("judgment,derivable",
                         [("1 {0}", True), ("1 {}", False), ("b {0 c}", True)])
def test_entail_proof_saturates_once(judgment, derivable, monkeypatch, capsys):
    from locfine import formal
    calls = []
    saturate_judgments = formal._saturate_judgments

    def counted(p):
        calls.append(p)
        return saturate_judgments(p)

    monkeypatch.setattr(formal, "_saturate_judgments", counted)
    argv = ["entail", fx("formal_meet.cov"), "--judgment", judgment, "--proof"]
    assert main(argv) == (0 if derivable else 1)
    out = capsys.readouterr().out
    assert f"derivable: {str(derivable).lower()}" in out
    assert ("proof:" in out) == derivable
    assert len(calls) == 1
    # the --json proof is the same bytes under any hash seed, and checks
    src = os.path.dirname(os.path.dirname(os.path.abspath(locfine.__file__)))
    runs = [subprocess.run([sys.executable, "-m", "locfine.cli", "--json", *argv],
                           env=dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src),
                           capture_output=True, text=True) for seed in ("0", "1")]
    assert [r.returncode for r in runs] == [0 if derivable else 1] * 2
    assert runs[0].stdout == runs[1].stdout
    payload = json.loads(runs[0].stdout)
    if derivable:
        with open(fx("formal_meet.cov"), encoding="utf-8") as fh:
            _, p = parse_structure(fh.read())
        subject, cover = payload["judgment"]
        _assert_proof(p, _derivation_of(payload["proof"]),
                      Judgment(subject, frozenset(cover)))


def test_game_strategy_json_round(capsys):
    main(["--json", "game", fx("game_win.cov"), "--strategy"])
    payload = json.loads(capsys.readouterr().out)
    assert payload["winner"] == "I"
    assert payload["strategy"]


def test_points_lists_filters(capsys):
    main(["points", fx("sierpinski_frame.cov")])
    out = capsys.readouterr().out
    assert "points: 2" in out


def test_product_command(capsys):
    code = main(["product", fx("trivial_monoid.cov"), fx("crossing_monoid.cov")])
    out = capsys.readouterr().out
    assert code == 0
    assert "product points: 9" in out


def _bad_start_game(tmp_path):
    with open(fx("game_win.cov"), "r", encoding="utf-8") as fh:
        text = fh.read().replace("start {0 1 2}", "start {9}")
    path = tmp_path / "bad_start.cov"
    path.write_text(text, encoding="utf-8")
    return str(path)


COMMA_GAME = ("kind game\npoints a b,c a,b c\ncover {a} {b,c} {a,b} {c}\n"
              "target {a} {b,c} {a,b} {c}\n")


def _comma_game(tmp_path):
    """Pieces {a, b,c} and {a,b, c} both join to the strategy key 'a,b,c'."""
    path = tmp_path / "comma_game.cov"
    path.write_text(COMMA_GAME, encoding="utf-8")
    return str(path)


def _comma_factors(tmp_path, kind):
    """Two factors whose product points ("x", "y,z") and ("x,y", "z") share
    the name "x,y,z", as spaces or as their fine monoids."""
    paths = []
    for i, (a, b) in enumerate([("x", "x,y"), ("z", "y,z")]):
        path = tmp_path / f"comma_{kind}{i}.cov"
        if kind == "space":
            text = f"kind space\npoints {a} {b}\nopen {{}}\nopen {{{a}}}\nopen {{{a} {b}}}\n"
        else:
            text = f"kind monoid\npoints {a} {b}\ncover {{{a}}} {{{b}}}\n"
        path.write_text(text, encoding="utf-8")
        paths.append(str(path))
    return paths


INVALID_ARGUMENTS = {
    "entail-stray-brace":
        lambda tmp: ["entail", fx("formal_meet.cov"), "--judgment", "0 {0}}"],
    "witness-stray-brace":
        lambda tmp: ["witness", fx("crossing_monoid.cov"), "--target", "{0 1 2} }"],
    "bounded-stray-brace":
        lambda tmp: ["bounded", fx("crossing_monoid.cov"), "--target", "{0 1 2} }",
                     "--depth", "1"],
    "game-strategy-key-collision":
        lambda tmp: ["game", _comma_game(tmp), "--strategy"],
    "witness-target-outside-carrier":
        lambda tmp: ["witness", fx("overlap_monoid.cov"), "--target", "{7}"],
    "bounded-target-outside-carrier":
        lambda tmp: ["bounded", fx("overlap_monoid.cov"), "--target", "{a}",
                     "--depth", "2"],
    "game-start-outside-carrier":
        lambda tmp: ["game", _bad_start_game(tmp)],
    "bounded-negative-depth":
        lambda tmp: ["bounded", fx("overlap_monoid.cov"), "--target",
                     "{0} {1} {2}", "--depth", "-1"],
    # the oracle's inputs are checked before the coproduct is reported
    "coproduct-compare-space-frame-input":
        lambda tmp: ["coproduct", fx("sierpinski_frame.cov"), fx("sierpinski_space.cov"),
                     "--compare-space"],
    "coproduct-compare-space-point-collision":
        lambda tmp: ["coproduct", *_comma_factors(tmp, "space"), "--compare-space"],
}


@pytest.mark.parametrize("case", sorted(INVALID_ARGUMENTS))
def test_invalid_arguments_exit_2_without_traceback(case, tmp_path, capsys):
    _assert_exits_2_without_traceback(INVALID_ARGUMENTS[case](tmp_path), capsys)


@pytest.mark.parametrize("kind,command", [("monoid", ["product"]),
                                          ("space", ["coproduct", "--compare-space"])])
def test_point_name_collision_exits_2_naming_both_tuples(kind, command, tmp_path, capsys):
    argv = [command[0], *_comma_factors(tmp_path, kind), *command[1:]]
    message = "product points ('x', 'y,z') and ('x,y', 'z') share the name 'x,y,z'"
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert f"error: {message}" in captured.out
    assert "Traceback" not in captured.out + captured.err
    assert main(["--json"] + argv) == 2
    payload = json.loads(capsys.readouterr().out)
    assert payload["exit"] == 2 and payload["error"] == message


def test_strategy_key_collision_names_both_pieces(tmp_path, capsys):
    path = _comma_game(tmp_path)
    assert main(["game", path]) == 0
    capsys.readouterr()
    assert main(["game", path, "--strategy"]) == 2
    out = capsys.readouterr().out
    assert "{a b,c}" in out and "{a,b c}" in out


SHORT_ROWS = {
    "open-without-a-set": "kind space\npoints a\nopen {}\nopen {a}\nopen\n",
    "axiom-without-a-cover": "kind formal\nelements 1\nunit 1\naxiom 1\n",
    "pair-without-a-cover": "kind covrel\nelements a\ntop a\npair a\n",
}


@pytest.mark.parametrize("case", sorted(SHORT_ROWS))
def test_row_missing_an_argument_exits_2_without_traceback(case, tmp_path, capsys):
    path = tmp_path / f"{case}.cov"
    path.write_text(SHORT_ROWS[case], encoding="utf-8")
    _assert_exits_2_without_traceback(["check", str(path)], capsys)


UNKNOWN_ROWS = {
    # the misspelt open used to be dropped: "points: 1", exit 0
    "space": ("kind space\npoints a\nopen {}\nopne {a}\nopen {a}\n", "points",
              "opne"),
    "frame": ("kind frame\nelements 0 1\nle 0 1\ntop 1\n", "spatial", "top"),
    "covrel": ("kind covrel\nelements a t\ntop t\nle a t\npairs a {t}\n",
               "saturate", "pairs"),
    "game": ("kind game\npoints 0\ncover {0}\ntarget {0}\nstrat {0}\n", "game",
             "strat"),
}


@pytest.mark.parametrize("case", sorted(UNKNOWN_ROWS))
def test_unknown_row_key_exits_2_without_traceback(case, tmp_path, capsys):
    text, command, key = UNKNOWN_ROWS[case]
    path = tmp_path / f"{case}.cov"
    path.write_text(text, encoding="utf-8")
    main([command, str(path)])
    assert f"unknown row key(s) in a {case} file: {key}" in capsys.readouterr().out
    _assert_exits_2_without_traceback([command, str(path)], capsys)


def test_json_then_text_in_one_process(capsys):
    argv = ["points", fx("sierpinski_frame.cov")]
    assert main(["--json"] + argv) == 0
    assert json.loads(capsys.readouterr().out)["points"]
    assert main(argv) == 0
    assert capsys.readouterr().out.startswith("points: 2\n")


def test_rank_of_a_monoid_on_no_points_is_zero(tmp_path, capsys):
    path = tmp_path / "empty.cov"
    path.write_text("kind monoid\npoints\n", encoding="utf-8")
    assert main(["lambda", str(path), "--rank"]) == 0
    assert "rank: 0" in capsys.readouterr().out


# --- fuzzing the command line ----------------------------------------------

NAMES = ["a", "b", "c"]


def _set(names):
    return "{" + " ".join(sorted(names)) + "}"


@st.composite
def _rows(draw, kind):
    """The rows after the kind line of a grammar-valid file."""
    names = draw(st.lists(st.sampled_from(NAMES), min_size=1, max_size=3,
                          unique=True))
    pick = st.sampled_from(names)
    subset = st.lists(pick, max_size=3, unique=True).map(_set)
    family = st.lists(subset, max_size=3).map(" ".join)
    some = st.integers(0, 3)
    if kind in ("space", "monoid", "game"):
        rows = ["points " + " ".join(names)]
        if kind == "space":
            # close under union and intersection, so most spaces are valid
            opens = {frozenset(), frozenset(names)}
            opens |= set(draw(st.lists(st.frozensets(pick), max_size=3)))
            while any(a | b not in opens or a & b not in opens
                      for a in opens for b in opens):
                opens |= {f(a, b) for a in opens for b in opens
                          for f in (frozenset.union, frozenset.intersection)}
            rows += ["open " + _set(o) for o in sorted(opens, key=sorted)]
        else:
            rows += ["cover " + draw(family) for _ in range(draw(some))]
        if kind == "game":
            rows += ["target " + draw(family), "start " + draw(subset)]
        return rows
    rows = ["elements " + " ".join(names)]
    if kind == "formal":
        rows.append(f"unit {names[0]}")
        rest = names[1:]
        rows += [f"mul {x} {y} {draw(pick)}" for x in rest for y in rest if x <= y]
        rows += [f"axiom {draw(pick)} {draw(subset)}" for _ in range(draw(some))]
        return rows
    rows += [f"le {draw(pick)} {draw(pick)}" for _ in range(draw(some))]
    if kind in ("preorder", "covrel"):
        rows.append(f"top {names[-1]}")
    if kind == "covrel":
        rows += [f"pair {draw(pick)} {draw(subset)}" for _ in range(draw(some))]
    return rows


def _mutate(draw, rows):
    """Drop a row, drop an argument, duplicate a token or rename a name."""
    if not rows:
        return rows
    i = draw(st.integers(0, len(rows) - 1))
    how = draw(st.sampled_from(["keep", "drop-row", "drop-arg", "duplicate",
                                "unknown-name"]))
    toks = rows[i].split(" ")
    if how == "drop-row":
        return rows[:i] + rows[i + 1:]
    if how == "drop-arg" and len(toks) > 1:
        toks = toks[:-1]
    elif how == "duplicate":
        j = draw(st.integers(0, len(toks) - 1))
        toks = toks[:j + 1] + toks[j:]
    elif how == "unknown-name":
        toks = [t.replace(draw(st.sampled_from(NAMES)), "zz") for t in toks]
    return rows[:i] + [" ".join(toks)] + rows[i + 1:]


def _commands(kind, path):
    """The commands that read a file of this kind, and ``check``."""
    on = {
        "space": [["points", path], ["spatial", path],
                  ["coproduct", path, path, "--compare-space"]],
        "frame": [["points", path], ["spatial", path], ["coproduct", path, path]],
        "monoid": [["lambda", path, "--rank", "--trace"],
                   ["witness", path, "--target", "{a} {b}"],
                   ["bounded", path, "--target", "{a}", "--depth", "2"],
                   ["product", path, path]],
        "preorder": [],
        "covrel": [["saturate", path, "--trace"]],
        "formal": [["entail", path, "--judgment", "a {b}", "--proof"]],
        "game": [["game", path, "--strategy"]],
    }
    return on[kind] + [["check", path]]


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["--max-scan", "12"] + argv)
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_fuzzed_files_keep_the_exit_code_contract(data):
    kind = data.draw(st.sampled_from(KINDS))
    rows = _mutate(data.draw, data.draw(_rows(kind)))
    text = "\n".join([f"kind {kind}"] + rows) + "\n"
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "fuzz.cov")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        argv = data.draw(st.sampled_from(_commands(kind, path)))
        code, _, err = _run(argv)
        code_json, out_json, _ = _run(["--json"] + argv)
    assert code in (0, 1, 2, 3)
    assert json.loads(out_json)["exit"] == code_json == code
    assert "Traceback" not in err


_TRANSCRIPT = """
import contextlib, io, os, sys
from locfine.cli import main
for path in sys.argv[1:]:
    for argv in (["check", path], ["--json", "check", path]):
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
            code = main(argv)
        print(argv[:-1], os.path.basename(path), code, out.getvalue())
"""


def test_check_output_does_not_depend_on_the_hash_seed(tmp_path):
    undominated = tmp_path / "undominated_top.cov"
    undominated.write_text("kind preorder\nelements a b c t\ntop t\nle a b\n")
    unknown = "le yy b\nle q t\nle a zz\n"
    unknown_pre = tmp_path / "unknown_names_preorder.cov"
    unknown_pre.write_text("kind preorder\nelements a b q t\ntop t\n" + unknown)
    unknown_frame = tmp_path / "unknown_names_frame.cov"
    unknown_frame.write_text("kind frame\nelements a b q t\n" + unknown)
    paths = [fx(n) for n in sorted(os.listdir(FIXTURES))]
    paths += [str(undominated), str(unknown_pre), str(unknown_frame)]
    src = os.path.dirname(os.path.dirname(os.path.abspath(locfine.__file__)))
    runs = []
    for seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
        runs.append(subprocess.run(
            [sys.executable, "-c", _TRANSCRIPT, *paths], env=env,
            capture_output=True, text=True, check=True).stdout)
    assert runs[0] == runs[1]
    assert "top does not dominate a" in runs[0]
    # the least of the pairs naming an unknown element, in both kinds
    for name in ("unknown_names_preorder.cov", "unknown_names_frame.cov"):
        assert (f"['check'] {name} 2 error: relation mentions unknown element: "
                "('a', 'zz')") in runs[0]
