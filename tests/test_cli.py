"""CLI: round-trips, exit codes, and json/text verdict parity."""

import json
import os

import pytest

from locfine.cli import emit_structure, main, parse_structure

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


def test_check_reports_c4_violation(capsys):
    main(["check", fx("c4_covrel.cov")])
    out = capsys.readouterr().out
    assert "C4 violated" in out and "{d e}" in out


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
    assert main([command, str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out.startswith("error: ")
    assert "Traceback" not in captured.out + captured.err
    assert main(["--json", command, str(path)]) == 2
    captured = capsys.readouterr()
    payload = json.loads(captured.out)
    assert payload["exit"] == 2 and payload["error"]
    assert "Traceback" not in captured.err


def test_unknown_name_is_named_in_the_error(tmp_path, capsys):
    path = tmp_path / "unknown.cov"
    path.write_text(INVALID_FRAMES["unknown-name"], encoding="utf-8")
    main(["points", str(path)])
    assert "unknown element" in capsys.readouterr().out


@pytest.mark.parametrize("judgment,derivable", [("1 {0}", True), ("1 {}", False)])
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


INVALID_ARGUMENTS = {
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
}


@pytest.mark.parametrize("case", sorted(INVALID_ARGUMENTS))
def test_invalid_arguments_exit_2_without_traceback(case, tmp_path, capsys):
    argv = INVALID_ARGUMENTS[case](tmp_path)
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out.startswith("error: ")
    assert "Traceback" not in captured.out + captured.err
    assert main(["--json"] + argv) == 2
    captured = capsys.readouterr()
    payload = json.loads(captured.out)
    assert payload["exit"] == 2 and payload["error"]
    assert "Traceback" not in captured.err
