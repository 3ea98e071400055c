"""Command-line front end.

One self-describing line-oriented file format serves every structure kind;
the first line names the kind, the remaining lines are key/value with set
literals written ``{a b}``.  ``parse_structure`` and ``emit_structure`` are
inverse on canonical files (the emitter defines the canonical form).

Exit codes: 0 success, 1 a property check failed, 2 parse or validation
error, 3 an internal size guard was exceeded.
"""

from __future__ import annotations

import argparse
import functools
import json
import re
import sys

from .carrier import (
    Preorder,
    SubsetCarrier,
    cover_key,
    normalize,
    reflexive_transitive_closure,
)
from .covering import (
    DEFAULT_MAX_COVERS,
    CoveringMonoid,
    CoveringRelation,
    NoetherianTree,
    _fmt_cover,
    _fmt_elem,
    audit_axioms,
    bounded_member,
    lambda_close,
    lazy_view,
    rank,
    saturate,
    witness_tree,
)
from .errors import InvalidTopologyError, LimitExceededError, LocfineError
from .formal import FormalPresentation, Judgment, derivation, entails
from .frames import (
    Frame,
    SpaceDescription,
    frame_from_space,
    frame_iso,
    is_spatial,
    points_of,
    validate_frame,
)
from .game import GameSpec, Player, solve
from .products import (
    coproduct_frames,
    product_monoid,
    product_space,
)

KINDS = ("space", "frame", "monoid", "preorder", "covrel", "formal", "game")

_TOKEN = re.compile(r"\{[^{}]*\}|[^\s{}]+")
_NAME = re.compile(r"^[^\s{}|]+$")


class ParseError(LocfineError):
    pass


def _tokens(line):
    toks = _TOKEN.findall(line)
    if "".join(toks).replace(" ", "") != line.replace(" ", ""):
        raise ParseError(f"cannot tokenize line: {line!r}")
    return toks


def _set_literal(tok):
    if not (tok.startswith("{") and tok.endswith("}")):
        raise ParseError(f"expected a set literal, got {tok!r}")
    names = tok[1:-1].split()
    for n in names:
        if not _NAME.match(n):
            raise ParseError(f"bad name {n!r}")
    return frozenset(names)


def _name(tok):
    if not _NAME.match(tok):
        raise ParseError(f"bad name {tok!r}")
    return tok


def parse_structure(text: str):
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    if not lines:
        raise ParseError("empty structure file")
    head = lines[0].split()
    if len(head) != 2 or head[0] != "kind" or head[1] not in KINDS:
        raise ParseError(f"first line must be 'kind <{'|'.join(KINDS)}>'")
    kind = head[1]
    rows = {}
    for ln in lines[1:]:
        toks = _tokens(ln)
        rows.setdefault(toks[0], []).append(toks[1:])
    try:
        value = _PARSERS[kind](rows)
    except (ParseError, LocfineError):
        raise
    except (ValueError, KeyError) as exc:
        raise ParseError(str(exc)) from exc
    if rows:  # each parser consumes the rows it reads
        raise ParseError(f"unknown row key(s) in a {kind} file: "
                         + ", ".join(sorted(rows)))
    return kind, value


def _rows_by(rows, key, arity=None):
    got = rows.pop(key, [])
    if arity is not None and any(len(args) != arity for args in got):
        raise ParseError(f"each '{key}' line takes {arity} argument(s)")
    return got


def _one_row(rows, key, optional=False, arity=None):
    got = _rows_by(rows, key, arity)
    if len(got) == 1:
        return got[0]
    if not got and optional:
        return None
    raise ParseError(f"expected exactly one '{key}' line")


def _parse_space(rows):
    points = frozenset(_name(t) for t in _one_row(rows, "points"))
    opens = frozenset(_set_literal(args[0]) for args in _rows_by(rows, "open", 1))
    return SpaceDescription(points, opens)


def _parse_frame(rows):
    elements = [_name(t) for t in _one_row(rows, "elements")]
    edges = [tuple(_name(t) for t in args) for args in _rows_by(rows, "le", 2)]
    return Frame(elements, reflexive_transitive_closure(elements, edges))


def _parse_monoid_parts(rows):
    points = frozenset(_name(t) for t in _one_row(rows, "points"))
    covers = tuple(frozenset(_set_literal(t) for t in args)
                   for args in _rows_by(rows, "cover"))
    return SubsetCarrier(points), covers


def _parse_monoid(rows):
    carrier, covers = _parse_monoid_parts(rows)
    return CoveringMonoid(carrier, covers)


def _parse_preorder(rows):
    elements = [_name(t) for t in _one_row(rows, "elements")]
    top = _name(_one_row(rows, "top", arity=1)[0])
    edges = [tuple(_name(t) for t in args) for args in _rows_by(rows, "le", 2)]
    return Preorder.from_edges(elements, edges, top)


def _parse_covrel(rows):
    pre = _parse_preorder(rows)
    pairs = set()
    for args in _rows_by(rows, "pair", 2):
        subject = _name(args[0])
        pairs.add((subject, _set_literal(args[1])))
    return CoveringRelation(pre, frozenset(pairs))


def _parse_formal(rows):
    elements = [_name(t) for t in _one_row(rows, "elements")]
    unit = _name(_one_row(rows, "unit", arity=1)[0])
    mul = {}
    for args in _rows_by(rows, "mul", 3):
        a, b, c = (_name(t) for t in args)
        mul[(a, b)] = c
    axioms = tuple(Judgment(_name(args[0]), _set_literal(args[1]))
                   for args in _rows_by(rows, "axiom", 2))
    return FormalPresentation(tuple(elements), unit, mul, axioms)


def _parse_game(rows):
    carrier, covers = _parse_monoid_parts(rows)
    target = frozenset(_set_literal(t) for t in _one_row(rows, "target"))
    start_row = _one_row(rows, "start", optional=True, arity=1)
    start = _set_literal(start_row[0]) if start_row else None
    return GameSpec(CoveringMonoid(carrier, covers), target, start)


_PARSERS = {
    "space": _parse_space,
    "frame": _parse_frame,
    "monoid": _parse_monoid,
    "preorder": _parse_preorder,
    "covrel": _parse_covrel,
    "formal": _parse_formal,
    "game": _parse_game,
}


def emit_structure(kind, value) -> str:
    out = [f"kind {kind}"]
    if kind == "space":
        out.append("points " + " ".join(sorted(value.points)))
        for o in sorted(value.opens, key=lambda o: (len(o), tuple(sorted(o)))):
            out.append("open " + _fmt_elem(o))
    elif kind == "frame":
        out.append("elements " + " ".join(value.elements))
        for (a, b) in sorted(value.le_set):
            if a != b:
                out.append(f"le {a} {b}")
    elif kind == "monoid":
        out.append("points " + " ".join(sorted(value.carrier.points)))
        for u in value.basis:
            out.append("cover " + _fmt_cover(u, value.carrier))
    elif kind == "preorder":
        out.append("elements " + " ".join(value.elements_tuple))
        out.append(f"top {value.top}")
        for (a, b) in sorted(value.le_pairs()):
            if a != b:
                out.append(f"le {a} {b}")
    elif kind == "covrel":
        out.extend(emit_structure("preorder", value.carrier).splitlines()[1:])
        for (a, u) in value.sorted_pairs():
            out.append(f"pair {a} " + _fmt_elem(u))
    elif kind == "formal":
        out.append("elements " + " ".join(value.elements))
        out.append(f"unit {value.unit}")
        non_unit = [e for e in value.elements if e != value.unit]
        for a in non_unit:
            for b in non_unit:
                if a <= b:
                    out.append(f"mul {a} {b} {value.mul[(a, b)]}")
        for j in sorted(value.axioms, key=lambda j: (j.subject, tuple(sorted(j.cover)))):
            out.append(f"axiom {j.subject} " + _fmt_elem(j.cover))
    elif kind == "game":
        out.append("points " + " ".join(sorted(value.monoid.carrier.points)))
        for u in value.monoid.basis:
            out.append("cover " + _fmt_cover(u, value.monoid.carrier))
        out.append("target " + _fmt_cover(value.target, value.monoid.carrier))
        out.append("start " + _fmt_elem(value.start))
    else:
        raise ParseError(f"unknown kind {kind!r}")
    return "\n".join(out) + "\n"


def _load(path, want=None):
    with open(path, "r", encoding="utf-8") as fh:
        kind, value = parse_structure(fh.read())
    if want and kind not in want:
        raise ParseError(f"{path}: expected a {'/'.join(want)} file, got {kind}")
    return kind, value


def _cover_json(u):
    return [sorted(m) if isinstance(m, frozenset) else m
            for m in sorted(u, key=lambda m: tuple(sorted(m))
                            if isinstance(m, frozenset) else (m,))]


def _tree_json(t: NoetherianTree):
    node = sorted(t.node) if isinstance(t.node, frozenset) else t.node
    return {"node": node, "children": [_tree_json(c) for c in t.children]}


def _print_tree(t: NoetherianTree, emit, indent=0):
    emit("  " * indent + "- " + _fmt_elem(t.node))
    for c in t.children:
        _print_tree(c, emit, indent + 1)


class _Out:
    """Collects report lines and a JSON payload, printing one of them."""

    def __init__(self, as_json):
        self.as_json = as_json
        self.lines = []
        self.payload = {}

    def say(self, line):
        self.lines.append(line)

    def put(self, **fields):
        self.payload.update(fields)

    def flush(self, code):
        if self.as_json:
            self.payload["exit"] = code
            print(json.dumps(self.payload, sort_keys=True))
        else:
            for ln in self.lines:
                print(ln)
        return code


def _cmd_check(args, out):
    kind, value = _load(args.file)
    violations = []
    if kind == "space":
        try:
            value.validate()
            frame_from_space(value)
        except InvalidTopologyError as exc:
            violations = [str(exc)]
    elif kind == "frame":
        violations = list(validate_frame(value).violations)
    elif kind == "covrel":
        violations = audit_axioms(value, max_covers=args.max_scan).lines(value.carrier)
    # monoid, formal, game and preorder files are validated while parsing
    ok = not violations
    out.put(command="check", file=args.file, kind=kind, ok=ok,
            violations=violations)
    out.say(f"check: {'ok' if ok else 'failed'} ({kind})")
    for v in violations:
        out.say("  " + v)
    return 0 if ok else 1


def _as_frame(kind, value):
    """The frame a frame or space file denotes; an invalid frame is an error."""
    if kind == "space":
        return frame_from_space(value)
    report = validate_frame(value)
    if report.violations:
        raise InvalidTopologyError("; ".join(report.violations))
    return value


def _cmd_points(args, out):
    kind, value = _load(args.file, want=("frame", "space"))
    fr = _as_frame(kind, value)
    pts = points_of(fr)
    out.put(command="points", file=args.file,
            points=[sorted(p.filter) for p in pts])
    out.say(f"points: {len(pts)}")
    for p in pts:
        out.say("  filter " + " ".join(sorted(p.filter)))
    return 0


def _cmd_spatial(args, out):
    kind, value = _load(args.file, want=("frame", "space"))
    fr = _as_frame(kind, value)
    ok, witness = is_spatial(fr)
    pts = points_of(fr)
    out.put(command="spatial", file=args.file, spatial=ok, points=len(pts),
            witness=list(witness) if witness else None)
    out.say(f"spatial: {str(ok).lower()}, points: {len(pts)}")
    if witness:
        out.say(f"  indistinguishable pair: {witness[0]} {witness[1]}")
    return 0 if ok else 1


def _cmd_lambda(args, out):
    _, m = _load(args.file, want=("monoid",))
    closed, trace = lambda_close(m)
    out.put(command="lambda", file=args.file,
            basis=[_cover_json(u) for u in closed.basis])
    out.say(f"lambda basis: {len(closed.basis)} covers")
    for u in closed.basis:
        out.say("  cover " + _fmt_cover(u, m.carrier))
    if args.rank:
        r = rank(m)
        out.put(rank=r)
        out.say(f"rank: {r}")
    if args.trace:
        stages = [[idx, [_cover_json(u) for u in sorted(
            added, key=lambda u: cover_key(u, m.carrier))]]
            for idx, added in trace.stages]
        out.put(trace=stages)
        for idx, added in trace.stages:
            shown = " | ".join(_fmt_cover(u, m.carrier) for u in sorted(
                added, key=lambda u: cover_key(u, m.carrier)))
            out.say(f"stage {idx}: {shown if shown else '(nothing new)'}")
    return 0


def _cmd_saturate(args, out):
    _, rel = _load(args.file, want=("covrel",))
    closed, trace = saturate(rel, max_covers=args.max_scan)
    pairs = closed.sorted_pairs()
    out.put(command="saturate", file=args.file,
            pairs=[[a, sorted(u)] for (a, u) in pairs])
    out.say(f"saturated: {len(pairs)} pairs")
    for (a, u) in pairs:
        out.say(f"  pair {a} " + _fmt_elem(u))
    if args.trace:
        out.put(trace=[[idx, len(added)] for idx, added in trace.stages])
        for idx, added in trace.stages:
            out.say(f"stage {idx}: {len(added)} new pairs")
    return 0


def _parse_cover_arg(text):
    toks = _tokens(text)
    return frozenset(_set_literal(t) for t in toks)


def _cmd_witness(args, out):
    _, m = _load(args.file, want=("monoid",))
    target = normalize(_parse_cover_arg(args.target), m.carrier)
    tree = witness_tree(m, target)
    out.put(command="witness", file=args.file, target=_cover_json(target),
            found=tree is not None,
            tree=_tree_json(tree) if tree else None)
    if tree is None:
        out.say("witness: absent")
        return 1
    out.say("witness:")
    _print_tree(tree, out.say)
    return 0


def _cmd_product(args, out):
    ms = [_load(p, want=("monoid",))[1] for p in args.files]
    prod = product_monoid(ms, max_basis=args.max_scan)
    out.put(command="product", files=list(args.files),
            points=sorted(prod.carrier.points),
            basis=[_cover_json(u) for u in prod.basis])
    out.say(f"product points: {len(prod.carrier.points)}")
    out.say(f"product basis: {len(prod.basis)} covers")
    for u in prod.basis:
        out.say("  cover " + _fmt_cover(u, prod.carrier))
    return 0


def _cmd_coproduct(args, out):
    spaces = []
    frames = []
    for p in args.files:
        kind, value = _load(p, want=("space", "frame"))
        frames.append(_as_frame(kind, value))
        spaces.append(value if kind == "space" else None)
    oracle = None
    if args.compare_space:
        if any(s is None for s in spaces):
            raise ParseError("--compare-space needs space files as inputs")
        oracle = frame_from_space(product_space(spaces))
    loc, _phi = coproduct_frames(frames, max_covers=args.max_scan)
    pts = points_of(loc.frame)
    out.put(command="coproduct", files=list(args.files),
            elements=len(loc.frame), points=len(pts))
    out.say(f"coproduct frame: {len(loc.frame)} elements, {len(pts)} points")
    if oracle is None:
        return 0
    ok, _ = frame_iso(loc.frame, oracle)
    out.put(iso_to_product_space=ok)
    out.say(f"isomorphic to the product space frame: {str(ok).lower()}")
    return 0 if ok else 1


def _cmd_game(args, out):
    _, g = _load(args.file, want=("game",))
    result = solve(g)
    plays = moves = None
    if args.strategy and result.winner is Player.I:
        plays = sorted(result.strategy.moves.items(), key=lambda pu: tuple(sorted(pu[0])))
        moves, pieces = {}, {}
        for p, u in plays:
            key = ",".join(sorted(p)) or "{}"    # a name may itself hold ','
            if key in pieces:
                raise ParseError(f"pieces {_fmt_elem(pieces[key])} and {_fmt_elem(p)} "
                                 f"share the strategy key {key!r}")
            pieces[key], moves[key] = p, u
    winner = "I" if result.winner is Player.I else "II"
    out.put(command="game", file=args.file, winner=winner,
            winning=len(result.winning_set))
    out.say(f"winner: Player {winner}")
    out.say(f"winning pieces: {len(result.winning_set)}")
    if args.strategy and out.as_json:     # each form is built only when printed
        out.put(strategy=moves and {key: _cover_json(u) for key, u in moves.items()})
    elif args.strategy and plays is None:
        out.say("strategy: none (Player II wins)")
    elif args.strategy:
        out.say("strategy:")
        for p, u in plays:
            out.say("  at " + _fmt_elem(p) + " play " + _fmt_cover(u, g.monoid.carrier))
    return 0


def _cmd_entail(args, out):
    _, p = _load(args.file, want=("formal",))
    toks = _tokens(args.judgment)
    if len(toks) != 2:
        raise ParseError("judgment must look like: subject {a b}")
    j = Judgment(_name(toks[0]), _set_literal(toks[1]))
    if args.proof:
        d = derivation(p, j, max_covers=args.max_scan)  # None exactly when not derivable
        ok = d is not None
    else:
        d, ok = None, entails(p, j, max_covers=args.max_scan)
    out.put(command="entail", file=args.file,
            judgment=[j.subject, sorted(j.cover)], derivable=ok)
    out.say(f"derivable: {str(ok).lower()}")
    if d is not None:

        def render(node, indent):
            out.say("  " * indent + f"- {node.conclusion} [{node.rule}]")
            for q in node.premises:
                render(q, indent + 1)

        def tree_json(node):
            return {"judgment": [node.conclusion.subject,
                                 sorted(node.conclusion.cover)],
                    "rule": node.rule,
                    "premises": [tree_json(q) for q in node.premises]}

        out.put(proof=tree_json(d))
        out.say("proof:")
        render(d, 1)
    return 0 if ok else 1


def _cmd_bounded(args, out):
    if args.depth < 0:
        raise ParseError(f"--depth must be non-negative, got {args.depth}")
    _, m = _load(args.file, want=("monoid",))
    target = normalize(_parse_cover_arg(args.target), m.carrier)
    tree = bounded_member(lazy_view(m), target, args.depth, start=m.carrier.top)
    verdict = "proven" if tree is not None else "unknown"
    out.put(command="bounded", file=args.file, depth=args.depth,
            verdict=verdict, tree=_tree_json(tree) if tree else None)
    out.say(f"bounded search (depth {args.depth}): {verdict}")
    if tree is not None:
        _print_tree(tree, out.say)
    return 0 if tree is not None else 1


@functools.cache
def build_parser():
    """The argument parser, built once per process; ``main`` only reads it."""
    ap = argparse.ArgumentParser(
        prog="locfine",
        description="Finite locales, cover monoids, and the locally fine closure.")
    ap.add_argument("--json", action="store_true", help="machine-readable output")
    ap.add_argument("--max-scan", type=int, default=DEFAULT_MAX_COVERS, metavar="N",
                    help="guard for exhaustive cover scans (default %(default)s)")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="audit axioms / frame laws / topology")
    p.add_argument("file")
    p.set_defaults(run=_cmd_check)

    p = sub.add_parser("points", help="points of a frame or space")
    p.add_argument("file")
    p.set_defaults(run=_cmd_points)

    p = sub.add_parser("spatial", help="spatiality of a frame or space")
    p.add_argument("file")
    p.set_defaults(run=_cmd_spatial)

    p = sub.add_parser("lambda", help="locally fine closure of a monoid")
    p.add_argument("file")
    p.add_argument("--trace", action="store_true")
    p.add_argument("--rank", action="store_true")
    p.set_defaults(run=_cmd_lambda)

    p = sub.add_parser("saturate", help="close a covering relation under C1-C4")
    p.add_argument("file")
    p.add_argument("--trace", action="store_true")
    p.set_defaults(run=_cmd_saturate)

    p = sub.add_parser("witness", help="Noetherian witness for a cover")
    p.add_argument("file")
    p.add_argument("--target", required=True, help='e.g. "{0} {1 2}"')
    p.set_defaults(run=_cmd_witness)

    p = sub.add_parser("product", help="product of cover monoids")
    p.add_argument("files", nargs="+")
    p.set_defaults(run=_cmd_product)

    p = sub.add_parser("coproduct", help="coproduct of frames")
    p.add_argument("files", nargs="+")
    p.add_argument("--compare-space", action="store_true",
                   help="compare against the brute-force product space")
    p.set_defaults(run=_cmd_coproduct)

    p = sub.add_parser("game", help="solve the cover-refinement game")
    p.add_argument("file")
    p.add_argument("--strategy", action="store_true")
    p.set_defaults(run=_cmd_game)

    p = sub.add_parser("entail", help="formal entailment")
    p.add_argument("file")
    p.add_argument("--judgment", required=True, help='e.g. "1 {b c}"')
    p.add_argument("--proof", action="store_true")
    p.set_defaults(run=_cmd_entail)

    p = sub.add_parser("bounded", help="depth-bounded membership search")
    p.add_argument("file")
    p.add_argument("--target", required=True)
    p.add_argument("--depth", type=int, required=True)
    p.set_defaults(run=_cmd_bounded)

    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    out = _Out(args.json)
    try:
        code = args.run(args, out)
    except LimitExceededError as exc:
        out.put(command=args.command, error=str(exc))
        out.say(f"limit exceeded: {exc}")
        return out.flush(3)
    except (LocfineError, OSError, ValueError) as exc:
        out.put(command=args.command, error=str(exc))
        out.say(f"error: {exc}")
        return out.flush(2)
    return out.flush(code)


if __name__ == "__main__":
    sys.exit(main())
