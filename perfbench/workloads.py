"""Seeded corpora, queries and verdict checks for the perfbench workloads.

A workload is a recipe: a block of query slots with a fixed composition of
input shapes.  The seed draws every block's concrete inputs (names, factor
order, generators, axioms, judgments, targets) and the order of its queries,
so two seeds send different inputs with the same cost profile.  Runs measure
whole blocks, and each recipe is laid out so that the median and the 90th
percentile fall inside one shape class rather than on the edge between two;
that is what keeps both percentiles steady from seed to seed.

Each query returns a verdict.  ``check`` compares it with an expected answer
that an oracle outside the engine under test computed during set-up, and
returns None or a description of the mismatch.  ``finish`` runs the checks
that need one output per shape rather than per query.  The library is
reached only through attribute lookups on the imported package at call time,
so the tracer's wrappers see every call.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import re
from dataclasses import dataclass
from string import ascii_lowercase
from typing import Callable

NAME_POOL = tuple(f"{c}{d}" for c in ascii_lowercase for d in range(10))

# The five finite T0 spaces the coproduct and frame shapes are built from:
# points and opens, by base point names.
BASE_SPACES = {
    "one": ("p", ["", "p"]),
    "sier": ("ab", ["", "b", "ab"]),
    "disc2": ("pq", ["", "p", "q", "pq"]),
    "disc3": ("pqr", ["", "p", "q", "r", "pq", "pr", "qr", "pqr"]),
    "chain3": ("012", ["", "2", "12", "012"]),
    "six": ("xyz", ["", "y", "z", "yz", "xy", "xyz"]),
}


@dataclass
class Query:
    kind: str
    run: Callable[[], object]
    check: Callable[[object], "str | None"]


def _names(rng, k):
    return rng.sample(NAME_POOL, k)


def _space(lf, kind, rng=None):
    """A base space, with its points renamed from the pool when rng is given."""
    pts, opens = BASE_SPACES[kind]
    names = dict(zip(pts, _names(rng, len(pts)) if rng else pts))
    return lf.frames.SpaceDescription(
        frozenset(names.values()),
        frozenset(frozenset(names[x] for x in o) for o in opens))


def _frame_of_opens(lf, opens):
    """The frame of a list of opens, with elements x0, x1, ... ."""
    opens = sorted(opens, key=lambda o: (len(o), sorted(o)))
    labels = {o: f"x{i}" for i, o in enumerate(opens)}
    le = {(labels[a], labels[b]) for a in opens for b in opens if a <= b}
    return lf.frames.Frame(list(labels.values()), le)


def _shape_frame(lf, shape):
    """The frame of the product of the base spaces named in ``shape``."""
    return _frame_of_opens(lf, lf.products.product_space([_space(lf, k) for k in shape]).opens)


def _order_profile(elems, le):
    """Sorted (down-set size, up-set size) of every element: an invariant of
    the order up to isomorphism."""
    return tuple(sorted((sum(1 for y in elems if le(y, x)), sum(1 for y in elems if le(x, y)))
                        for x in elems))


class Workload:
    name = ""
    nominal_block_s = 1.0   # rough cost of one block on a 2-core x86 VM
    recipe = ()

    def __init__(self, lf, seed, n_blocks, workdir):
        self.lf = lf
        self.workdir = workdir
        rng = random.Random(f"{self.name}:{seed}")
        self.prepare()
        self.blocks = []
        for _ in range(n_blocks):
            block = [self.make(rng, slot) for slot in self.recipe]
            rng.shuffle(block)
            self.blocks.append(block)

    def prepare(self):
        """Per-shape state shared by all instances."""

    def make(self, rng, slot) -> Query:
        raise NotImplementedError

    def finish(self):
        return []

    def close(self):
        pass


# ---------------------------------------------------------------------------
# coproduct: coproduct_frames, then points_of and is_spatial
# ---------------------------------------------------------------------------

class Coproduct(Workload):
    name = "coproduct"
    nominal_block_s = 1.6
    recipe = (
        # 2 to 10 elements
        ("one", "sier"), ("disc2", "one"), ("sier", "sier"), ("one", "six"),
        ("disc2", "sier"), ("chain3", "sier"), ("chain3", "one", "sier"),
        # 20 elements: the median
        ("chain3", "chain3"), ("chain3", "chain3"), ("chain3", "chain3"), ("chain3", "chain3"),
        ("chain3", "chain3"), ("chain3", "chain3"), ("chain3", "chain3"), ("chain3", "chain3"),
        # 36 to 50 elements: the 90th percentile falls on the pair of 50s
        ("disc2", "six"), ("chain3", "six"), ("chain3", "sier", "sier"),
        ("chain3", "sier", "sier"),
        # 100 elements
        ("chain3", "disc2", "sier"),
    )

    def prepare(self):
        self.expected = {}   # shape -> (elements, points, order profile)
        self.kept = {}       # shape -> (factor spaces, coproduct frame)

    def make(self, rng, slot):
        lf = self.lf
        order = list(slot)
        rng.shuffle(order)
        spaces = [_space(lf, k, rng) for k in order]
        frames = [lf.frames.frame_from_space(s) for s in spaces]
        shape = tuple(sorted(slot))
        if shape not in self.expected:
            # Oracle: the product topology.  A finite product of finite T0
            # spaces is T0, hence sober, so its points are the product points.
            prod = lf.products.product_space(spaces)
            opens = list(prod.opens)
            self.expected[shape] = (len(opens), len(prod.points),
                                    _order_profile(opens, lambda a, b: a <= b))

        def run():
            locale, _phi = lf.products.coproduct_frames(frames)
            frame = locale.frame
            return frame, len(lf.frames.points_of(frame)), lf.frames.is_spatial(frame)[0]

        def check(verdict):
            frame, n_points, spatial = verdict
            elements, points, profile = self.expected[shape]
            got = (len(frame.elements), n_points, spatial)
            if got != (elements, points, True):
                return f"coproduct {order}: (elements, points, spatial) {got}, want {(elements, points, True)}"
            if _order_profile(frame.elements, frame.le) != profile:
                return f"coproduct {order}: order differs from the product space's"
            self.kept.setdefault(shape, (spaces, frame))
            return None

        return Query(f"coproduct-{self.expected[shape][0]}", run, check)

    def finish(self):
        """frame_iso of one coproduct per shape against its product space frame."""
        lf = self.lf
        errors = []
        for shape, (spaces, frame) in sorted(self.kept.items()):
            oracle = _frame_of_opens(lf, lf.products.product_space(spaces).opens)
            if not lf.frames.frame_iso(frame, oracle)[0]:
                errors.append(f"coproduct {shape}: not isomorphic to the product space frame")
        return errors


# ---------------------------------------------------------------------------
# entail: entails, and derivation when the judgment is derivable
# ---------------------------------------------------------------------------

def _cyclic(n, rng):
    return {(a, b): (a + b) % n for a in range(n) for b in range(n)}


def _max_semilattice(n, rng):
    return {(a, b): max(a, b) for a in range(n) for b in range(n)}


def _null(n, rng):
    """Unit 0, zero n-1, and every product of two non-units is zero."""
    return {(a, b): b if a == 0 else a if b == 0 else n - 1
            for a in range(n) for b in range(n)}


def _catalogue(n, rng):
    """A commutative monoid on n elements with unit 0, drawn uniformly from
    the commutative tables that are associative."""
    cells = [(a, b) for a in range(1, n) for b in range(a, n)]
    for _ in range(100_000):
        table = {(a, 0): a for a in range(n)}
        table.update({(0, a): a for a in range(n)})
        for a, b in cells:
            table[(a, b)] = table[(b, a)] = rng.randrange(n)
        if all(table[(table[(a, b)], c)] == table[(a, table[(b, c)])]
               for a in range(n) for b in range(n) for c in range(n)):
            return table
    raise RuntimeError(f"no associative table drawn on {n} elements")


MONOIDS = {"cyclic": _cyclic, "max": _max_semilattice, "null": _null,
           "catalogue": _catalogue}


def _proof_error(p, proof, Judgment):
    """None when every step of a derivation applies one of the four rules."""
    stack = [proof]
    while stack:
        d = stack.pop()
        j, prem = d.conclusion, d.premises
        if d.rule == "axiom":
            ok = not prem and j in p.axioms
        elif d.rule == "member":
            ok = not prem and j.subject in j.cover
        elif d.rule == "divide":
            ok = (not prem and len(j.cover) == 1
                  and any(p.product(a, b) == j.subject for a in j.cover for b in p.elements))
        elif d.rule == "product":
            ok = (len(prem) == 2
                  and all(q.conclusion.subject == j.subject for q in prem)
                  and p.cover_product(prem[0].conclusion.cover,
                                      prem[1].conclusion.cover) == j.cover)
        elif d.rule == "compose":
            first = prem[0].conclusion if prem else None
            ok = (first is not None and first.subject == j.subject
                  and {q.conclusion for q in prem[1:]}
                  == {Judgment(u, j.cover) for u in first.cover})
        else:
            ok = False
        if not ok:
            return f"invalid {d.rule} step concluding {j}"
        stack.extend(prem)
    return None


class Entail(Workload):
    name = "entail"
    nominal_block_s = 1.2
    # (monoid family, elements, axioms, judgment derivable?)
    recipe = (
        ("catalogue", 4, 0, False), ("catalogue", 4, 1, False), ("catalogue", 4, 2, False),
        ("catalogue", 4, 1, True), ("max", 4, 0, False), ("max", 4, 1, False),
        # the median: one saturation of the 4-element null monoid
        ("null", 4, 0, False), ("null", 4, 0, False), ("null", 4, 0, False),
        ("null", 4, 0, False), ("null", 4, 0, False), ("null", 4, 0, False),
        ("null", 4, 0, False), ("null", 4, 0, False),
        ("cyclic", 4, 0, True), ("max", 5, 0, False),
        # the 90th percentile: entails plus derivation on the 5-element
        # max-semilattice
        ("max", 5, 0, True), ("max", 5, 0, True), ("max", 5, 0, True),
        ("max", 6, 0, False),
    )

    def make(self, rng, slot):
        lf = self.lf
        family, n, n_axioms, want = slot
        Judgment = lf.formal.Judgment
        for _ in range(200):
            names = _names(rng, n)
            table = MONOIDS[family](n, rng)
            mul = {(names[a], names[b]): names[v] for (a, b), v in table.items()}
            covers = [frozenset(x for i, x in enumerate(names) if mask >> i & 1)
                      for mask in range(1, 2 ** n)]
            axioms = tuple(Judgment(rng.choice(names), rng.choice(covers))
                           for _ in range(n_axioms))
            p = lf.formal.FormalPresentation(tuple(names), names[0], mul, axioms)
            # Oracle: the relational C1-C4 closure of the presentation.
            closed, _ = lf.covering.saturate(lf.formal.to_covering_relation(p))
            candidates = [(a, u) for a in names for u in covers]
            rng.shuffle(candidates)
            found = next(((a, u) for a, u in candidates if closed.holds(a, u) == want), None)
            if found is not None:
                break
        else:
            raise RuntimeError(f"no judgment with derivable={want} for {slot}")
        j = Judgment(*found)

        def run():
            ok = lf.formal.entails(p, j)
            return ok, lf.formal.derivation(p, j) if ok else None

        def check(verdict):
            ok, proof = verdict
            if ok != want:
                return f"entails({j}) on {family} {n} with axioms {axioms}: {ok}, oracle {want}"
            if ok and (proof is None or proof.conclusion != j):
                return f"derivation({j}) does not conclude the judgment"
            return _proof_error(p, proof, Judgment) if ok else None

        return Query(f"entail-{n}-{'yes' if want else 'no'}", run, check)


# ---------------------------------------------------------------------------
# saturate: the C1-C4 closure of a few generators
# ---------------------------------------------------------------------------

class Saturate(Workload):
    name = "saturate"
    nominal_block_s = 1.0
    recipe = (
        # frames with 6 elements
        ("sier", "sier"), ("sier", "sier"), ("six",), ("six",), ("one", "six"), ("one", "six"),
        # the median: the 10-element frame
        ("chain3", "sier"), ("chain3", "sier"), ("chain3", "sier"), ("chain3", "sier"),
        ("chain3", "one", "sier"), ("chain3", "one", "sier"), ("chain3", "one", "sier"),
        ("chain3", "one", "sier"),
        # 8 and 9 elements
        ("disc3",), ("disc2", "sier"),
        # 20 elements: the 90th percentile
        ("chain3", "chain3"), ("chain3", "chain3"), ("chain3", "chain3"),
        # the 4-point subset carrier
        "subsets4",
    )

    def prepare(self):
        self.shapes = {}     # shape -> (frame, set of canonical pairs, sorted pairs)
        for shape in set(self.recipe) - {"subsets4"}:
            frame = _shape_frame(self.lf, shape)
            canonical = self.lf.products.canonical_cov(frame).pairs
            key = lambda pair: (pair[0], sorted(pair[1]))
            self.shapes[shape] = (frame, canonical, sorted(canonical, key=key))

    def make(self, rng, slot):
        if slot == "subsets4":
            return self._subsets(rng)
        lf = self.lf
        frame, canonical, pairs = self.shapes[slot]
        names = dict(zip(frame.elements, _names(rng, len(frame.elements))))
        back = {v: k for k, v in names.items()}
        carrier = lf.carrier.Preorder(names.values(),
                                      {(names[a], names[b]) for a, b in frame.le_set},
                                      names[frame.top])
        gens = frozenset((names[a], frozenset(names[x] for x in u))
                         for a, u in rng.sample(pairs, rng.randint(1, 3)))
        rel = lf.covering.CoveringRelation(carrier, gens)

        def run():
            return lf.covering.saturate(rel)

        def check(verdict):
            closed, trace = verdict
            if not trace.final_is_empty:
                return f"saturate on {slot}: the trace does not end with an empty round"
            if not rel.pairs <= closed.pairs:
                return f"saturate on {slot}: a generator is missing from the closure"
            outside = [(a, u) for a, u in closed.pairs
                       if (back[a], frozenset(back[x] for x in u)) not in canonical]
            if outside:
                return f"saturate on {slot}: {len(outside)} pairs outside canonical_cov"
            return None

        return Query(f"saturate-{len(frame.elements)}", run, check)

    def _subsets(self, rng):
        lf = self.lf
        points = _names(rng, 4)
        carrier = lf.carrier.SubsetCarrier(points)
        # One generator, a two-point piece covered by its two points.  Random
        # generators change the closure's size, and with it the cost, by up to
        # 60%; this shape keeps the cost of the heaviest query fixed.
        piece = rng.sample(points, 2)
        gens = frozenset({(frozenset(piece), frozenset(frozenset([x]) for x in piece))})
        rel = lf.covering.CoveringRelation(carrier, gens)

        def run():
            return lf.covering.saturate(rel)

        def check(verdict):
            closed, trace = verdict
            if not trace.final_is_empty:
                return "saturate on 4 points: the trace does not end with an empty round"
            if not rel.pairs <= closed.pairs:
                return "saturate on 4 points: a generator is missing from the closure"
            # a <= union(U) is closed under C1-C4 and holds for the generators.
            if any(not a <= frozenset().union(*u) for a, u in closed.pairs):
                return "saturate on 4 points: a pair is not covered by its cover's union"
            return None

        return Query("saturate-subsets4", run, check)


# ---------------------------------------------------------------------------
# cli: locfine.cli.main in-process on generated .cov files
# ---------------------------------------------------------------------------

def _run_cli(lf, argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = lf.cli.main(argv)
    return code, out.getvalue()


def _fmt_cover(u):
    return " ".join("{" + " ".join(sorted(m)) + "}" for m in sorted(u, key=sorted))


class Cli(Workload):
    name = "cli"
    nominal_block_s = 0.85
    recipe = (
        ("witness", 7, True), ("witness", 8, False), ("witness", 8, True),
        ("lambda", 6), ("lambda", 7), ("lambda", 8),
        # the median: check on the 10-element frame
        ("check", ("chain3", "sier")), ("check", ("chain3", "sier")),
        ("check", ("chain3", "sier")), ("check", ("chain3", "sier")),
        ("check", ("chain3", "one", "sier")), ("check", ("chain3", "one", "sier")),
        ("check", ("chain3", "one", "sier")), ("check", ("chain3", "one", "sier")),
        ("game", 8, True), ("game", 9, False),
        # the 90th percentile
        ("game", 10, True), ("game", 10, True), ("game", 10, True),
        ("check", ("chain3", "chain3")),
    )

    def prepare(self):
        os.makedirs(self.workdir, exist_ok=True)
        self.count = 0
        self.covrel = {}     # shape -> canonical covering relation as .cov text
        for slot in self.recipe:
            if slot[0] == "check" and slot[1] not in self.covrel:
                rel = self.lf.products.canonical_cov(_shape_frame(self.lf, slot[1]))
                self.covrel[slot[1]] = self.lf.cli.emit_structure("covrel", rel)

    def _write(self, text):
        self.count += 1
        path = os.path.join(self.workdir, f"q{self.count}.cov")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        return path

    def _monoid(self, rng, n):
        points = _names(rng, n)
        basis = []
        for _ in range(rng.randint(2, 3)):
            members, rest = set(), set(points)
            while rest:
                m = frozenset(rng.sample(points, rng.randint(1, max(1, n // 2))))
                members.add(m)
                rest -= m
            basis.append(frozenset(members))
        return self.lf.covering.CoveringMonoid(self.lf.carrier.SubsetCarrier(points), tuple(basis))

    def _target(self, rng, m, member):
        """A cover in the locally fine closure of m (member) or outside it."""
        lf = self.lf
        points = sorted(m.carrier.points)
        for _ in range(1000):
            if member:
                meet = lf.carrier.fold_meet(m.basis, m.carrier)
                v = frozenset(x | frozenset(rng.sample(points, rng.randint(0, 1)))
                              for x in sorted(meet, key=sorted))
            else:
                v = frozenset(frozenset(rng.sample(points, rng.randint(1, len(points) - 1)))
                              for _ in range(rng.randint(1, 3)))
            v = lf.carrier.normalize(v, m.carrier)
            # Theorem 6 oracle: closure membership is refinement by the meet
            # of the basis.
            if lf.covering.member(m, v) == member:
                return v
        raise RuntimeError("no target with the wanted membership")

    def make(self, rng, slot):
        return getattr(self, "_" + slot[0])(rng, *slot[1:])

    def _game(self, rng, n, member):
        lf = self.lf
        m = self._monoid(rng, n)
        g = lf.game.GameSpec(m, self._target(rng, m, member))
        path = self._write(lf.cli.emit_structure("game", g))
        argv = ["--json", "game", path, "--strategy"]

        def check(verdict):
            code, text = verdict
            out = json.loads(text)
            if code != 0 or out["winner"] != ("I" if member else "II"):
                return f"game on {n} points: exit {code}, winner {out.get('winner')}, oracle member={member}"
            if not member:
                return None if out["strategy"] is None else "game: a strategy for Player II's game"
            moves = {frozenset(k.split(",")) if k != "{}" else frozenset():
                     frozenset(frozenset(x) for x in u) for k, u in out["strategy"].items()}
            traces = lambda p: {lf.carrier.restrict(b, p, m.carrier) for b in m.basis}
            if any(u not in traces(p) for p, u in moves.items()):
                return f"game on {n} points: a move is not the trace of a basis cover"
            try:
                lf.game.replay(g, lf.game.Strategy(moves))
            except (AssertionError, KeyError) as exc:
                return f"game on {n} points: replaying the strategy failed: {exc!r}"
            return None

        return Query(f"cli-game-{n}", lambda: _run_cli(lf, argv), check)

    def _witness(self, rng, n, member):
        lf = self.lf
        m = self._monoid(rng, n)
        v = self._target(rng, m, member)
        argv = ["--json", "witness", self._write(lf.cli.emit_structure("monoid", m)),
                "--target", _fmt_cover(v)]

        def tree(node):
            return lf.covering.NoetherianTree(
                frozenset(node["node"]), tuple(tree(c) for c in node["children"]))

        def check(verdict):
            code, text = verdict
            out = json.loads(text)
            if code != (0 if member else 1) or out["found"] != member:
                return f"witness on {n} points: exit {code}, found {out.get('found')}, oracle {member}"
            if member and not lf.covering.check_witness(m, v, tree(out["tree"])):
                return f"witness on {n} points: the tree is not a valid witness"
            return None

        return Query(f"cli-witness-{n}", lambda: _run_cli(lf, argv), check)

    def _lambda(self, rng, n):
        lf = self.lf
        m = self._monoid(rng, n)
        argv = ["--json", "lambda", self._write(lf.cli.emit_structure("monoid", m)), "--rank"]
        # Oracles: the closure's basis is the set of folded meets of basis
        # covers; rank 0 means the monoid is already locally fine.
        closure = set(lf.covering.meet_closure(m.basis, m.carrier))
        fine = lf.covering.is_locally_fine(m)

        def check(verdict):
            code, text = verdict
            out = json.loads(text)
            basis = {frozenset(frozenset(x) for x in u) for u in out["basis"]}
            if code != 0 or basis != closure:
                return f"lambda on {n} points: exit {code}, basis differs from the meet closure"
            if (out["rank"] == 0) != fine:
                return f"lambda on {n} points: rank {out['rank']} but locally fine is {fine}"
            return None

        return Query(f"cli-lambda-{n}", lambda: _run_cli(lf, argv), check)

    def _check(self, rng, shape):
        lf = self.lf
        text = self.covrel[shape]
        labels = sorted(set(re.findall(r"\bx\d+\b", text)))
        names = dict(zip(labels, _names(rng, len(labels))))
        path = self._write(re.sub(r"\bx\d+\b", lambda mt: names[mt.group()], text))
        argv = ["--json", "check", path]

        def check(verdict):
            code, text_out = verdict
            out = json.loads(text_out)
            # canonical_cov is closed under C1-C4 by construction.
            if code != 0 or not out["ok"] or out["violations"]:
                return f"check on canonical_cov of {shape}: exit {code}, ok {out.get('ok')}"
            return None

        return Query(f"cli-check-{len(labels)}", lambda: _run_cli(lf, argv), check)

    def close(self):
        for i in range(1, self.count + 1):
            with contextlib.suppress(FileNotFoundError):
                os.remove(os.path.join(self.workdir, f"q{i}.cov"))
        with contextlib.suppress(OSError):
            os.rmdir(self.workdir)


WORKLOADS = {w.name: w for w in (Coproduct, Entail, Saturate, Cli)}
