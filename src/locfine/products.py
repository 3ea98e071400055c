"""Products of cover monoids, generated locales, and frame coproducts.

A covering relation generates a locale of saturations sat(U) = {b : Cov(b,
U)}, ordered by inclusion and canonical, as U <= V exactly when sat(U) is
contained in sat(V).  One kernel, ``_Coverage``, computes saturations as
least fixpoints of Horn rules (Dowling & Gallier, 1984).  The coproduct of
finite frames is generated on the weak product by single-coordinate splits
(a, U), U replacing one coordinate of a by a family join-dominating it;
each split is one rule.  As sat(U | {b}) is the least closed superset of
sat(U) and b (C4), one fold finds every locale element, one class
representative at a time, each step growing the closed set it holds.

The locale's order is read from saturation columns: with col[b] the int
bitmask of the elements whose saturation holds b, the elements above s are
the AND of col[b] over b in s, and those below s the AND of the complements
of col[b] over b not in s.  Every element is the join of the images
sat({b}) below it, so the frame's point search tests only those.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from itertools import product as iproduct
from operator import and_

from .carrier import (
    Preorder,
    SubsetCarrier,
    all_canonical_covers,
    antichains,
    cover_key,
    fold_meet,
    normalize,
)
from .covering import (
    DEFAULT_MAX_COVERS,
    CoveringMonoid,
    CoveringRelation,
    _meet_stages,
    fine_monoid,
)
from .errors import LimitExceededError
from .frames import Frame, SpaceDescription, frame_from_space, is_spatial, points_of


# ---------------------------------------------------------------------------
# Products of spaces and of cover monoids
# ---------------------------------------------------------------------------

def product_points(point_sets):
    """Cartesian product of point sets, named by comma-joined components;
    a name may hold ',', so two tuples that join to one name are an error."""
    combos = list(iproduct(*[sorted(ps) for ps in point_sets]))
    names = {}
    for c in combos:
        name = ",".join(c)
        if names.setdefault(name, c) != c:
            raise ValueError(f"product points {names[name]} and {c} share the name {name!r}")
    return list(names), combos


def product_space(spaces) -> SpaceDescription:
    """The product topology: every union of a set of rectangle opens."""
    for s in spaces:
        s.validate()
    names, _ = product_points([s.points for s in spaces])
    opens = {frozenset()}
    for rect in iproduct(*[s.opens for s in spaces]):
        r = frozenset(",".join(c) for c in iproduct(*rect))
        opens |= {o | r for o in opens}
    return SpaceDescription(frozenset(names), frozenset(opens))


def pullback_cover(cover, axis, point_sets):
    """Preimage of a factor cover under the projection to that factor."""
    names, combos = product_points(point_sets)
    out = set()
    for u in cover:
        out.add(frozenset(name for name, combo in zip(names, combos)
                          if combo[axis] in u))
    return frozenset(out)


def _pullbacks(ms):
    """The product carrier and the sorted pullbacks of the basis covers."""
    ms = list(ms)
    if not ms:
        raise ValueError("the product of no monoids is undefined")
    for m in ms:
        if not isinstance(m.carrier, SubsetCarrier):
            raise ValueError("product_monoid expects subset carriers")
    point_sets = [m.carrier.points for m in ms]
    names, _ = product_points(point_sets)
    carrier = SubsetCarrier(names)
    pullbacks = {normalize(pullback_cover(b, i, point_sets), carrier)
                 for i, m in enumerate(ms) for b in m.basis}
    return carrier, sorted(pullbacks, key=lambda c: cover_key(c, carrier))


def product_monoid(ms, max_basis: int = DEFAULT_MAX_COVERS) -> CoveringMonoid:
    """Product of cover monoids over subset carriers.

    The basis consists of all finite meets of pullbacks of factor basis
    covers (basic rectangular covers), at most ``max_basis`` distinct ones.
    """
    carrier, pullbacks = _pullbacks(ms)
    basis = []
    for stage in _meet_stages(pullbacks, carrier):
        basis += stage
        if len(basis) > max_basis:
            raise LimitExceededError(
                f"product basis would exceed {max_basis} meets")
    return CoveringMonoid(carrier, tuple(basis))


# ---------------------------------------------------------------------------
# Canonical covering relations and generated locales
# ---------------------------------------------------------------------------

def frame_preorder(f: Frame) -> Preorder:
    return Preorder(f.elements, f.le_set, f.top)


def canonical_cov(f: Frame, max_covers: int = DEFAULT_MAX_COVERS) -> CoveringRelation:
    """The full relation {(a, U) : a <= join U} of a finite frame."""
    carrier = frame_preorder(f)
    covers = all_canonical_covers(carrier, max_count=max_covers)
    pairs = {(a, u) for u in covers for a in f.down_set(f.big_join(u))}
    return CoveringRelation(carrier, frozenset(pairs))


@dataclass
class GeneratedLocale:
    """A locale presented by saturated subsets of a base carrier."""

    carrier: object
    cov: _Coverage
    elements: tuple
    frame: Frame
    reps: dict

    def label_of(self, satset):
        return self._by_set[satset]

    def __post_init__(self):
        self._by_set = {self.frame.meaning(x): x for x in self.frame.elements}


def _locale_from_sats(carrier, cov, sats_with_reps, generators=None) -> GeneratedLocale:
    """The locale of the given saturations, labelled x0, x1, ... by size.

    The order comes from the columns col[b], as the module describes.
    ``generators``, when given, are saturations of which every element is a
    join; only they can be join-prime, so the point search tests only them.
    """
    atoms = frozenset().union(*sats_with_reps)
    rank = {b: r for r, b in enumerate(sorted(atoms, key=carrier.key))}
    ordered = sorted(sats_with_reps,
                     key=lambda s: (len(s), sorted(map(rank.__getitem__, s))))
    labels = tuple(f"x{i}" for i in range(len(ordered)))
    index = {s: i for i, s in enumerate(ordered)}
    n = len(ordered)
    cols = {b: bytearray((n + 7) // 8) for b in atoms}
    for i, s in enumerate(ordered):
        for b in s:
            cols[b][i >> 3] |= 1 << (i & 7)
    full = (1 << n) - 1
    col = {b: int.from_bytes(c, "little") for b, c in cols.items()}
    outside = {b: full ^ c for b, c in col.items()}
    up, down = {}, {}
    for i, s in enumerate(ordered):
        up[labels[i]] = reduce(and_, map(col.__getitem__, s), full)
        # sorted by size, so no subset of s comes later: start from bits 0..i
        down[labels[i]] = reduce(and_, map(outside.__getitem__, atoms - s), (2 << i) - 1)
    dense = None
    if generators is not None:
        dense = sum(1 << i for i in {index[s] for s in generators})
    frame = Frame._from_masks(labels, up, down, dict(zip(labels, ordered)), dense)
    reps = {labels[i]: sats_with_reps[s] for i, s in enumerate(ordered)}
    return GeneratedLocale(carrier, cov, tuple(ordered), frame, reps)


def _fold_locale(cov, max_covers, what):
    """The locale of saturations folded from sat(empty), one class
    representative b at a time, skipping b in sat(U) (U | {b} ~ U): each
    step gives sat(U | {b}) as the least closed superset of sat(U) and b.
    Returns the locale and each b's saturation sat({b}), the locale's
    generators."""
    carrier = cov.carrier
    start = cov.derivable_set(frozenset())
    sats = {start: frozenset()}
    gens = {}
    for b in carrier.class_reps():
        gens[b] = start
        for s, rep in [(s, rep) for s, rep in sats.items() if b not in s]:
            t = cov._extend(s, [b])
            if s is start:
                gens[b] = t
            if t not in sats:
                sats[t] = normalize(rep | {b}, carrier)
        if len(sats) > max_covers:
            raise LimitExceededError(f"{what} exceeded the size guard")
    return _locale_from_sats(carrier, cov, sats, gens.values()), gens


class _Coverage:
    """Least fixpoint of Horn rules (head, body) over class representatives:
    sat(U) holds U's normalized members and each head whose body it holds.

    ``_extend`` grows a closed set: sat(U | {b}) is the least closed
    superset of sat(U) and b, so it derives b and wakes only the rules that
    watch a newly derived atom, each firing when its body lies in the
    derived set.  ``derivable_set`` is the same step from the empty set with
    U and the empty-bodied heads, memoised."""

    def __init__(self, carrier, rules):
        self.carrier = carrier
        self.rules = rules
        self._start = [head for head, body in rules if not body]
        self._watch = {}
        for i, (_, body) in enumerate(rules):
            for m in body:
                self._watch.setdefault(m, []).append(i)
        self._memo = {}

    def derivable_set(self, target) -> frozenset:
        """All class representatives b with (b, target) in the closure."""
        target = normalize(target, self.carrier)
        got = self._memo.get(target)
        if got is None:
            got = self._memo[target] = self._extend(frozenset(), [*target, *self._start])
        return got

    def _extend(self, closed, atoms) -> frozenset:
        """The least closed superset of a closed set and some atoms."""
        derived = set(closed)
        todo = list(atoms)
        while todo:
            a = todo.pop()
            if a not in derived:
                derived.add(a)
                for i in self._watch.get(a, ()):
                    head, body = self.rules[i]
                    if head not in derived and body <= derived:
                        todo.append(head)
        return frozenset(derived)

    def holds(self, a, u) -> bool:
        self.carrier.check_element(a)
        return self.carrier.rep(a) in self.derivable_set(u)


def locale_from_cov(rel: CoveringRelation,
                    max_covers: int = DEFAULT_MAX_COVERS) -> GeneratedLocale:
    """The locale a covering relation generates, of at most ``max_covers``
    elements.  The kernel uses order rules (x, {y}), x <= y, and localised
    rules (x, V /\\ {x}), x <= g, per generator (g, V) (Coquand, Sambin,
    Smith & Valentini, APAL 124, 2003); the empty piece's order rule has an
    empty body, as C2 gives.

    Sound: each rule is derivable (C2; C2, C4, and C3 with (x, {x})).
    Complete: sat(U) holds U and all below it (C1, C2); g is in sat(V) as
    g /\\ V refines V; C4, as sat(V) holds sat(U) once it holds U.  C3: for
    a rule (h, B) and c <= h, c is derived from pieces below c and a member
    of B (c itself, or the body of c's localised rule); so by induction on
    a in sat(U), then on c in sat(V), all d below a and c lie in sat(U /\\ V).
    """
    carrier = rel.carrier
    reps = carrier.class_reps()
    rules = [(x, normalize([y], carrier))
             for x in reps for y in reps if carrier.le(x, y)]
    # a localised rule depends on (x, V) alone, not on the generator g
    localised = dict.fromkeys((x, v) for (g, v) in rel.pairs
                              for x in reps if carrier.le(x, g))
    rules += dict.fromkeys((x, carrier.meet(v, (x,)))
                           for x, v in localised)
    locale, _ = _fold_locale(_Coverage(carrier, rules), max_covers, "generated locale")
    return locale


class ProductCoverage(_Coverage):
    """The C1-C4 closure of single-coordinate splits over a frame product:
    ``_splits[i][x]`` lists the families of factor i that join-dominate x."""

    def __init__(self, factors, max_covers: int = DEFAULT_MAX_COVERS):
        self.factors = list(factors)
        elems = [tuple(c) for c in iproduct(*[f.elements for f in self.factors])]
        le = {(a, b) for a in elems
              for b in iproduct(*[f.up_set(x) for f, x in zip(self.factors, a)])}
        self.top = tuple(f.top for f in self.factors)
        self.carrier = Preorder(elems, le, self.top)
        self._splits = []
        for f in self.factors:
            covers = antichains(sorted(f.elements), f.le, max_count=max_covers)
            # f.le(x, None) is false: a family with no join splits nothing
            self._splits.append({x: [c for c in covers if f.le(x, f.big_join(c))]
                                 for x in f.elements})
        super().__init__(self.carrier, self._split_rules())

    def _split_rules(self):
        return [(b, frozenset(b[:i] + (x,) + b[i + 1:] for x in s))
                for b in self.carrier.class_reps()
                for i, table in enumerate(self._splits) for s in table[b[i]]]

    # perfbench counts coproduct work by wrapping this name on this class
    derivable_set = _Coverage.derivable_set


@dataclass
class EmbeddingPhi:
    """The map u -> [u] from the product poset into the coproduct frame."""

    assignments: dict

    def __getitem__(self, b):
        return self.assignments[b]


def coproduct_frames(fs, max_covers: int = DEFAULT_MAX_COVERS):
    """Coproduct of finite frames via the generated locale, with the
    embedding of the weak product into it."""
    locale, gens = _fold_locale(ProductCoverage(fs, max_covers=max_covers),
                                max_covers, "coproduct locale")
    return locale, EmbeddingPhi({b: locale.label_of(t) for b, t in gens.items()})


# ---------------------------------------------------------------------------
# The product theorems as executable reports
# ---------------------------------------------------------------------------

def _rects(factors, point_sets):
    """rect(b): the concrete open box each product element denotes."""
    names, combos = product_points(point_sets)
    out = {}
    for b in iproduct(*[f.elements for f in factors]):
        opens = [f.meaning(x) for f, x in zip(factors, b)]
        out[tuple(b)] = frozenset(
            name for name, combo in zip(names, combos)
            if all(c in o for c, o in zip(combo, opens)))
    return out


def embed_phi_check(locale: GeneratedLocale, phi: EmbeddingPhi, coverage=None):
    """Verify the coproduct embedding: order preserved and reflected, pairs
    carried into the locale's canonical relation, and every locale cover
    refined by the image of a derivable product cover.

    Every derivable (a, U) has phi[a] <= join phi[U] exactly when each rule
    (head, body) has phi[head] <= join phi[body]: enough by induction on
    derivations, a join being least; needed, as C2 derives (head, body).
    Each locale element x must be sat(reps[x]), with phi[b] <= x for b in
    reps[x]; then the union U of reps[x] over a locale cover e has sat(U) =
    join e, which holds the top, and each b in U lies below its x in e.
    """
    coverage = coverage if coverage is not None else locale.cov
    carrier = locale.carrier
    frame = locale.frame
    report = []
    elems = carrier.class_reps()
    bottoms = [f.bottom for f in coverage.factors]
    degenerate = {b for b in elems
                  if any(x == bot for x, bot in zip(b, bottoms))}
    for u in elems:
        for v in elems:
            if carrier.le(u, v) and not frame.le(phi[u], phi[v]):
                report.append(f"phi drops the order at {u} <= {v}")
            if u in degenerate or v in degenerate:
                continue
            if frame.le(phi[u], phi[v]) and not carrier.le(u, v):
                report.append(f"phi conflates {u} and {v}")
    for u in elems:
        # every tuple with a bottom coordinate presents the empty piece
        if u in degenerate and phi[u] != frame.bottom:
            report.append(f"degenerate element {u} misses the bottom")
    for head, body in coverage.rules:
        if not frame.le(phi[head], frame.big_join(phi[b] for b in body)):
            u = normalize(body, carrier)
            report.append(f"phi drops pair ({head}, {sorted(map(str, u))})")
    for x in frame.elements:
        rep = sorted(locale.reps[x], key=carrier.key)
        if coverage.derivable_set(rep) != frame.meaning(x):
            report.append(f"locale element {x} is not the saturation of "
                          f"{sorted(map(str, rep))}")
        for b in rep:
            if not frame.le(phi[b], x):
                report.append(f"image member {phi[b]} escapes locale element {x}")
    return report


def _check_on_locale(spaces, max_covers):
    """Compare the closed product relation with the geometric covering on
    the coproduct locale.  With rect(b) the box b denotes, R(U) the union of
    rect over U and rho(x) = R(meaning(x)), two things are checked:

    (i) each split rule (b, kids) is sound, rect(b) <= R(kids).  The rules
        include every single-coordinate step b <= b', so every derivable
        pair is then geometrically true and rho(sat U) = R(U).
    (ii) rho is injective on the locale.

    Given (i), (ii) holds exactly when every geometric pair is derivable:
    then sat(U) = {a : rect(a) <= R(U)} is fixed by rho(sat U); and if
    rect(a) <= R(U), rho(sat(U | {a})) = rho(sat U), so a is in sat(U).
    Without (i), an unsound split can collapse the locale and leave rho
    injective.  Returns the locale, the unsound rules and the conflated
    pairs (earlier, later) of locale elements.
    """
    factors = [frame_from_space(s) for s in spaces]
    locale, _ = coproduct_frames(factors, max_covers=max_covers)
    rect = _rects(factors, [s.points for s in spaces])

    def union(bs):
        return frozenset().union(*(rect[b] for b in bs))

    unsound = [(b, kids) for b, kids in locale.cov.rules
               if not rect[b] <= union(kids)]
    first = {}
    conflated = []
    for x in locale.frame.elements:
        y = first.setdefault(union(locale.frame.meaning(x)), x)
        if y != x:
            conflated.append((y, x))
    return locale, unsound, conflated


def rect_basis_check(spaces, max_covers: int = DEFAULT_MAX_COVERS):
    """Every geometric cover of a box is refined by a derivable box cover.

    C3 with (a, {a}) turns a derivable (a, U) into a cover by the boxes
    a /\\ x, which refine the finest box cover, so this says every geometric
    pair is derivable: given sound splits, that rho is injective.
    """
    _, _, conflated = _check_on_locale(spaces, max_covers)
    return [f"locale elements {x} and {y} denote the same open"
            for x, y in conflated]


def spatial_product_eq(spaces, max_covers: int = DEFAULT_MAX_COVERS):
    """Compare the closed product relation with the geometric fine relation,
    and report spatiality of the coproduct frame alongside."""
    for s in spaces:
        s.validate()
        if not s.is_t0:
            raise ValueError("spatial_product_eq needs T0 factors")
    locale, unsound, conflated = _check_on_locale(spaces, max_covers)
    frame = locale.frame
    pts = points_of(frame)
    spatial, _ = is_spatial(frame)
    equal = not unsound and not conflated
    report = [
        f"closed product relation equals geometric covering: {str(equal).lower()}"
        + ("" if equal else f" ({len(unsound)} unsound split rules, "
                            f"{len(conflated)} conflated elements)"),
        f"coproduct frame spatial: {str(spatial).lower()} "
        f"(elements={len(frame)}, points={len(pts)})",
    ]
    return equal and spatial, report


def star_variant_eq(spaces, regular=None, max_covers: int = DEFAULT_MAX_COVERS):
    """Compare top-pairs of the closed product relation with closure
    membership in the product of fine cover monoids, and report whether that
    closure captures exactly the open-refinable covers of the product.

    v is in the closure when G, the meet of the product basis, refines v.
    That agrees with "the finest open cover F refines v" for every v exactly
    when G = F, as v ranges over both.  With A_g = {x : g <= rect(x)}, G
    refines the boxes of U when U meets each A_g; this and top in sat(U) are
    up-sets of U (sat is monotone by C2, boxes grow with their coordinates),
    so they agree iff, for each g, top is not in sat of the complement of
    A_g, and top is in sat of each choice of one minimal element per A_g.
    """
    if regular is None:
        raise ValueError("regularity must be asserted per factor")
    regular = list(regular)
    if len(regular) != len(spaces):
        raise ValueError("one regularity flag per factor is required")
    factors = [frame_from_space(s) for s in spaces]
    locale, _ = coproduct_frames(factors, max_covers=max_covers)
    coverage = locale.cov
    carrier = coverage.carrier
    rect = _rects(factors, [s.points for s in spaces])
    # G is the meet of every meet of pullbacks, so of the pullbacks alone
    prod_carrier, pullbacks = _pullbacks([fine_monoid(s, max_covers=max_covers)
                                          for s in spaces])
    meet = fold_meet(pullbacks, prod_carrier)

    report = []
    if not all(regular):
        report.append("warning: non-regular factor flagged; equivalence not asserted")

    top = carrier.rep(coverage.top)
    elems = carrier.class_reps()
    inside = [{x for x in elems if g <= rect[x]} for g in meet]
    least = [[x for x in a if not any(y != x and carrier.le(y, x) for y in a)]
             for a in inside]
    eq74 = (all(top not in coverage.derivable_set(set(elems) - a) for a in inside)
            and all(top in coverage.derivable_set(c) for c in iproduct(*least)))
    report.append(
        f"top pairs of the closed product relation match closure membership: "
        f"{str(eq74).lower()}")

    prod = product_space(spaces)
    eq86 = meet == normalize(map(prod.min_open, prod.points), prod_carrier)
    spatial, _ = is_spatial(locale.frame)
    report.append(
        f"closure of the fine-monoid product equals the fine monoid of the "
        f"product: {str(eq86).lower()}")
    report.append(f"coproduct frame spatial: {str(spatial).lower()}")
    return eq74 and eq86 == spatial, report
