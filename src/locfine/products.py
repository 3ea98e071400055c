"""Products of cover monoids, generated locales, and frame coproducts.

A covering relation generates a locale of saturations sat(U) = {b : Cov(b,
U)}, ordered by inclusion and canonical, as U <= V exactly when sat(U) is
contained in sat(V).  One kernel, ``_Coverage``, computes saturations as
least fixpoints of Horn rules (Dowling & Gallier, 1984).  The coproduct of
finite frames is generated on the weak product by single-coordinate splits
(a, U), U replacing one coordinate of a by a family join-dominating it;
each split is one rule.  The product order is read from the factors'
masks, and is transitive when each factor's is; each factor's splits are
compiled once, as rules at the first element of a line of the product,
and shifted along every line.  Saturations are int masks over the
carrier's elements.  As sat(U |
{b}) is the least closed superset of sat(U) and b (C4), one fold finds every
locale element, one class representative at a time.

The locale's order is read from saturation columns: with col[b] the int
bitmask of the elements whose saturation holds b, the elements above s are
the AND of col[b] over b in s, and those below s the AND of the complements
of col[b] over b not in s.  Every element is the join of the images
sat({b}) below it, so the frame's point search tests only those.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, reduce
from itertools import compress
from itertools import product as iproduct
from math import prod
from operator import and_

from .carrier import (
    Preorder,
    SubsetCarrier,
    _antichain_pass,
    _bits,
    _check_transitive,
    _intransitive,
    _selector,
    all_canonical_covers,
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
    """A locale presented by saturated subsets of a base carrier.
    ``rep_masks`` gives each element a mask over ``cov``'s atoms whose
    saturation it is; ``reps`` names its maximal atoms, on first read."""

    carrier: object
    cov: _Coverage
    elements: tuple
    frame: Frame
    rep_masks: dict

    def label_of(self, satset):
        return self._by_set[satset]

    @cached_property
    def reps(self):
        names, maximal = self.cov._names, self.carrier.maximal
        return {x: maximal(names(m)) for x, m in self.rep_masks.items()}

    @cached_property
    def _by_set(self):
        return {self.frame.meaning(x): x for x in self.frame.elements}


def _locale_from_sats(carrier, cov, sats, generators=None):
    """The locale of saturations given as masks over ``cov``'s atoms, each
    mapped to the mask of a set it is the saturation of, labelled x0, x1,
    ... by size, then by the sorted ranks of their atoms; and the labels of
    ``generators``, a join-dense set of saturations."""
    atoms = cov._atoms
    fmt = f"0{len(atoms)}b"
    every = (1 << len(atoms)) - 1
    # bit order is key order: of two sets of one size, the one holding the
    # least atom they do not share comes first
    ordered = sorted(sats,
                     key=lambda s: (s.bit_count(), format(every ^ s, fmt)[::-1]))
    labels = tuple(f"x{i}" for i in range(len(ordered)))
    index = {s: i for i, s in enumerate(ordered)}
    # col[b] is column b of the rows of binary digits, read from the last row
    text = "".join(format(s, fmt)[::-1] for s in reversed(ordered))
    col = [int(text[b::len(atoms)], 2) for b in range(len(atoms))]
    full = (1 << len(ordered)) - 1
    outside = [full ^ c for c in col]
    up, down, meanings = {}, {}, []
    for i, s in enumerate(ordered):
        holds = _selector(s)
        meanings.append(frozenset(compress(atoms, holds)))
        up[labels[i]] = reduce(and_, compress(col, holds), full)
        # sorted by size, so no subset of s comes later: start from bits 0..i
        down[labels[i]] = reduce(and_, compress(outside, _selector(every ^ s)), (2 << i) - 1)
    dense = None if generators is None else sum({1 << index[s] for s in generators.values()})
    frame = Frame._from_masks(labels, up, down, dict(zip(labels, meanings)), dense)
    rep_masks = {labels[i]: sats[s] for i, s in enumerate(ordered)}
    locale = GeneratedLocale(carrier, cov, tuple(meanings), frame, rep_masks)
    return locale, {b: labels[index[s]] for b, s in (generators or {}).items()}


def _fold_locale(cov, max_covers, what):
    """The locale of the saturations folded from sat(empty), one class
    representative b at a time (skipping b in sat(U), as U | {b} ~ U), and
    the label of each generator sat({b})."""
    carrier = cov.carrier
    start = cov._extend(0, cov._start)
    sats = {start: 0}    # each saturation's representatives, as a mask
    gens = {}
    for b in carrier.class_reps():
        bit = cov._bit[b]
        gens[b] = start
        for s in [s for s in sats if not s & bit]:
            t = cov._extend(s, bit)
            if s == start:
                gens[b] = t
            if t not in sats:
                sats[t] = sats[s] | bit
        if len(sats) > max_covers:
            raise LimitExceededError(f"{what} exceeded the size guard")
    return _locale_from_sats(carrier, cov, sats, gens)


class _Coverage:
    """Least fixpoint of Horn rules (head, body) over a carrier: sat(U)
    holds U's normalized members and each head whose body it holds.

    Closed sets are int masks over the carrier's elements in key order.
    ``_extend`` grows one: sat(U | {b}) is the least closed superset of
    sat(U) and b, so it wakes only the rules watching a newly derived atom.
    ``derivable_set`` is that step from the empty set, memoised."""

    def __init__(self, carrier, rules):
        self.carrier = carrier
        self._atoms = tuple(sorted(carrier.elements(), key=carrier.key))
        self._bit = {x: 1 << i for i, x in enumerate(self._atoms)}
        self._watch = [[] for _ in self._atoms]
        self._start, self._memo = 0, {}
        # each rule is watched as (head bit, head | body mask) by its body's atoms
        for head, body in rules:
            head, body = self._bit[head], self._mask(body)
            if not body:
                self._start |= head
            elif not body & head:  # a body holding its head adds nothing
                for i in _bits(body):
                    self._watch[i].append((head, head | body))

    def _mask(self, names) -> int:
        return sum(map(self._bit.__getitem__, names))

    def _names(self, mask) -> frozenset:
        return frozenset(compress(self._atoms, _selector(mask)))

    def derivable_set(self, target) -> frozenset:
        """All class representatives b with (b, target) in the closure."""
        target = normalize(target, self.carrier)
        got = self._memo.get(target)
        if got is None:
            got = self._memo[target] = self._names(
                self._extend(0, self._mask(target) | self._start))
        return got

    def _extend(self, closed, atoms) -> int:
        """The least closed superset of a closed set and a mask of atoms."""
        derived = closed
        todo = atoms & ~closed
        while todo:
            low = todo & -todo
            todo ^= low
            derived |= low
            missing = ~derived
            for head, rule in self._watch[low.bit_length() - 1]:
                if rule & missing == head:  # the head alone is not derived
                    todo |= head
        return derived

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
    return _fold_locale(_Coverage(carrier, rules), max_covers, "generated locale")[0]


def _product_masks(factors):
    """The up- and down-masks of a product of frames, its elements numbered
    in mixed radix over each factor's ``elements``; and per factor its
    stride and cylinders: ``cylinder[x]`` holds the elements whose
    coordinate there is x.  An element's mask is the AND of one cylinder
    union per coordinate."""
    stride = prod(len(f.elements) for f in factors)
    every = (1 << stride) - 1
    ups, downs, axes = [every], [every], []
    for f in factors:
        block, stride = stride, stride // len(f.elements)
        first = ((1 << stride) - 1) * (every // ((1 << block) - 1))
        cylinder = {x: first << p * stride for p, x in enumerate(f.elements)}
        axes.append((stride, cylinder))
        ups = [a & sum(map(cylinder.get, f.up_set(x))) for a in ups for x in f.elements]
        downs = [a & sum(map(cylinder.get, f.down_set(x))) for a in downs for x in f.elements]
    return ups, downs, axes


def _families(f, max_covers):
    """The antichains of factor f as masks over its ``elements``, at most
    ``max_covers`` of them."""
    pos = {x: p for p, x in enumerate(f.elements)}
    comparable = [sum(1 << pos[y] for y in f.up_set(x) | f.down_set(x)) for x in f.elements]
    return [c for c, _ in _antichain_pass(comparable, comparable, (1 << len(pos)) - 1, max_covers)]


class ProductCoverage(_Coverage):
    """The C1-C4 closure of single-coordinate splits over a frame product,
    read from the factors' masks: ``_splits[i][x]`` lists the families of
    factor i that join-dominate x; ``rules``, built on first read, names them."""

    def __init__(self, factors, max_covers: int = DEFAULT_MAX_COVERS):
        self.factors = list(factors)
        names = tuple(iproduct(*[f.elements for f in self.factors]))
        # a product of transitive orders is transitive, so only an
        # intransitive factor sends the product to the scan for its least triple
        if any(_intransitive(f._by_bit, f._up) for f in self.factors):
            _check_transitive(names, dict(zip(names, _product_masks(self.factors)[0])))
        # the families, and so their size guard, come before any product mask
        families = [_families(f, max_covers) for f in self.factors]
        ups, downs, axes = _product_masks(self.factors)
        self.top = tuple(f.top for f in self.factors)
        super().__init__(Preorder._from_masks(names, ups, downs, self.top), ())
        is_rep = _selector(self.carrier._reps).ljust(len(names), b"\0")
        self._splits = [self._add_splits(f, chains, stride, cylinder, is_rep)
                        for f, chains, (stride, cylinder) in zip(self.factors, families, axes)]
        self._start &= self.carrier._reps

    def _add_splits(self, f, chains, stride, cylinder, is_rep):
        """Compile and return by name the splits of factor f.  A family at
        positions P splits each x below its join: at an element t whose
        coordinate here is x, the head bit t and the body ``pattern << t0``,
        with bit p * stride for p in P, t0 being t with this coordinate at
        the first position.  Each rule is compiled once at t0 = 0 into
        ``table[p]`` for p in P, and atom t0 + p * stride watches that table
        shifted by t0.  A head is kept where it is a class representative:
        x is one at t0 = 0, and the line t0 is one."""
        pos = {x: p for p, x in enumerate(f.elements)}
        splits = {x: [] for x in f.elements}
        table = [[] for _ in f.elements]
        for c in chains:
            members = list(_bits(c))
            family = frozenset(f.elements[p] for p in members)
            pattern = sum(1 << p * stride for p in members)
            j = f.big_join(family)
            for x in f.down_set(j) if j is not None else ():
                splits[x].append(family)
                t = pos[x] * stride
                if not is_rep[t] or c >> pos[x] & 1:
                    continue    # not a representative, or a body holding its head
                if not c:
                    self._start |= cylinder[x]
                rule = (1 << t, 1 << t | pattern)
                for p in members:
                    table[p].append(rule)
        watch, block = self._watch, stride * len(table)
        for line in range(0, len(watch), block):
            for t0 in range(line, line + stride):
                if is_rep[t0]:
                    for p, rules in enumerate(table):
                        watch[t0 + p * stride] += [(h << t0, r << t0) for h, r in rules]
        return splits

    @cached_property
    def rules(self):
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
    return locale, EmbeddingPhi(gens)


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
