"""Covering relations, C1-C4 saturation, and the locally fine closure.

Run with: python3 demos/03_saturation_and_closure.py
"""

from locfine import (
    CoveringMonoid,
    CoveringRelation,
    Preorder,
    SubsetCarrier,
    audit_axioms,
    is_locally_fine,
    lambda_close,
    member,
    rank,
    saturate,
    witness_tree,
)

f = frozenset


def cov(*member_sets):
    return f(f(m) for m in member_sets)


print("A generator set over the preorder t >= b >= d, t >= c >= e:")
pre = Preorder.from_edges(
    "tbcde", [("b", "t"), ("c", "t"), ("d", "b"), ("e", "c")], "t")
gens = CoveringRelation(pre, f({
    ("t", f({"b", "c"})), ("b", f({"d"})), ("c", f({"e"}))}))
for a, u in gens.sorted_pairs():
    print("  pair", a, "{" + ", ".join(sorted(u)) + "}")

report = audit_axioms(gens)
print("\nThe audit finds the missing transitivity composites, e.g.:")
print("  " + report.lines(pre)[-1])

closed, trace = saturate(gens)
print("\nAfter saturation the composite cover of the top is present:")
print("  (t, {d, e}) in closure:", closed.holds("t", f({"d", "e"})))
print("  stage it appeared at:",
      trace.stage_of(("t", f({"d", "e"}))))
print("  saturated relation size:", len(closed.pairs), "pairs; audit clean:",
      audit_axioms(closed).ok)

print("\nMonoids of covers: membership asks for a basis cover refining the")
print("query; the locally fine closure adds the meet combinations.")
c = SubsetCarrier(["0", "1", "2"])
m = CoveringMonoid(c, (cov("01", "2"), cov("0", "12")))
v = cov("0", "1", "2")
print("  singletons in the monoid itself: ", member(m, v, use_lambda=False))
print("  singletons in the closure:       ", member(m, v, use_lambda=True))
print("  locally fine already?", is_locally_fine(m), " rank:", rank(m))

lam, trace = lambda_close(m)
print("  closure basis:", len(lam.basis), "covers; stages:",
      [(i, len(new)) for i, new in trace.stages])

tree = witness_tree(m, v)
print("\nThe membership witness is a Noetherian tree (leaves refine the target):")


def render(t, indent=1):
    print("  " * indent + "- {" + ",".join(sorted(t.node)) + "}")
    for ch in t.children:
        render(ch, indent + 1)


render(tree)
