"""Frame coproducts, the product-space oracle, and the spatiality theorems.

Run with: python3 demos/04_coproducts_and_spatiality.py
"""

from locfine import (
    coproduct_frames,
    embed_phi_check,
    frame_from_space,
    frame_iso,
    points_of,
    product_space,
    rect_basis_check,
    spatial_product_eq,
    star_variant_eq,
)
from locfine.frames import space_chain3, space_discrete, space_sierpinski

s = space_sierpinski()
print("Coproduct of two Sierpinski frames, generated by single-coordinate")
print("splits of the weak product and closed under C1-C4:")
loc, phi = coproduct_frames([frame_from_space(s), frame_from_space(s)])
print("  locale elements:", len(loc.frame), " points:", len(points_of(loc.frame)))

oracle = frame_from_space(product_space([s, s]))
ok, _ = frame_iso(loc.frame, oracle)
print("  isomorphic to the topology of the product space:", ok)

print("\nThe embedding of the weak product into the coproduct checks out")
print("(order faithful away from bottoms, pairs preserved, covers refined):")
print("  report:", embed_phi_check(loc, phi) or "empty")

d = space_discrete("pq")
print("\nEvery geometric cover of a box is refined by a derivable box cover")
print("(three discrete factors; checked on the 256-element coproduct locale,")
print("where no two elements may denote the same open):")
print("  report:", rect_basis_check([d, d, d]) or "empty")

print("\nSpatiality of the localic product vs the closed product relation:")
eq, report = spatial_product_eq([d, s])
for line in report:
    print("  " + line)
print("  both sides agree:", eq)

print("\nThe star variant, over the product of the fine cover monoids:")
eq, report = star_variant_eq([d, d], regular=[True, True])
for line in report:
    print("  " + line)
print("  verdict:", eq)

print("\nThe same comparison on chain3 x Sierpinski x Sierpinski, whose product")
print("poset has too many canonical covers to list; neither factor is regular:")
eq, report = star_variant_eq([space_chain3(), s, s], regular=[False] * 3)
for line in report:
    print("  " + line)
print("  verdict:", eq)
