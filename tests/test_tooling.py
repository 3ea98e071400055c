"""Repository guards: the runtime imports nothing outside the standard library,
and the public names stay as pinned."""

import ast
import os
import sys

import locfine

SRC = os.path.dirname(os.path.abspath(locfine.__file__))


def test_runtime_imports_only_the_standard_library():
    sources = sorted(n for n in os.listdir(SRC) if n.endswith(".py"))
    assert "carrier.py" in sources
    outside = []
    for name in sources:
        with open(os.path.join(SRC, name), encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), filename=name)
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules = [node.module]
            else:
                continue
            outside += [(name, m) for m in modules
                        if m.split(".")[0] not in sys.stdlib_module_names]
    assert outside == []


PUBLIC = {
    "Cover", "Preorder", "SubsetCarrier", "all_canonical_covers", "fold_meet",
    "meet_cover", "normalize", "refines", "restrict", "star_refines",
    "AuditReport", "CoveringMonoid", "CoveringRelation", "DerivationTrace",
    "NoetherianTree", "audit_axioms", "bounded_member", "fine_monoid",
    "is_locally_fine", "is_normal", "lambda_close", "member", "rank",
    "saturate", "witness_tree",
    "CarrierMismatchError", "InvalidTopologyError", "LimitExceededError",
    "LocfineError", "NoStrategyError",
    "FormalPresentation", "Judgment", "covers_of_unit", "derivation", "entails",
    "Frame", "Point", "SpaceDescription", "frame_from_space", "frame_iso",
    "is_spatial", "point_extent", "points_of", "validate_frame",
    "GameSpec", "GameResult", "Player", "Strategy", "extract_strategy",
    "solve", "theorem6_check",
    "EmbeddingPhi", "GeneratedLocale", "canonical_cov", "coproduct_frames",
    "embed_phi_check", "locale_from_cov", "product_monoid", "product_space",
    "rect_basis_check", "spatial_product_eq", "star_variant_eq",
}


def test_public_names_are_pinned():
    # a change that drops or adds a public name must edit this set too
    assert len(locfine.__all__) == len(set(locfine.__all__))
    assert set(locfine.__all__) == PUBLIC
    assert all(hasattr(locfine, name) for name in PUBLIC)
