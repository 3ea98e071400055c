"""Repository guards: the runtime imports nothing outside the standard library,
and the public names stay as pinned."""

import ast
import importlib.util
import os
import sys

import locfine
from locfine.carrier import Preorder, SubsetCarrier

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


# Both carriers answer the meet of two covers and the refinement test
# themselves; every caller reaches them, and no pairwise meet is left.
COVER_OPERATIONS = {"check_element", "is_element", "le", "rep", "key", "maximal",
                    "meet", "refines", "elements", "class_reps"}


def test_both_carriers_define_the_cover_operations():
    for cls in (SubsetCarrier, Preorder):
        missing = {n for n in COVER_OPERATIONS if not callable(vars(cls).get(n))}
        assert missing == set(), cls


def test_no_module_calls_a_pairwise_meet():
    calls = []
    for name in sorted(n for n in os.listdir(SRC) if n.endswith(".py")):
        with open(os.path.join(SRC, name), encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), filename=name)
        calls += [(name, node.lineno) for node in ast.walk(tree)
                  if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                  and node.func.attr == "meet2"]
    assert calls == []


def test_every_tracer_target_resolves():
    """perfbench's tracer wraps named functions and methods; a name the
    library no longer has would silently drop a per-layer counter."""
    # the benchmark imports every submodule before it installs the tracer
    importlib.import_module("locfine.cli")
    path = os.path.join(os.path.dirname(os.path.dirname(SRC)), "perfbench", "tracer.py")
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer_module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer_module)
    tracer = tracer_module.Tracer(locfine).install()
    try:
        assert tracer.missing == []
        assert len(tracer._layer_of) == len(tracer_module.TARGETS)
    finally:
        tracer.uninstall()


def test_one_bit_selector_table_in_carrier():
    """Names are read from masks through one digits-to-bytes table, the
    ``compress`` selector's, kept beside the bit walk in carrier."""
    tables = []
    for name in sorted(n for n in os.listdir(SRC) if n.endswith(".py")):
        with open(os.path.join(SRC, name), encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), filename=name)
        tables += [name for node in ast.walk(tree)
                   if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                   and node.func.attr == "maketrans" and node.args
                   and isinstance(node.args[0], ast.Constant) and node.args[0].value == b"01"]
    assert tables == ["carrier.py"]
