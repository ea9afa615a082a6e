"""The export lists: every listed name resolves, removed spellings stay gone."""

import importlib
import pkgutil

import pytest

import cactus_forge
from cactus_forge import GeneratorSpec, PlaneGraph, TriangularCactus, build_instance
from cactus_forge.cli import main

MODULES = [cactus_forge] + [
    importlib.import_module(f"cactus_forge.{m.name}")
    for m in pkgutil.iter_modules(cactus_forge.__path__)
]

# Each removed name with the spelling that replaced it (see CHANGES.md).
# The names are written in two parts, so that a search of the tree for a
# removed spelling finds its callers and not this guard.
REMOVED = (
    "component" "_report",  # analyze_cactus(...).components
    "NotAComponent" "Error",  # went with it
    "missing_edges_to" "_triangulation",  # g.edge_count == 3 * g.n - 6
    "TooFewVertices" "Error",  # raised only by the helper above
    "Disconnected" "Error",  # likewise
    "worker" "_count",  # verify_corpus(threads=...)
    "apollo" "nian",  # GeneratorSpec("apollonian", n=n, seed=seed)
    "Boundary" "Counts",  # SuperFace.label
)
PLANE_GRAPH_VIEWS = ("degree", "neighbors", "components", "face_at", "outer_face")
CACTUS_VIEWS = ("same_component", "component_of", "components")


@pytest.mark.parametrize(
    "module", [m for m in MODULES if hasattr(m, "__all__")], ids=lambda m: m.__name__
)
def test_every_export_resolves(module):
    exported = module.__all__
    assert len(set(exported)) == len(exported)
    assert [name for name in exported if not hasattr(module, name)] == []


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_removed_names_are_gone(module):
    assert [name for name in REMOVED if hasattr(module, name)] == []


def test_removed_views_are_gone():
    g = build_instance(GeneratorSpec("platonic", name="octahedron"))
    for obj in (PlaneGraph, g):
        assert [a for a in PLANE_GRAPH_VIEWS if hasattr(obj, a)] == []
    for obj in (TriangularCactus, TriangularCactus(g)):
        assert [a for a in CACTUS_VIEWS if hasattr(obj, a)] == []


def test_removed_record_fields_are_gone():
    from cactus_forge.analyzer import CrossTriangle, SuperFace

    assert "support" not in CrossTriangle._fields
    assert "counts" not in SuperFace._fields


def test_bench_help_names_one_worker_knob(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["bench", "--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert "--threads" in out and "(default 1)" in out
    # The worker count has no environment spelling.
    assert "CACTUS_FORGE_" not in out
