"""Referees stay independent of the solvers they judge.

A helper that a solver and its referee both run can carry one bug past both
sides of their comparison unseen.  An ast scan of the package computes what
each function reaches: every package function or class it names, every
package method whose name it reads as an attribute (types are not known, so
any method of that name counts), and a class's dunder methods wherever the
class is named.  Annotations are not followed.  The private helpers each
solver shares with its referee are pinned here; a new shared helper fails
the test until it is pinned, and every pinned helper names the naive
reference test that checks it on its own.
"""

import ast
import importlib
import pathlib

import riftpuzzles

PACKAGE = pathlib.Path(riftpuzzles.__file__).parent

# (solver, referee) -> the private helpers both reach
SHARED = {
    ("tile_trial.solve_tile_trial", "graphs.has_ham_cycle_grid"): set(),
    # the corner pass packs the region with the grid BFS's bitboard
    ("geometry.euclidean_geodesic", "geometry.fine_grid_distance"): {
        "geometry._classify_corners", "geometry._exact_tile", "geometry._point_in",
        "graphs._Bitboard", "graphs._pack", "graphs._packed",
    },
    # all of crystal_metric: criterion 7, the full-Dijkstra matrix read in
    # three orders, the flood-against-inf check and the per-cell BFS
    # reference check it apart from either solver
    ("crystal_bonds.solve_crystal_bonds", "crystal_bonds.brute_force_crystal_bonds"): {
        "crystal_bonds._metric_of", "geometry._classify_corners", "geometry._exact_tile",
        "geometry._Geodesics", "geometry._Geodesics._corners", "geometry._Geodesics._edge",
        "geometry._Geodesics._settled", "geometry._Row",
        "geometry._line_walk", "geometry._point_in", "geometry._scaled", "geometry._walk",
        "graphs._Bitboard", "graphs._grid_bfs", "graphs._grid_distances", "graphs._joined", "graphs._pack",
        "graphs._packed",
    },
    ("crystal_bonds.decide_dcb", "graphs.has_ham_path_grid"): set(),
    ("hands_of_time.solve_clock", "graphs.has_directed_ham_path"): set(),
}

# pinned helper -> the reference tests that check it against naive code
REFERENCES = {
    "graphs._Bitboard": ["test_grid_bfs::test_engine_matches_reference_on_seeded_sets"],
    "graphs._pack": ["test_grid_bfs::test_engine_matches_reference_on_seeded_sets"],
    "graphs._packed": [
        "test_grid_bfs::test_a_euclid_solve_packs_its_region_once",
        "test_geometry::test_classify_corners_matches_brute_force_count",
        "test_grid_bfs::test_joined_matches_per_cell_flood",
    ],
    "graphs._grid_bfs": ["test_grid_bfs::test_engine_matches_reference_on_seeded_sets"],
    "graphs._grid_distances": ["test_grid_bfs::test_engine_matches_reference_on_seeded_sets"],
    "geometry._classify_corners": ["test_geometry::test_classify_corners_matches_brute_force_count"],
    "geometry._point_in": ["test_geometry::test_point_in_matches_fraction_reference"],
    "geometry._exact_tile": ["test_geometry::test_query_points_past_the_tile_limit_rejected"],
    "geometry._scaled": ["test_geometry::test_segment_walk_matches_float_oracle"],
    "geometry._walk": ["test_geometry::test_segment_walk_matches_float_oracle"],
    "geometry._line_walk": ["test_geometry::test_segment_walk_matches_float_oracle"],
    "graphs._joined": [
        "test_crystal_bonds::test_euclid_metric_is_cut_exactly_when_the_full_matrix_holds_an_inf",
        "test_grid_bfs::test_joined_matches_per_cell_flood",
    ],
    **dict.fromkeys(
        ("geometry._Geodesics", "geometry._Geodesics._edge", "geometry._Geodesics._settled", "geometry._Row"),
        ["test_geometry::test_on_demand_entries_match_the_full_matrix_in_any_read_order"],
    ),
    "geometry._Geodesics._corners": [
        "test_geometry::test_on_demand_entries_match_the_full_matrix_in_any_read_order",
        "test_geometry::test_corner_edges_match_the_quadrant_rule_and_segment_walk",
    ],
    "crystal_bonds._metric_of": [
        "test_acceptance::test_criterion_7_geodesic_oracle_band",
        "test_geometry::test_matrix_bit_identical_to_full_dijkstra",
        "test_geometry::test_on_demand_entries_match_the_full_matrix_in_any_read_order",
        "test_crystal_bonds::test_euclid_metric_is_cut_exactly_when_the_full_matrix_holds_an_inf",
        "test_grid_bfs::test_engine_matches_reference_on_seeded_sets",
    ],
}


def call_graph() -> dict[str, set[str]]:
    """Qualified name ("module.function", "module.Class", "module.Class.method")
    -> the qualified names its body reaches directly."""
    bodies = {}  # name -> (defining node or None for a class, module namespace)
    methods = {}  # attribute name -> methods of that name
    dunders = {}  # class -> its dunder methods
    for path in sorted(PACKAGE.glob("*.py")):
        module = path.stem
        tree = ast.parse(path.read_text())
        for node in ast.walk(tree):
            if isinstance(node, (ast.arg, ast.AnnAssign)):
                node.annotation = None
            elif isinstance(node, ast.FunctionDef):
                node.returns = None
        namespace = {}
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                namespace.update({a.asname or a.name: f"{node.module}.{a.name}" for a in node.names})
            elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                namespace[node.name] = f"{module}.{node.name}"
        for node in tree.body:
            if isinstance(node, ast.FunctionDef):
                bodies[f"{module}.{node.name}"] = (node, namespace)
            elif isinstance(node, ast.ClassDef):
                cls = f"{module}.{node.name}"
                bodies[cls] = (None, namespace)
                dunders[cls] = set()
                for item in node.body:
                    if isinstance(item, ast.FunctionDef):
                        name = f"{cls}.{item.name}"
                        bodies[name] = (item, namespace)
                        methods.setdefault(item.name, set()).add(name)
                        if item.name.startswith("__"):
                            dunders[cls].add(name)
    graph = {}
    for name, (node, namespace) in bodies.items():
        out = set(dunders.get(name, ()))
        for sub in ast.walk(node) if node is not None else ():
            if isinstance(sub, ast.Name) and sub.id in namespace:
                out.add(namespace[sub.id])
            elif isinstance(sub, ast.Attribute):
                out |= methods.get(sub.attr, set())
        graph[name] = out & bodies.keys()
    return graph


def reach(graph: dict[str, set[str]], root: str) -> set[str]:
    seen, todo = set(), [root]
    while todo:
        for name in graph[todo.pop()] - seen:
            seen.add(name)
            todo.append(name)
    return seen


def is_private(name: str) -> bool:
    last = name.rsplit(".", 1)[1]
    return last.startswith("_") and not last.startswith("__")


def test_solvers_share_only_the_pinned_helpers_with_their_referees():
    graph = call_graph()
    for (solver, referee), pinned in SHARED.items():
        shared = {name for name in reach(graph, solver) & reach(graph, referee) if is_private(name)}
        assert shared == pinned, (solver, referee, sorted(shared ^ pinned))


def test_every_pinned_helper_names_its_reference_test():
    pinned = set().union(*SHARED.values())
    assert pinned == REFERENCES.keys()
    for tests in REFERENCES.values():
        for test in tests:
            module, name = test.split("::")
            assert callable(getattr(importlib.import_module(module), name, None)), test


def test_certificate_audit_reaches_nothing_of_the_construction():
    # the exact move-graph check must not reproduce the construction's
    # arithmetic: only two accessors of the data types are common
    graph = call_graph()
    construction = reach(graph, "hands_of_time.reduce_digraph_to_phot") | {"hands_of_time.reduce_digraph_to_phot"}
    assert {"hands_of_time.repunit", "hands_of_time.jump_value"} <= construction
    assert reach(graph, "hands_of_time.clock_to_digraph") & construction == {"hands_of_time.ClockInstance.positions"}
    assert reach(graph, "hands_of_time.intended_position_arcs") & construction == {"graphs.Digraph.out_neighbors"}
