"""Graph loading, structural validation, axial axioms, connections."""

import json

import pytest

from gkmgraphs.errors import (
    AmbiguousConnection,
    NoValidConnection,
    ParseError,
    StructuralError,
)
from gkmgraphs.fixtures import (
    FIXTURE_IDS,
    KlmSpec,
    fixture,
    gen_klm,
    local_model,
)
from gkmgraphs.graph import (
    Dart,
    GkmGraph,
    components,
    derive_connection,
    load_graph,
    pair_decomposition,
    serialize,
    validate_axial,
)
from gkmgraphs.hyperplanes import Arrangement, check_assumptions
from oracles import union_find_components


def replace_axial(g, dart_id, axial, keep_connection=False):
    darts = [
        Dart(d.id, d.source, d.target, d.opposite, tuple(axial))
        if d.id == dart_id
        else d
        for d in g.darts.values()
    ]
    conn = g.connection if keep_connection else None
    return GkmGraph(g.rank, darts, connection=conn, meta=g.meta)


def test_fixture_shapes():
    g = fixture("fig2_left")
    assert g.rank == 2
    assert len(g.vertices) == 3
    assert len(g.canonical_edges()) == 3
    assert sum(d.is_leg for d in g.darts.values()) == 6


def test_local_model_is_valid():
    for n in (1, 2, 3):
        g = local_model(n)
        assert len(g.vertices) == 1
        assert sum(d.is_leg for d in g.darts.values()) == 2 * n
        assert validate_axial(g).ok


def test_all_builtin_fixtures_validate():
    for fid in FIXTURE_IDS:
        assert validate_axial(fixture(fid)).ok, fid


def test_roundtrip_serialization():
    for fid in FIXTURE_IDS:
        g = fixture(fid)
        assert load_graph(serialize(g)) == g


def test_parse_error_reports_context():
    with pytest.raises(ParseError):
        load_graph("not json at all {")
    with pytest.raises(ParseError) as ei:
        load_graph(json.dumps({"rank": 2, "vertices": []}))
    assert ei.value.field == "darts"


def test_wrong_valence_is_structural_error():
    # a rank-2 vertex with only 3 darts
    obj = json.loads(serialize(local_model(2)))
    obj["darts"] = obj["darts"][:3]
    with pytest.raises(StructuralError, match="valence"):
        load_graph(json.dumps(obj))


def test_dangling_opposite_is_structural_error():
    darts = [
        Dart("a:e", "a", "b", "missing", (1, 0)),
        Dart("a:w", "a", None, None, (-1, 1)),
        Dart("b:w", "b", "a", "a:e", (-1, 0)),
        Dart("b:e", "b", None, None, (1, 1)),
    ]
    with pytest.raises(StructuralError):
        GkmGraph(1, darts)


def test_disconnected_graph_rejected():
    darts = []
    for v in ("a", "b"):
        darts.append(Dart(f"{v}:e", v, None, None, (1, 0)))
        darts.append(Dart(f"{v}:w", v, None, None, (-1, 1)))
    with pytest.raises(StructuralError, match="connected"):
        GkmGraph(1, darts)


def test_validate_axial_checks_named_failures():
    g = fixture("fig2_left")

    # negating a leg label breaks the congruence relation on its edge
    mutated = replace_axial(g, "p:w", (0, 1, -1))
    failed = validate_axial(mutated).failed_checks()
    assert "congruence" in failed

    # an opposite dart that is not +-alpha
    mutated = replace_axial(g, "q:w", (0, -2, 0))
    assert "opposite_sign" in validate_axial(mutated).failed_checks()

    # proportional labels at one vertex
    lm = local_model(2)
    mutated = replace_axial(lm, "o:m1", (-2, 0, 0))
    failed = validate_axial(mutated).failed_checks()
    assert "pairwise_independence" in failed or "pair_decomposition" in failed

    # a dart carrying the residual vector itself
    mutated = replace_axial(lm, "o:p1", (0, 0, 1))
    mutated = replace_axial(mutated, "o:m1", (0, 0, 0))
    assert "residual_not_realized" in validate_axial(mutated).failed_checks()

    # labels that span a finite-index sublattice only
    mutated = replace_axial(lm, "o:p1", (2, 0, 0))
    mutated = replace_axial(mutated, "o:m1", (-2, 0, 1))
    assert "span" in validate_axial(mutated).failed_checks()


def test_derived_connection_is_checked_on_its_edge_darts():
    """A derived connection sends every dart but the edge dart to a
    congruent one; the edge dart goes to its opposite, so ``validate``
    still checks that congruence."""
    g = fixture("fig8_line5")
    doubled = tuple(2 * a for a in g.axial("p1:e"))
    report = validate_axial(replace_axial(g, "p1:e", doubled)).to_dict()
    (congruence,) = (c for c in report["checks"] if c["check"] == "congruence")
    assert congruence["offenders"] == ["p1:e:p1:e"]


def test_three_independence_check_fires():
    g = fixture("fig11_sphere")
    # send one leg into the plane spanned by the two edge labels
    mutated = replace_axial(g, "top:lgL", (1, 1, 0))
    failed = validate_axial(mutated).failed_checks()
    assert "three_independence" in failed


def test_derive_connection_matches_stored():
    for fid in FIXTURE_IDS:
        g = fixture(fid)
        assert g._connection is not None
        forgotten = GkmGraph(g.rank, list(g.darts.values()), meta=g.meta)
        assert forgotten._connection is None
        assert derive_connection(forgotten) == g.connection


def test_edge_lists_are_kept_per_graph():
    """The edge dart lists are computed once, in sorted id order, and each
    call hands out its own copy."""
    for fid in FIXTURE_IDS:
        g = fixture(fid)
        edges = [d for d in sorted(g.darts) if not g.darts[d].is_leg]
        canonical = [d for d in edges if d < g.darts[d].opposite]
        assert g.edge_dart_ids() == edges
        assert g.canonical_edges() == canonical
        g.canonical_edges().clear()
        g.edge_dart_ids().clear()
        assert g.edge_dart_ids() == edges
        assert g.canonical_edges() == canonical


def test_connection_on_rank_one_line():
    g = fixture("fig8_line5")
    conn = g.connection
    # crossing an edge sends the backward dart to the forward dart
    assert conn["p1:e"]["p1:w"] == "p2:e"
    assert conn["p2:e"]["p2:w"] == "p3:e"


def test_repeated_axial_gives_ambiguous_connection():
    g = fixture("fig2_left")
    mutated = replace_axial(g, "q:e", (1, -1, 0))  # duplicates q:nw
    with pytest.raises(AmbiguousConnection):
        derive_connection(mutated)


def test_missing_partner_gives_no_valid_connection():
    g = fixture("fig2_left")
    mutated = replace_axial(g, "p:w", (0, 1, -1))
    with pytest.raises(NoValidConnection):
        derive_connection(mutated)


def test_stored_connection_is_verified_not_trusted():
    g = fixture("fig2_left")
    conn = {e: dict(m) for e, m in g.connection.items()}
    # swap two images to break bijectivity with the congruence
    conn["p:e"]["p:n"], conn["p:e"]["p:w"] = (
        conn["p:e"]["p:w"],
        conn["p:e"]["p:n"],
    )
    with pytest.raises((NoValidConnection, StructuralError)):
        GkmGraph(2, list(g.darts.values()), connection=conn)


def test_pair_decomposition_local_model():
    g = local_model(2)
    dec = pair_decomposition(g)
    assert sorted(dec["o"]) == [("o:m1", "o:p1"), ("o:m2", "o:p2")]


def test_pair_decomposition_fig2_left_bottom_vertex():
    g = fixture("fig2_left")
    dec = pair_decomposition(g)
    pairs = {frozenset(p) for p in dec["p"]}
    assert frozenset({"p:e", "p:w"}) in pairs  # e2*, x - e2*
    assert frozenset({"p:n", "p:s"}) in pairs  # e1*, x - e1*


def test_pair_decomposition_asserts_connection_preserves_pairs():
    # fig7: two pairs per vertex, and the check runs across all 5 edges
    g = fixture("fig7_pentagon")
    dec = pair_decomposition(g)
    assert all(len(ps) == 2 for ps in dec.values())


def test_serialization_is_byte_stable():
    g = fixture("fig7_pentagon")
    assert serialize(g) == serialize(load_graph(serialize(g)))


def _subgraphs(g):
    """The whole graph, the graph minus each hyperplane, each halfspace and
    each nonempty pairwise hyperplane intersection, as (vertices, darts);
    last, one dart per edge, which joins nothing without its opposite."""
    arr = Arrangement(g)
    planes = arr.hyperplanes
    yield set(g.vertices), None
    yield set(g.vertices), set(g.canonical_edges())
    for h in planes:
        yield set(g.vertices) - h.vertices, None
    for name, verdict in check_assumptions(arr).assumption1.items():
        if verdict["ok"]:
            for half in arr.pair(name):
                yield half.vertices, half.dart_ids
    for i, a in enumerate(planes):
        for b in planes[i + 1 :]:
            if a.vertices & b.vertices:
                yield a.vertices & b.vertices, a.dart_ids & b.dart_ids


@pytest.mark.parametrize(
    "graph",
    list(FIXTURE_IDS) + ["local_model(2)", "L212", "L322"],
)
def test_components_agree_with_union_find(graph):
    if graph.startswith("L"):
        g = gen_klm(KlmSpec(*map(int, graph[1:])))
    else:
        g = fixture(graph)
    for vertices, dart_ids in _subgraphs(g):
        got = components(g, vertices, dart_ids)
        assert got == union_find_components(g, vertices, dart_ids)
