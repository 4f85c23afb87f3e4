"""Built-in fixtures and the arrangement generator."""

from itertools import permutations, product

import pytest

import gkmgraphs.fixtures as fixtures
from gkmgraphs.errors import GkmError
from gkmgraphs.fixtures import KlmSpec, fixture, gen_klm, local_model
from gkmgraphs.graph import validate_axial
from oracles import lattice_rank, residual_system, solve_integer


def label_preserving_isomorphism(a, b):
    """Brute-force search for a vertex bijection matching darts by
    (axial value, leg/edge status) and preserving incidence."""
    if a.rank != b.rank or len(a.vertices) != len(b.vertices):
        return None

    def profile(g, v):
        return sorted(
            (g.axial(d), g.darts[d].is_leg) for d in g.darts_at(v)
        )

    for perm in permutations(b.vertices):
        phi = dict(zip(a.vertices, perm))
        if any(profile(a, v) != profile(b, phi[v]) for v in a.vertices):
            continue
        good = True
        for did, d in a.darts.items():
            if d.is_leg:
                continue
            match = [
                bd
                for bd in b.darts_at(phi[d.source])
                if b.darts[bd].target == phi[d.target]
                and b.axial(bd) == d.axial
            ]
            if len(match) != 1:
                good = False
                break
        if good:
            return phi
    return None


def test_gen_klm_validates_and_counts():
    for spec in ((1, 1, 1), (2, 1, 2), (2, 2, 2), (3, 2, 1)):
        g = gen_klm(KlmSpec(*spec))
        k, l, m = spec
        assert len(g.vertices) == k * l + k * m + l * m
        assert validate_axial(g).ok


def test_gen_klm_111_is_isomorphic_to_the_triangle_fixture():
    a = gen_klm(KlmSpec(1, 1, 1))
    b = fixture("fig2_left")
    phi = label_preserving_isomorphism(a, b)
    assert phi is not None
    assert phi["X1.Y1"] == "p"  # the bottom-left vertex carries e1*, e2*


def test_gen_klm_111_forgetful_labels_at_bottom_left():
    g = gen_klm(KlmSpec(1, 1, 1))
    assert {g.axial(d)[: g.rank] for d in g.darts_at("X1.Y1")} == {
        (1, 0), (0, 1), (-1, 0), (0, -1)
    }


def test_gen_klm_rejects_degenerate_specs():
    with pytest.raises(GkmError):
        KlmSpec(0, 1, 1)
    with pytest.raises(GkmError):
        KlmSpec(1, -1, 2)


def test_fixture_unknown_id():
    with pytest.raises(GkmError, match="unknown fixture"):
        fixture("fig99")


def test_local_model_ids():
    g = local_model(3)
    assert len(g.vertices) == 1
    assert sum(d.is_leg for d in g.darts.values()) == 6
    assert fixture("local_model(3)") == g


def test_sphere_fixture_carries_the_reading_note():
    g = fixture("fig11_sphere")
    assert "reading" in g.meta.get("comment", "")
    # two distinct parallel edges
    assert len(g.canonical_edges()) == 2
    assert len({(g.darts[e].source, g.darts[e].target) for e in g.canonical_edges()}) == 1


def test_klm_metadata_names_cover_all_lines():
    g = gen_klm(KlmSpec(2, 2, 1))
    names = g.meta["hyperplane_names"]
    assert sorted(names) == ["X1", "X2", "Y1", "Y2", "Z1"]
    for name, verts in names.items():
        assert all(name in v.split(".") for v in verts)
    assert sorted(g.meta["positive_normals"]) == sorted(names)


def test_fixture_sizes_are_capped():
    n = fixtures.LOCAL_MODEL_MAX_N
    assert sum(d.is_leg for d in local_model(n).darts.values()) == 2 * n
    for fid in (f"local_model({n + 1})", "local_model(" + "9" * 5000 + ")"):
        with pytest.raises(GkmError, match=f"n <= {n}"):
            fixture(fid)
    top = fixtures.KLM_MAX_LINES
    KlmSpec(top, top, top)
    for spec in ((top + 1, 1, 1), (1, 1, top + 1)):
        with pytest.raises(GkmError, match=f"at most {top}"):
            KlmSpec(*spec)


def test_transported_residuals_solve_the_system_of_the_graph():
    """On every L(k,l,m) with k, l, m <= 4 the residual coefficients that
    the generator transports from the local model are the one integer
    solution of the pair, opposite and congruence conditions rebuilt from
    the graph and pinned to the local model at the base vertex."""
    for spec in product(range(1, 5), repeat=3):
        g = gen_klm(KlmSpec(*spec))
        rows, rhs = residual_system(g, "X1.Y1")
        unknowns = sorted(g.darts)
        dense = [[r.get(u, 0) for u in unknowns] for r in rows]
        assert lattice_rank(dense) == len(unknowns), spec
        assert solve_integer(dense, rhs) == tuple(
            g.axial(u)[-1] for u in unknowns
        ), spec


@pytest.mark.parametrize("spec", [(1, 1, 1), (2, 1, 2), (2, 2, 2)])
def test_an_edge_off_the_spanning_tree_is_checked(monkeypatch, spec):
    """With the diagonal lines' forgetful labels bent to +-(1, 1), the
    transport labels every dart, but an edge off its spanning tree fails
    its congruence: the generator raises and returns no graph."""
    monkeypatch.setitem(fixtures._DIRECTIONS, "se", (1, 1))
    monkeypatch.setitem(fixtures._DIRECTIONS, "nw", (-1, -1))
    with pytest.raises(
        GkmError, match="stored connection violates the congruence relation"
    ):
        gen_klm(KlmSpec(*spec))
