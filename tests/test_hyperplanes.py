"""Hyperplane discovery, halfspace pairs, Thom classes, assumptions."""

import random
from itertools import combinations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import gkmgraphs.hyperplanes as hyperplanes
from gkmgraphs.errors import (
    AssumptionOneViolation,
    GkmError,
    NoValidConnection,
)
from gkmgraphs.fixtures import (
    FIXTURE_IDS,
    KlmSpec,
    fixture,
    gen_klm,
    local_model,
)
from gkmgraphs.graph import (
    GkmGraph,
    components,
    graph_from_dict,
    pair_decomposition,
)
from gkmgraphs.hyperplanes import (
    Arrangement,
    Halfspace,
    Hyperplane,
    _name_key,
    all_hyperplanes,
    check_assumptions,
    halfspace_pair,
    hyperplane_through,
    minimal_empty_families,
    nonempty_intersection_table,
    thom_class,
)
from oracles import (
    forgetful_thom_class,
    intersection,
    opposite_side,
    orientation_by_sweeps,
    revalidated_halfspace_pair,
    union_find_components,
    validate_pre_halfspace,
)


def by_name(g):
    return {h.name: h for h in all_hyperplanes(g)}


def test_vertical_hyperplane_of_the_triangle():
    g = fixture("fig2_left")
    # exclude the horizontal pair at p: what remains is the vertical line
    h = hyperplane_through(g, "p", ("p:e", "p:w"))
    assert h.vertices == {"p", "r"}
    assert h.dart_ids == {"p:n", "p:s", "r:s", "r:n"}


def test_local_model_hyperplane_is_remaining_legs():
    g = local_model(2)
    h = hyperplane_through(g, "o", ("o:p1", "o:m1"))
    assert h.vertices == {"o"}
    assert h.dart_ids == {"o:p2", "o:m2"}


def test_excluded_pair_must_be_a_pair():
    g = fixture("fig2_left")
    with pytest.raises(GkmError):
        hyperplane_through(g, "p", ("p:e", "p:n"))


def test_a_graph_whose_darts_do_not_pair_up_is_refused_before_any_closure():
    """A labeled graph with a valid connection whose pairs break at one
    vertex: ``b:W`` has no partner with complementary axial value at
    ``b``, so the graph's pair table refuses it before a closure starts."""
    from gkmgraphs.errors import NoPartner
    from gkmgraphs.graph import Dart, GkmGraph

    darts = [
        Dart("a:E", "a", "b", "b:W", (1, 0, 0)),
        Dart("a:w", "a", None, None, (-1, 0, 1)),
        Dart("a:n", "a", None, None, (0, 1, 0)),
        Dart("a:s", "a", None, None, (0, -1, 1)),
        Dart("b:W", "b", "a", "a:E", (-1, 0, 0)),
        Dart("b:w", "b", None, None, (-3, 0, 1)),
        Dart("b:n", "b", None, None, (0, 1, 0)),
        Dart("b:s", "b", None, None, (0, -1, 1)),
    ]
    g = GkmGraph(2, darts)
    with pytest.raises(
        NoPartner,
        match=r"^dart 'b:W' at vertex 'b' has 0 partners with "
        "complementary axial value$",
    ):
        hyperplane_through(g, "a", ("a:n", "a:s"))


def test_hyperplane_counts():
    assert len(all_hyperplanes(fixture("fig2_left"))) == 3
    assert len(all_hyperplanes(fixture("fig7_pentagon"))) == 5
    assert len(all_hyperplanes(gen_klm(KlmSpec(2, 1, 2)))) == 5
    line = all_hyperplanes(fixture("fig8_line5"))
    assert len(line) == 5
    assert all(len(h.vertices) == 1 and not h.dart_ids for h in line)


def test_hyperplane_uniqueness_from_any_seed():
    g = fixture("fig7_pentagon")
    dec = pair_decomposition(g)
    seen = {}
    for v in g.vertices:
        for pair in dec[v]:
            h = hyperplane_through(g, v, pair)
            seen.setdefault(h.label, set()).add((h.vertices, h.dart_ids))
    assert len(seen) == 5
    assert all(len(s) == 1 for s in seen.values())


@pytest.mark.parametrize(
    "source",
    list(FIXTURE_IDS) + ["111", "212", "222", "322", "333", "433", "444"],
)
def test_all_hyperplanes_runs_one_closure_per_hyperplane(monkeypatch, source):
    """Skipping the seeds of hyperplanes already found leaves the list of
    the exhaustive seed loop unchanged, with one closure per hyperplane."""
    if source.isdigit():
        g = gen_klm(KlmSpec(*map(int, source)))
    else:
        g = fixture(source)
    dec = pair_decomposition(g)
    exhaustive = {}
    for v in g.vertices:
        for pair in dec[v]:
            h = hyperplane_through(g, v, pair)
            exhaustive.setdefault(h.label, h)
    calls = []

    def counting(*args):
        calls.append(args)
        return hyperplane_through(*args)

    monkeypatch.setattr(hyperplanes, "hyperplane_through", counting)
    found = all_hyperplanes(g)
    assert len(calls) == len(found)
    assert [(h.label, h.vertices, h.dart_ids) for h in found] == [
        (h.label, h.vertices, h.dart_ids)
        for h in sorted(exhaustive.values(), key=Hyperplane.sort_key)
    ]


def test_all_hyperplanes_refuses_two_hyperplanes_with_one_name():
    """Two hyperplanes of local_model(2) have the vertex set {o}; one name
    for it would name both."""
    doc = local_model(2).to_dict()
    doc["hyperplane_names"] = {"A": ["o"]}
    with pytest.raises(GkmError, match="two hyperplanes are named 'A'"):
        all_hyperplanes(graph_from_dict(doc))
    doc = gen_klm(KlmSpec(2, 1, 2)).to_dict()
    doc["hyperplane_names"]["X3"] = doc["hyperplane_names"]["X1"]
    with pytest.raises(GkmError, match="names 'X1' and 'X3' name one vertex set"):
        all_hyperplanes(graph_from_dict(doc))


ARRANGEMENT_SOURCES = list(FIXTURE_IDS) + ["local_model(3)", "212", "322"]


def _graph(source):
    if source.isdigit():
        return gen_klm(KlmSpec(*map(int, source)))
    return fixture(source)


@pytest.mark.parametrize("source", ARRANGEMENT_SOURCES)
def test_the_arrangement_holds_the_facts_of_its_hyperplanes(monkeypatch, source):
    """The names in generator order, each vertex's names, one halfspace
    pair per hyperplane however often it is asked for, and the forgetful
    Thom class of the positive side built from its definition."""
    g = _graph(source)
    arr = Arrangement(g)
    assert arr.hyperplanes == all_hyperplanes(g)
    assert arr.names == sorted(arr.by_name, key=_name_key)
    assert all(arr.by_name[h.name] is h for h in arr.hyperplanes)
    assert arr.through == {
        v: frozenset(h.name for h in arr.hyperplanes if v in h.vertices)
        for v in g.vertices
        if any(v in h.vertices for h in arr.hyperplanes)
    }
    calls = []

    def counting(g, hyperplane):
        calls.append(hyperplane.name)
        return halfspace_pair(g, hyperplane)

    monkeypatch.setattr(hyperplanes, "halfspace_pair", counting)
    report = check_assumptions(arr)
    for name in arr.names:
        if not report.assumption1[name]["ok"]:
            continue
        assert arr.pair(name) is arr.pair(name)
        pos, neg = arr.oriented(name)
        assert {pos, neg} == set(arr.pair(name))
        h = arr.by_name[name]
        assert arr.tau(name) == forgetful_thom_class(g, h, pos)
    assert sorted(calls) == sorted(arr.names)


@pytest.mark.parametrize("source", ARRANGEMENT_SOURCES + ["333", "444"])
def test_assumption_two_matches_the_intersections(source):
    """The report's verdict on each family of two or more hyperplanes with
    a common vertex: its common vertices and darts, searched by union-find."""
    g = _graph(source)
    arr = Arrangement(g)
    expected = {}
    for size in range(2, len(arr.names) + 1):
        for fam in combinations(sorted(arr.names), size):
            vertices, darts = intersection(g, [arr.by_name[n] for n in fam])
            if not vertices:
                continue
            count = len(set(union_find_components(g, vertices, darts).values()))
            expected["&".join(fam)] = (
                {"ok": True} if count == 1
                else {"ok": False, "components": count, "vertices": sorted(vertices)}
            )
    assert check_assumptions(arr).assumption2 == expected


def test_halfspace_pair_thom_values_on_the_vertical_line():
    g = fixture("fig2_left")
    vertical = by_name(g)["L2"]
    assert vertical.vertices == {"p", "r"}
    a, b = halfspace_pair(g, vertical)
    ta, tb = thom_class(g, a), thom_class(g, b)
    values = {
        frozenset(((v, ta[v]) for v in g.vertices)),
        frozenset(((v, tb[v]) for v in g.vertices)),
    }
    left = frozenset(
        {("p", (0, 1, 0)), ("q", (0, 0, 0)), ("r", (-1, 1, 0))}
    )
    right = frozenset(
        {("p", (0, -1, 1)), ("q", (0, 0, 1)), ("r", (1, -1, 1))}
    )
    assert values == {left, right}


def test_thom_sum_is_chi_on_every_fixture():
    for fid in ("fig2_left", "fig7_pentagon", "fig8_line5", "fig11_sphere"):
        g = fixture(fid)
        x = g.residual
        for h in all_hyperplanes(g):
            a, b = halfspace_pair(g, h)
            ta, tb = thom_class(g, a), thom_class(g, b)
            for v in g.vertices:
                assert tuple(s + t for s, t in zip(ta[v], tb[v])) == x


def test_halfspace_pair_fails_on_broken_grid():
    g = fixture("fig2_right")
    planes = by_name(g)
    failing = []
    for name, h in planes.items():
        try:
            halfspace_pair(g, h)
        except AssumptionOneViolation as exc:
            failing.append((name, exc.check))
    # exactly the four middle half-line hyperplanes fail
    assert len(failing) == 4
    assert all(check == "component_sides" for _, check in failing)
    assert all(len(planes[name].vertices) == 1 for name, _ in failing)


def test_halfspace_pair_on_rank_one_line_gives_rays():
    g = fixture("fig8_line5")
    planes = by_name(g)
    for name, h in planes.items():
        a, b = halfspace_pair(g, h)
        sizes = sorted((len(a.vertices), len(b.vertices)))
        (v,) = h.vertices
        i = int(v[1:])
        assert sizes == sorted((i, 6 - i))


def _pair_outcome(build, g, h):
    """The halves that ``build`` gives (vertices, darts, normals and Thom
    values of each) or the check and reason of its refusal."""
    try:
        pair = build(g, h)
    except AssumptionOneViolation as exc:
        return (exc.check, str(exc))
    return [
        (half.vertices, half.dart_ids, half.normals, thom_class(g, half))
        for half in pair
    ]


def _cut(g, eid):
    """``g`` with the edge of dart ``eid`` cut into two legs, and the
    connection derived again."""
    doc = g.to_dict()
    del doc["connection"]
    ends = {eid, g.darts[eid].opposite}
    for d in doc["darts"]:
        if d["id"] in ends:
            d["to"] = d["opposite"] = None
    return graph_from_dict(doc)


def _mutants(g, rng, tries):
    """The pair-preserving mutations of ``g``, out of ``tries``, whose pair
    table still builds.  Each adds delta in {+-1, +-2} to one coordinate
    of a dart and subtracts it from the dart's pair partner; it usually
    gives the opposite dart the negated label, and its partner the rest
    of x, and drops the stored connection 70% of the time.  Off
    local_model(3), which has no edges, few keep a connection: of 400
    tries, about ten on fig7_pentagon and on fig8_line5, two on
    fig11_sphere, and none on fig2_left, fig2_right, L(2,1,2) or
    L(2,2,2)."""
    x = g.residual
    partner = {}
    for pairs in g.pairs.values():
        for a, b in pairs:
            partner[a], partner[b] = b, a
    out = []
    for _ in range(tries):
        axial = {d: list(g.axial(d)) for d in g.darts}
        did = rng.choice(sorted(axial))
        i = rng.randrange(g.rank + 1)
        delta = rng.choice((-2, -1, 1, 2))
        axial[did][i] += delta
        axial[partner[did]][i] -= delta
        opposite = g.darts[did].opposite
        if opposite is not None and rng.random() < 0.8:
            axial[opposite] = [-c for c in axial[did]]
            axial[partner[opposite]] = [a + c for a, c in zip(x, axial[did])]
        darts = [d._replace(axial=tuple(axial[d.id])) for d in g.darts.values()]
        keep = g.connection if rng.random() < 0.3 else None
        try:
            mutant = GkmGraph(g.rank, darts, connection=keep, meta=g.meta)
            mutant.pairs
        except GkmError:
            continue
        out.append(mutant)
    return out


def _oracle_cases():
    """(graph, hyperplane) for every hyperplane of the figures, of
    local_model(2..4), of every ladder rung and of pair-preserving
    mutations of every figure, local_model(3), L(2,1,2) and L(2,2,2); and
    of each figure, mutant and of those two rungs with one edge cut.  Each
    graph gets its own hyperplanes, the only inputs ``halfspace_pair`` can
    be given."""
    graphs = [fixture(f) for f in FIXTURE_IDS]
    graphs += [local_model(n) for n in (2, 3, 4)]
    graphs += [
        gen_klm(KlmSpec(*map(int, r)))
        for r in ("111", "212", "222", "322", "333", "433", "444", "555")
    ]
    rng = random.Random(35)
    bases = [fixture(f) for f in FIXTURE_IDS]
    bases += [local_model(3), gen_klm(KlmSpec(2, 1, 2)), gen_klm(KlmSpec(2, 2, 2))]
    mutants = [m for base in bases for m in _mutants(base, rng, 400)]
    for g in bases + mutants:
        for eid in g.canonical_edges():
            try:
                graphs.append(_cut(g, eid))
            except GkmError:  # a bridge: the cut graph is not connected
                continue
    for g in graphs + mutants:
        try:
            planes = all_hyperplanes(g)
        except GkmError:  # no consistent closure
            continue
        for h in planes:
            yield g, h


def test_halfspace_pair_agrees_with_the_revalidated_pair():
    """Built from what the closure proved, the pair is the pair
    re-validated at every vertex, or both refuse it with the same check
    and reason."""
    checks = []
    for g, h in _oracle_cases():
        ours = _pair_outcome(halfspace_pair, g, h)
        assert ours == _pair_outcome(revalidated_halfspace_pair, g, h)
        if isinstance(ours, tuple):
            checks.append(ours[0])
    # only the colouring and the component sides can refuse a closure;
    # the broken grid of fig2_right reaches the second four times
    assert set(checks) <= {"orientation", "component_sides"}
    assert checks.count("component_sides") >= 4


def test_normal_darts_ending_on_their_own_hyperplane_keep_its_darts():
    """On fig11_sphere each hyperplane is {bot, top} joined by one edge,
    and the other edge is a normal dart at both ends.  The connection maps
    that dart's pair onto its opposite's pair, so it carries L's darts at
    the source onto L's darts at the target: the restricted bijection of
    a pre-halfspace, which ``halfspace_pair`` does not check there."""
    g = fixture("fig11_sphere")
    planes = by_name(g)
    found = {
        (name, d)
        for name, h in planes.items()
        for v in h.vertices
        for d in g.darts_at(v)
        if d not in h.dart_ids and g.darts[d].target in h.vertices
    }
    assert found == {
        ("L1", "bot:eR"),
        ("L1", "top:eR"),
        ("L2", "bot:eL"),
        ("L2", "top:eL"),
    }
    for name, d in sorted(found):
        h, e = planes[name], g.darts[d]
        at_source = {c for c in g.darts_at(e.source) if c in h.dart_ids}
        at_target = {c for c in g.darts_at(e.target) if c in h.dart_ids}
        assert {g.connection[d][c] for c in at_source} == at_target


def test_a_twisted_normal_pair_cannot_be_oriented():
    """Two edges join u and w inside L; one carries the normal pair of u
    straight, the other crossed, so no colouring is kept by the
    connection.  The traversal and the sweeps both refuse it.  (Only the
    colouring reads the connection and the dart records, so a bare stand-in
    for the graph will do.)"""
    from types import SimpleNamespace

    from gkmgraphs.graph import Dart

    darts = {}
    for v, w in (("u", "w"), ("w", "u")):
        for i in "12":
            darts[f"{v}:{i}"] = Dart(f"{v}:{i}", v, w, f"{w}:{i}", (0,))
        for n in "ab":
            darts[f"{v}:{n}"] = Dart(f"{v}:{n}", v, None, None, (0,))
    straight = {"u:a": "w:a", "u:b": "w:b"}
    crossed = {"u:a": "w:b", "u:b": "w:a"}
    connection = {"u:1": straight, "u:2": crossed}
    for eid, m in list(connection.items()):
        connection["w" + eid[1:]] = {b: a for a, b in m.items()}
    g = SimpleNamespace(darts=darts, connection=connection)
    plane = Hyperplane(
        frozenset("uw"), frozenset(["u:1", "u:2", "w:1", "w:2"]), "T"
    )
    excluded = {"u": ("u:a", "u:b"), "w": ("w:a", "w:b")}
    for colouring in (hyperplanes._orientation_classes, orientation_by_sweeps):
        with pytest.raises(AssumptionOneViolation) as caught:
            colouring(g, plane, excluded)
        assert caught.value.check == "orientation"


def test_a_connection_corrupted_across_an_interior_edge_is_refused():
    """``halfspace_pair`` relies on the connection being a congruent
    bijection of the full dart sets across every edge off the
    hyperplane; a stored connection that is not is refused at load."""
    g = gen_klm(KlmSpec(2, 1, 2))
    plane = all_hyperplanes(g)[0]
    eid = next(
        d
        for d in g.canonical_edges()
        if g.darts[d].source not in plane.vertices
        and g.darts[d].target not in plane.vertices
    )
    doc = g.to_dict()
    mapping = doc["connection"][eid]
    a, b = [d for d in sorted(mapping) if d != eid][:2]
    mapping[a], mapping[b] = mapping[b], mapping[a]
    doc["connection"][g.darts[eid].opposite] = {
        img: d for d, img in mapping.items()
    }
    with pytest.raises(NoValidConnection, match="congruence"):
        graph_from_dict(doc)


def test_whole_graph_is_not_a_pre_halfspace():
    g = fixture("fig2_left")
    h = Halfspace(frozenset(g.vertices), frozenset(g.darts), {})
    with pytest.raises(AssumptionOneViolation) as caught:
        validate_pre_halfspace(g, h)
    assert caught.value.check == "boundary_exists"


def test_middle_segment_pre_halfspace_is_not_a_halfspace():
    # the 2-point rank-1 graph: the bare edge is a pre-halfspace whose
    # opposite side (two legs) is disconnected
    g = fixture("fig8_line5")
    # build the analogous pre-halfspace on the p1-p2 edge restricted graph;
    # on the 5-point line take the middle three vertices' analogue instead:
    # H = closed segment p2..p4 with its two edge darts at the ends missing
    verts = frozenset({"p2", "p3", "p4"})
    darts = frozenset(
        {"p2:e", "p3:e", "p3:w", "p4:w", "p2:w", "p4:e"}
    ) - {"p2:w", "p4:e"}
    h = Halfspace(verts, darts, {"p2": "p2:w", "p4": "p4:e"})
    validate_pre_halfspace(g, h)  # a genuine pre-halfspace
    opp = opposite_side(g, h)
    assert opp.vertices == {"p1", "p2", "p4", "p5"}
    assert len(set(components(g, opp.vertices, opp.dart_ids).values())) == 2
    # and the Thom classes still sum to chi
    th, ti = thom_class(g, h), thom_class(g, opp)
    for v in g.vertices:
        assert tuple(a + b for a, b in zip(th[v], ti[v])) == g.residual


def test_pre_halfspace_with_interior_vertex_on_triangle():
    # drop the two left-pointing legs of the triangle: p and r become
    # boundary vertices, q is interior and carries the residual value
    g = fixture("fig2_left")
    verts = frozenset({"p", "q", "r"})
    darts = frozenset(g.darts) - {"p:w", "r:nw"}
    h = Halfspace(verts, darts, {"p": "p:w", "r": "r:nw"})
    validate_pre_halfspace(g, h)
    tc = thom_class(g, h)
    assert tc["p"] == (0, -1, 1)   # x - e2*
    assert tc["q"] == (0, 0, 1)    # x
    assert tc["r"] == (1, -1, 1)   # e1* - e2* + x


def test_intersections():
    """The common vertices of a family, from the table of the names
    through each vertex, and the connectedness of the intersection that
    assumption (2) reports."""
    arr = Arrangement(fixture("fig2_left"))
    table = nonempty_intersection_table(arr.through)
    assert frozenset(arr.names) not in table
    assert not intersection(arr.graph, arr.hyperplanes)[0]
    arr7 = Arrangement(fixture("fig7_pentagon"))
    table7 = nonempty_intersection_table(arr7.through)
    assert table7[frozenset({"L1", "L2"})] == {"p1"}
    assert check_assumptions(arr7).assumption2["L1&L2"] == {"ok": True}
    klm = Arrangement(gen_klm(KlmSpec(2, 2, 2)))
    klm_table = nonempty_intersection_table(klm.through)
    assert frozenset({"X1", "X2"}) not in klm_table
    assert klm_table[frozenset({"X1", "Y2"})] == {"X1.Y2"}


def test_intersection_valence_drops_by_two():
    klm = gen_klm(KlmSpec(2, 1, 2))
    p = by_name(klm)

    def valences(inter):
        """The number of the intersection's darts at each of its vertices."""
        vertices, dart_ids = inter
        per = {v: 0 for v in vertices}
        for did in dart_ids:
            per[klm.darts[did].source] += 1
        return per

    inter = intersection(klm, [p["X1"]])
    assert set(valences(inter).values()) == {2}
    inter2 = intersection(klm, [p["X1"], p["Y1"]])
    assert set(valences(inter2).values()) == {0}


def test_check_assumptions_verdicts():
    assert check_assumptions(Arrangement(fixture("fig2_left"))).ok
    rep = check_assumptions(Arrangement(fixture("fig2_right")))
    assert not rep.ok1 and rep.ok2
    rep = check_assumptions(Arrangement(fixture("fig11_sphere")))
    assert rep.ok1 and not rep.ok2
    bad = [k for k, v in rep.assumption2.items() if not v["ok"]]
    assert bad == ["L1&L2"]
    assert rep.assumption2["L1&L2"]["components"] == 2


def test_minimal_empty_families_on_klm():
    klm = gen_klm(KlmSpec(2, 1, 2))
    fams = minimal_empty_families(
        {h.name: set(h.vertices) for h in all_hyperplanes(klm)}
    )
    expected = {
        frozenset({"X1", "X2"}),
        frozenset({"Z1", "Z2"}),
        frozenset({"X1", "Y1", "Z1"}),
        frozenset({"X1", "Y1", "Z2"}),
        frozenset({"X2", "Y1", "Z1"}),
        frozenset({"X2", "Y1", "Z2"}),
    }
    assert set(fams) == expected


def test_minimal_empty_families_on_disjoint_points():
    g = fixture("fig8_line5")
    fams = minimal_empty_families(
        {h.name: set(h.vertices) for h in all_hyperplanes(g)}
    )
    assert all(len(f) == 2 for f in fams)
    assert len(fams) == 10  # all pairs of the five distinct points


def _brute_minimal_empty_families(sets):
    names = sorted(sets)

    def empty(family):
        return not frozenset.intersection(*(sets[n] for n in family))

    return [
        frozenset(c)
        for size in range(1, len(names) + 1)
        for c in combinations(names, size)
        if empty(c)
        and (size == 1 or not any(empty(set(c) - {n}) for n in c))
    ]


@settings(max_examples=200, deadline=None)
@given(
    st.dictionaries(
        st.sampled_from("abcdefg"),
        st.frozensets(st.integers(0, 5)),
        max_size=7,
    )
)
@example({"a": frozenset(), "b": frozenset({1})})
@example({"a": frozenset(), "b": frozenset(), "c": frozenset()})
def test_minimal_empty_families_match_the_enumeration_of_all_families(sets):
    """Minimal transversals equal the inclusion-minimal families with no
    common point, in (size, sorted names) order; a name with an empty set
    is a singleton family and lies in no larger one."""
    assert minimal_empty_families(sets) == _brute_minimal_empty_families(
        sets
    )


def test_minimal_empty_families_of_the_halfspaces_of_l555():
    """The full theory's monomial ideal on L(5,5,5), whose nonempty
    halfspace families are far too many to list."""
    g = gen_klm(KlmSpec(5, 5, 5))
    sets = {}
    for i, h in enumerate(all_hyperplanes(g)):
        pos, neg = halfspace_pair(g, h)
        sets[f"H{i + 1}"] = pos.vertices
        sets[f"Hbar{i + 1}"] = neg.vertices
    fams = minimal_empty_families(sets)
    assert len(fams) == 155
    assert all(
        not frozenset.intersection(*(sets[n] for n in f)) for f in fams
    )


def test_oriented_pair_respects_metadata():
    klm = Arrangement(gen_klm(KlmSpec(1, 1, 1)))
    pos, neg = klm.oriented("X1")
    assert klm.graph.meta["positive_normals"]["X1"] in pos.normals.values()
    # without metadata the sort-order-first half is positive
    arr = Arrangement(fixture("fig2_left"))
    pos, neg = arr.oriented("L2")
    assert pos.sort_key() <= neg.sort_key()
