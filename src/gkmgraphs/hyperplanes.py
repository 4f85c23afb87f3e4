"""Hyperplanes, halfspaces and Thom classes.

A hyperplane is found by connection closure from a seed vertex: remove one
pair from the vertex's dart set and push the remaining darts across every
edge with the connection until the vertex->dart-set table stabilizes.  The
halfspace pair of a hyperplane is built by component-side assignment (each
component of the graph minus the hyperplane is entered by normal darts of
exactly one orientation class when assumption (1) holds) followed by a full
re-validation of the pre-halfspace axioms, so a wrong assignment can only
surface as a reported violation, never as a silently wrong halfspace.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field

from .errors import (
    AssumptionOneViolation,
    ClosureFailure,
    CongruenceFailure,
    GkmError,
)
from .graph import GkmGraph, pair_decomposition
from .intlinalg import Vec, is_multiple_of, vec_sub


def _stable_label(vertices, dart_ids):
    blob = json.dumps([sorted(vertices), sorted(dart_ids)])
    return hashlib.sha256(blob.encode()).hexdigest()[:12]


@dataclass(frozen=True)
class Hyperplane:
    label: str
    vertices: frozenset
    dart_ids: frozenset
    name: str = ""

    def sort_key(self):
        return (sorted(self.vertices), sorted(self.dart_ids))

    def named(self, name):
        return Hyperplane(self.label, self.vertices, self.dart_ids, name)


@dataclass
class Halfspace:
    hyperplane: Hyperplane
    vertices: frozenset
    dart_ids: frozenset
    normals: dict = field(default_factory=dict)  # boundary vertex -> dart id

    @property
    def label(self):
        return _stable_label(self.vertices, self.dart_ids)

    def sort_key(self):
        return (sorted(self.vertices), sorted(self.dart_ids))

    def boundary_vertices(self):
        return sorted(self.normals)


@dataclass
class ThomClass:
    values: dict  # vertex -> lattice vector (length n+1)

    def __getitem__(self, vertex) -> Vec:
        return self.values[vertex]


@dataclass
class IntersectionResult:
    vertices: frozenset
    dart_ids: frozenset
    component_count: int

    @property
    def is_empty(self):
        return not self.vertices

    @property
    def connected(self):
        return self.component_count <= 1

    def valences(self, g):
        per = {v: 0 for v in self.vertices}
        for did in self.dart_ids:
            per[g.darts[did].source] += 1
        return per


# -- hyperplane discovery ------------------------------------------------------


def hyperplane_through(g: GkmGraph, vertex, excluded_pair) -> Hyperplane:
    """The unique hyperplane whose dart set at `vertex` omits the given
    1-dimensional pair; built by iterated connection closure."""
    excluded = frozenset(excluded_pair)
    if len(excluded) != 2 or not excluded <= set(g.darts_at(vertex)):
        raise GkmError("excluded_pair must be two darts at the seed vertex")
    a, b = sorted(excluded)
    if g.axial(a) != vec_sub(g.residual, g.axial(b)):
        raise GkmError("excluded darts do not form a 1-dimensional pair")
    table = {vertex: frozenset(g.darts_at(vertex)) - excluded}
    stack = [vertex]
    conn = g.connection
    while stack:
        v = stack.pop()
        for eid in sorted(table[v]):
            dart = g.darts[eid]
            if dart.is_leg:
                continue
            image = frozenset(conn[eid][d] for d in table[v])
            q = dart.target
            if q in table:
                if table[q] != image:
                    raise ClosureFailure(
                        f"connection closure is inconsistent at vertex {q!r}"
                    )
                continue
            _check_pair_set(g, q, image)
            table[q] = image
            stack.append(q)
    darts = frozenset().union(*table.values()) if table else frozenset()
    vertices = frozenset(table)
    return Hyperplane(_stable_label(vertices, darts), vertices, darts)


def _check_pair_set(g, vertex, dart_ids):
    x = g.residual
    values = {d: g.axial(d) for d in dart_ids}
    for d, a in values.items():
        want = vec_sub(x, a)
        if sum(1 for other in dart_ids if values[other] == want) != 1:
            raise ClosureFailure(
                f"dart set at {vertex!r} does not split into pairs summing "
                "to the residual vector"
            )


def _name_key(name):
    """Sort key of hyperplane names: X2 before X10, L-names by number."""
    i = 0
    while i < len(name) and not name[i].isdigit():
        i += 1
    head, tail = name[:i], name[i:]
    return (head, int(tail)) if tail.isdigit() else (name, -1)


def all_hyperplanes(g: GkmGraph):
    """All hyperplanes, deduplicated and deterministically named.

    Seeds are every (vertex, pair); one closure runs per hyperplane.  A
    seed (w, p) is skipped when a hyperplane already found keeps exactly
    the darts at w outside p: by the uniqueness of ``hyperplane_through``
    its closure would rebuild that hyperplane, through the same checks.
    """
    dec = pair_decomposition(g)
    seen = {}
    covered = set()  # (vertex, excluded darts) of the hyperplanes found
    for v in g.vertices:
        for pair in dec.pairs[v]:
            if (v, frozenset(pair)) in covered:
                continue
            h = hyperplane_through(g, v, pair)
            seen.setdefault(h.label, h)
            for w in h.vertices:
                covered.add((w, frozenset(g.darts_at(w)) - h.dart_ids))
    ordered = sorted(seen.values(), key=Hyperplane.sort_key)
    names = g.meta.get("hyperplane_names") or {}
    by_vertexset = {frozenset(vs): name for name, vs in names.items()}
    out = []
    for i, h in enumerate(ordered):
        name = by_vertexset.get(h.vertices, f"L{i + 1}")
        out.append(h.named(name))
    return out


# -- intersections and assumption (2) -------------------------------------------


def intersect_hyperplanes(g: GkmGraph, subset) -> IntersectionResult:
    subset = list(subset)
    if not subset:
        raise GkmError("need at least one hyperplane")
    vertices = frozenset.intersection(*(h.vertices for h in subset))
    darts = frozenset.intersection(*(h.dart_ids for h in subset))
    darts = frozenset(d for d in darts if g.darts[d].source in vertices)
    return IntersectionResult(vertices, darts, _component_count(g, vertices, darts))


def _component_count(g, vertices, dart_ids):
    if not vertices:
        return 0
    adj = {v: [] for v in vertices}
    for did in dart_ids:
        d = g.darts[did]
        if d.target in adj and d.opposite in dart_ids:
            adj[d.source].append(d.target)
    seen = set()
    count = 0
    for v in sorted(vertices):
        if v in seen:
            continue
        count += 1
        stack = [v]
        seen.add(v)
        while stack:
            w = stack.pop()
            for u in adj[w]:
                if u not in seen:
                    seen.add(u)
                    stack.append(u)
    return count


def nonempty_intersection_table(named_vertex_sets):
    """All families with a common vertex, keyed by frozenset of names.

    Supersets of empty families are pruned, which is exact because
    intersection emptiness is monotone under enlargement.
    """
    names = sorted(named_vertex_sets)
    table = {frozenset(): None}
    frontier = []
    for i, name in enumerate(names):
        fam = frozenset([name])
        table[fam] = frozenset(named_vertex_sets[name])
        frontier.append((fam, i, table[fam]))
    while frontier:
        nxt = []
        for fam, idx, verts in frontier:
            for j in range(idx + 1, len(names)):
                common = verts & frozenset(named_vertex_sets[names[j]])
                if common:
                    bigger = fam | {names[j]}
                    table[bigger] = common
                    nxt.append((bigger, j, common))
        frontier = nxt
    del table[frozenset()]
    return table


def minimal_empty_families(named_vertex_sets):
    """Inclusion-minimal nonempty name families whose members have no
    common vertex, ordered by size and then by sorted names.

    A family has no common vertex exactly when, for every vertex v, it
    holds a name whose set misses v.  So the families sought are the
    minimal transversals of the hypergraph whose edges are, per vertex,
    the names that miss it.  Berge's incremental algorithm (Berge,
    *Hypergraphs*, 1989) builds them edge by edge on bitmasks of names and
    never lists a nonempty family.  One extra edge of all names, a vertex
    in no set, rules out the empty family without changing the others; so
    a name with an empty set comes out as a singleton, and with no
    vertices at all every singleton does.
    """
    names = sorted(named_vertex_sets)
    everything = (1 << len(names)) - 1
    inside = {}  # vertex -> mask of the names whose set contains it
    for i, name in enumerate(names):
        for v in named_vertex_sets[name]:
            inside[v] = inside.get(v, 0) | (1 << i)
    edges = {everything & ~mask for mask in inside.values()} | {everything}
    transversals = [0]
    for edge in sorted(edges):
        kept = [t for t in transversals if t & edge]
        bits = [1 << i for i in range(len(names)) if edge >> i & 1]
        # (t|x) & edge == x, so a kept transversal inside t|x holds x; two
        # grown sets are never nested, so no second minimization is needed
        holders = {x: [h for h in kept if h & x] for x in bits}
        grown = [
            t | x
            for t in transversals
            if not t & edge
            for x in bits
            if not any(h & (t | x) == h for h in holders[x])
        ]
        transversals = kept + grown
    families = [
        frozenset(names[i] for i in range(len(names)) if t >> i & 1)
        for t in transversals
    ]
    return sorted(families, key=lambda f: (len(f), sorted(f)))


# -- halfspaces -----------------------------------------------------------------


def _excluded_pairs(g, hyperplane):
    out = {}
    for v in sorted(hyperplane.vertices):
        extra = [d for d in g.darts_at(v) if d not in hyperplane.dart_ids]
        if len(extra) != 2:
            raise AssumptionOneViolation(
                f"vertex {v!r} misses {len(extra)} darts from the hyperplane",
                hyperplane=hyperplane.name,
                check="excluded_pair",
            )
        out[v] = tuple(sorted(extra))
    return out


def _orientation_classes(g, hyperplane, excluded):
    """2-color the excluded darts so the connection preserves colors."""
    color = {}
    first = sorted(hyperplane.vertices)[0]
    color[excluded[first][0]] = 0
    color[excluded[first][1]] = 1
    conn = g.connection
    edges_in_l = [
        d
        for d in sorted(hyperplane.dart_ids)
        if not g.darts[d].is_leg and g.darts[d].opposite in hyperplane.dart_ids
        and g.darts[d].target in hyperplane.vertices
    ]
    changed = True
    while changed:
        changed = False
        for eid in edges_in_l:
            src, tgt = g.darts[eid].source, g.darts[eid].target
            for d in excluded[src]:
                img = conn[eid][d]
                if img not in excluded[tgt]:
                    raise AssumptionOneViolation(
                        f"connection image of normal dart {d!r} leaves the "
                        "normal pair",
                        hyperplane=hyperplane.name,
                        check="normal_closure",
                    )
                if d in color:
                    if img in color:
                        if color[img] != color[d]:
                            raise AssumptionOneViolation(
                                "normal darts cannot be oriented "
                                "consistently",
                                hyperplane=hyperplane.name,
                                check="orientation",
                            )
                    else:
                        color[img] = color[d]
                        changed = True
    missing = [
        d for v in excluded for d in excluded[v] if d not in color
    ]
    if missing:
        # L is connected, so propagation reaches every boundary vertex
        raise AssumptionOneViolation(
            "normal darts not reached by propagation; hyperplane "
            "is not connected",
            hyperplane=hyperplane.name,
            check="connectivity",
        )
    for v, (d1, d2) in excluded.items():
        if color[d1] == color[d2]:
            raise AssumptionOneViolation(
                f"both normal darts at {v!r} received the same orientation",
                hyperplane=hyperplane.name,
                check="orientation",
            )
    return color


def _graph_components_without(g, removed):
    remaining = [v for v in g.vertices if v not in removed]
    comp = {}
    for v in remaining:
        if v in comp:
            continue
        stack = [v]
        comp[v] = v
        while stack:
            w = stack.pop()
            for did in g.darts_at(w):
                t = g.darts[did].target
                if t is not None and t not in removed and t not in comp:
                    comp[t] = v
                    stack.append(t)
    return comp


def halfspace_pair(g: GkmGraph, hyperplane: Hyperplane):
    """The unique (halfspace, opposite side) pair meeting in the hyperplane.

    Raises AssumptionOneViolation whenever existence or uniqueness fails;
    the returned pair is ordered by sort key, so the result is
    deterministic.
    """
    excluded = _excluded_pairs(g, hyperplane)
    color = _orientation_classes(g, hyperplane, excluded)
    comp = _graph_components_without(g, hyperplane.vertices)
    side_of_comp = {}
    for v in sorted(excluded):
        for d in excluded[v]:
            t = g.darts[d].target
            if t is None or t in hyperplane.vertices:
                continue
            root = comp[t]
            prev = side_of_comp.get(root)
            if prev is not None and prev != color[d]:
                raise AssumptionOneViolation(
                    "a component outside the hyperplane is reachable from "
                    "both normal orientations",
                    hyperplane=hyperplane.name,
                    check="component_sides",
                )
            side_of_comp[root] = color[d]
    halves = []
    for side in (0, 1):
        verts = set(hyperplane.vertices)
        darts = set(hyperplane.dart_ids)
        normals = {}
        for v in excluded:
            for d in excluded[v]:
                if color[d] == side:
                    darts.add(d)
                else:
                    normals[v] = d
        for root, s in side_of_comp.items():
            if s != side:
                continue
            for v, r in comp.items():
                if r == root:
                    verts.add(v)
                    darts.update(g.darts_at(v))
        h = Halfspace(hyperplane, frozenset(verts), frozenset(darts), normals)
        _validate_pre_halfspace(g, h)
        if not _subgraph_connected(g, h.vertices, h.dart_ids):
            raise AssumptionOneViolation(
                "candidate halfspace is not connected",
                hyperplane=hyperplane.name,
                check="halfspace_connected",
            )
        halves.append(h)
    a, b = halves
    if (a.vertices & b.vertices) != hyperplane.vertices or (
        a.dart_ids & b.dart_ids
    ) != hyperplane.dart_ids:
        raise AssumptionOneViolation(
            "halfspace pair does not intersect exactly in the hyperplane",
            hyperplane=hyperplane.name,
            check="intersection",
        )
    if (a.vertices | b.vertices) != set(g.vertices) or (
        a.dart_ids | b.dart_ids
    ) != set(g.darts):
        raise AssumptionOneViolation(
            "halfspace pair does not cover the graph",
            hyperplane=hyperplane.name,
            check="cover",
        )
    ta, tb = thom_class(g, a), thom_class(g, b)
    x = g.residual
    for v in g.vertices:
        if tuple(p + q for p, q in zip(ta[v], tb[v])) != x:
            raise AssumptionOneViolation(
                "Thom classes of the pair do not sum to the residual class",
                hyperplane=hyperplane.name,
                check="thom_sum",
            )
    halves.sort(key=Halfspace.sort_key)
    return halves[0], halves[1]


def _subgraph_connected(g, vertices, dart_ids):
    if not vertices:
        return True
    verts = sorted(vertices)
    seen = {verts[0]}
    stack = [verts[0]]
    while stack:
        v = stack.pop()
        for did in g.darts_at(v):
            d = g.darts[did]
            if (
                did in dart_ids
                and d.opposite in dart_ids
                and d.target in vertices
                and d.target not in seen
            ):
                seen.add(d.target)
                stack.append(d.target)
    return len(seen) == len(vertices)


def _validate_pre_halfspace(g, h: Halfspace):
    n = g.rank
    sizes = {}
    for v in sorted(h.vertices):
        inside = [d for d in g.darts_at(v) if d in h.dart_ids]
        sizes[v] = len(inside)
        if sizes[v] not in (2 * n - 1, 2 * n):
            raise AssumptionOneViolation(
                f"vertex {v!r} keeps {sizes[v]} darts, expected "
                f"{2 * n - 1} or {2 * n}",
                hyperplane=h.hyperplane.name,
                check="valence",
            )
    for did in h.dart_ids:
        if g.darts[did].source not in h.vertices:
            raise AssumptionOneViolation(
                f"dart {did!r} has source outside the halfspace",
                hyperplane=h.hyperplane.name,
                check="dart_source",
            )
    if (2 * n - 1) not in sizes.values():
        raise AssumptionOneViolation(
            "pre-halfspace needs at least one boundary vertex",
            hyperplane=h.hyperplane.name,
            check="boundary_exists",
        )
    conn = g.connection
    x = g.residual
    for eid in sorted(h.dart_ids):
        e = g.darts[eid]
        if e.is_leg or e.opposite not in h.dart_ids or e.target not in h.vertices:
            continue
        src_set = {d for d in g.darts_at(e.source) if d in h.dart_ids}
        tgt_set = {d for d in g.darts_at(e.target) if d in h.dart_ids}
        image = {conn[eid][d] for d in src_set}
        if len(src_set) == len(tgt_set):
            if image != tgt_set:
                raise AssumptionOneViolation(
                    f"restricted connection across {eid!r} is not a "
                    "bijection",
                    hyperplane=h.hyperplane.name,
                    check="closure_c1",
                )
        elif len(src_set) < len(tgt_set):
            if not image <= tgt_set:
                raise AssumptionOneViolation(
                    f"restricted connection across {eid!r} is not "
                    "injective into the target darts",
                    hyperplane=h.hyperplane.name,
                    check="closure_c2",
                )
            normal = h.normals.get(e.source)
            if normal is None or is_multiple_of(
                vec_sub(g.axial(normal), x), e.axial
            ) is None:
                raise AssumptionOneViolation(
                    f"normal congruence fails across {eid!r}",
                    hyperplane=h.hyperplane.name,
                    check="normal_congruence",
                )


def opposite_side(g: GkmGraph, h: Halfspace) -> Halfspace:
    """The unique pre-halfspace with H u I = Gamma and tau_H + tau_I = chi."""
    dec = pair_decomposition(g)
    boundary_planes = []
    normals = {}
    for v, nd in sorted(h.normals.items()):
        partner = dec.pair_of(g, v, nd)
        boundary_planes.append(hyperplane_through(g, v, (nd, partner)))
        normals[v] = partner
    verts = set(g.vertices) - set(h.vertices)
    darts = set(g.darts) - set(h.dart_ids)
    for plane in boundary_planes:
        verts |= plane.vertices
        darts |= plane.dart_ids
    # the hyperplane through a boundary vertex can pick up extra boundary
    # vertices of h; their normals are the pair partners there
    for plane in boundary_planes:
        for v in plane.vertices:
            if v in h.normals and v not in normals:
                normals[v] = dec.pair_of(g, v, h.normals[v])
    out = Halfspace(h.hyperplane, frozenset(verts), frozenset(darts), normals)
    _validate_pre_halfspace(g, out)
    return out


# -- Thom classes ----------------------------------------------------------------


def thom_class(g: GkmGraph, h: Halfspace) -> ThomClass:
    """Degree-2 class of a (pre-)halfspace; 0 outside, x inside,
    normal label on the boundary.  Checked against every congruence
    relation before being returned."""
    n = g.rank
    x = g.residual
    zero = (0,) * (n + 1)
    boundary = set(h.normals)
    if not boundary:
        raise GkmError("a pre-halfspace needs a boundary vertex")
    values = {}
    for v in g.vertices:
        if v not in h.vertices:
            values[v] = zero
        elif v in boundary:
            values[v] = g.axial(h.normals[v])
        else:
            values[v] = x
    tc = ThomClass(values)
    assert_class_congruences(g, {v: values[v] for v in g.vertices})
    return tc


def assert_class_congruences(g: GkmGraph, values):
    """Raise CongruenceFailure unless the vertexwise degree-2 values satisfy
    every edge congruence."""
    for eid in g.canonical_edges():
        e = g.darts[eid]
        if is_multiple_of(vec_sub(values[e.source], values[e.target]), e.axial) is None:
            raise CongruenceFailure(
                f"congruence fails on edge {eid!r}: "
                f"{values[e.source]} vs {values[e.target]} mod {e.axial}"
            )


def choose_positive_halfspace(g: GkmGraph, hyperplane: Hyperplane, pair=None):
    """Fix the orientation of a hyperplane's halfspace pair.

    Graphs generated from arrangements carry the choice in their metadata;
    otherwise the sort-order first halfspace is the positive one.  The
    Thom class of the hyperplane flips sign with this choice, so reports
    record which convention was used.  ``pair`` is the hyperplane's
    ``halfspace_pair`` when the caller has already built it.
    """
    pos, neg = pair if pair is not None else halfspace_pair(g, hyperplane)
    recorded = (g.meta.get("positive_normals") or {}).get(hyperplane.name)
    if recorded is not None:
        if recorded in neg.normals.values():
            pos, neg = neg, pos
        elif recorded not in pos.normals.values():
            raise GkmError(
                f"recorded normal {recorded!r} is not a normal of either "
                f"halfspace of {hyperplane.name}"
            )
    return pos, neg


# -- assumptions ----------------------------------------------------------------


@dataclass
class AssumptionReport:
    assumption1: dict
    assumption2: dict
    # hyperplane name -> its halfspace_pair, for the hyperplanes that pass
    # assumption (1); kept for the caller, not part of the report
    pairs: dict = field(default_factory=dict, repr=False)

    @property
    def ok1(self):
        return all(r["ok"] for r in self.assumption1.values())

    @property
    def ok2(self):
        return all(r["ok"] for r in self.assumption2.values())

    @property
    def ok(self):
        return self.ok1 and self.ok2

    def to_dict(self):
        return {
            "ok": self.ok,
            "assumption1": {"ok": self.ok1, "per_hyperplane": self.assumption1},
            "assumption2": {"ok": self.ok2, "per_subset": self.assumption2},
        }


def check_assumptions(g: GkmGraph, hyperplanes=None) -> AssumptionReport:
    """Assumption (1) via halfspace pairs, assumption (2) via connectivity
    of every nonempty hyperplane intersection."""
    if hyperplanes is None:
        hyperplanes = all_hyperplanes(g)
    a1 = {}
    pairs = {}
    for h in hyperplanes:
        try:
            pairs[h.name] = halfspace_pair(g, h)
            a1[h.name] = {"ok": True}
        except AssumptionOneViolation as exc:
            a1[h.name] = {"ok": False, "check": exc.check, "reason": str(exc)}
    by_name = {h.name: h for h in hyperplanes}
    table = nonempty_intersection_table(
        {h.name: set(h.vertices) for h in hyperplanes}
    )
    a2 = {}
    for fam in sorted(table, key=lambda f: (len(f), sorted(f))):
        if len(fam) < 2:
            continue
        inter = intersect_hyperplanes(g, [by_name[n] for n in sorted(fam)])
        key = "&".join(sorted(fam))
        if inter.connected:
            a2[key] = {"ok": True}
        else:
            a2[key] = {
                "ok": False,
                "components": inter.component_count,
                "vertices": sorted(inter.vertices),
            }
    return AssumptionReport(a1, a2, pairs)
