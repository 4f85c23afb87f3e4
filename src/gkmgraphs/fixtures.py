"""Built-in graphs: the figure fixtures and the three-direction line
arrangement family.

The five figure fixtures ship as canonical JSON files under ``data/``.  The
arrangement generator builds the graph from scratch: the direction of a dart
fixes its forgetful label, and those labels fix the connection.  The
residual coefficients come from the local model at the bottom-left vertex,
e_i and x - e_i, so that the (1,1,1) arrangement reproduces the triangle
fixture, carried along a spanning tree by the connection.  The graph is
built with that connection and checks its congruences across every edge,
the tree's and the rest.  ``local_model(n)`` and the line counts of
``gen_klm`` are capped, so an oversized request is refused before anything
is built.
"""

from __future__ import annotations

import os
import re
from collections import namedtuple

from .errors import GkmError, StructuralError
from .graph import Dart, GkmGraph, load_graph, validate_axial
from .intlinalg import congruent, is_multiple_of, vec_sub

FIXTURE_IDS = (
    "fig2_left",
    "fig2_right",
    "fig7_pentagon",
    "fig8_line5",
    "fig11_sphere",
)

_LOCAL_MODEL_RE = re.compile(r"^local_model\((\d+)\)$")

# Size caps, refused up front: far above every test and benchmark input
# (local_model(6), L(5,5,5)).  CI times the largest accepted graphs:
# ``gen klm`` on L(30,30,30), and ``validate`` and the shelling commands
# on local_model(32), each within 10 s.
LOCAL_MODEL_MAX_N = 32
KLM_MAX_LINES = 30

# the figure fixtures ship next to this module, as package data
_DATA_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data")


def fixture(fixture_id: str) -> GkmGraph:
    """Load a built-in graph by id (``fig2_left``, ..., ``local_model(n)``)."""
    m = _LOCAL_MODEL_RE.match(fixture_id)
    if m:
        digits = m.group(1).lstrip("0")
        if len(digits) > len(str(LOCAL_MODEL_MAX_N)):
            # refused before int(), which is itself slow on a huge string
            raise GkmError(f"local model needs n <= {LOCAL_MODEL_MAX_N}")
        return local_model(int(digits or "0"))
    if fixture_id not in FIXTURE_IDS:
        raise GkmError(
            f"unknown fixture {fixture_id!r}; known: "
            + ", ".join(FIXTURE_IDS)
            + ", local_model(n)"
        )
    path = os.path.join(_DATA_DIR, f"{fixture_id}.json")
    with open(path, encoding="utf-8") as fh:
        return load_graph(fh.read())


def local_model(n: int) -> GkmGraph:
    """One vertex with 2n legs labeled e_1..e_n and x-e_1..x-e_n."""
    if n < 1:
        raise GkmError("local model needs n >= 1")
    if n > LOCAL_MODEL_MAX_N:
        raise GkmError(f"local model needs n <= {LOCAL_MODEL_MAX_N}")
    darts = []
    for i in range(n):
        plus = tuple(int(j == i) for j in range(n)) + (0,)
        minus = tuple(-int(j == i) for j in range(n)) + (1,)
        darts.append(Dart(f"o:p{i + 1}", "o", None, None, plus))
        darts.append(Dart(f"o:m{i + 1}", "o", None, None, minus))
    return GkmGraph(n, darts)


# -- the L_{k,l,m} family ------------------------------------------------------

# direction suffix -> forgetful label (e1, e2)
_DIRECTIONS = {
    "e": (0, 1),
    "w": (0, -1),
    "n": (1, 0),
    "s": (-1, 0),
    "se": (-1, 1),
    "nw": (1, -1),
}

_LINE_KINDS = {
    # kind: (plus direction, minus direction, lambda covector)
    "X": ("e", "w", (1, 0)),
    "Y": ("n", "s", (0, 1)),
    "Z": ("se", "nw", (-1, -1)),
}


class KlmSpec(namedtuple("KlmSpec", "k l m")):
    """The line counts of L_{k,l,m}, each checked to lie in
    1..KLM_MAX_LINES."""

    __slots__ = ()

    def __new__(cls, k, l, m):
        if min(k, l, m) < 1:
            raise GkmError("k, l, m must all be at least 1")
        if max(k, l, m) > KLM_MAX_LINES:
            raise GkmError(f"k, l, m must all be at most {KLM_MAX_LINES}")
        return super().__new__(cls, k, l, m)


class _Line:
    def __init__(self, name, kind, vertex_ids):
        self.name = name
        self.vertex_ids = vertex_ids  # ordered along the plus direction
        self.plus, self.minus, self.lam = _LINE_KINDS[kind]


def _klm_lines(spec: KlmSpec):
    k, l, m = spec.k, spec.l, spec.m
    # X_r: y = r-1; Y_s: x = s-1; Z_t: x + y = k + l - 2 + t.  The Z offsets
    # exceed every x + y value of an X/Y crossing, so no three lines meet,
    # and the resulting orderings along each line are the ones hard-coded
    # below (Y then Z crossings on an X line, etc).
    lines = []
    for r in range(1, k + 1):
        ids = [f"X{r}.Y{s}" for s in range(1, l + 1)]
        ids += [f"X{r}.Z{t}" for t in range(1, m + 1)]
        lines.append(_Line(f"X{r}", "X", ids))
    for s in range(1, l + 1):
        ids = [f"X{r}.Y{s}" for r in range(1, k + 1)]
        ids += [f"Y{s}.Z{t}" for t in range(1, m + 1)]
        lines.append(_Line(f"Y{s}", "Y", ids))
    for t in range(1, m + 1):
        ids = [f"Y{s}.Z{t}" for s in range(1, l + 1)]
        ids += [f"X{r}.Z{t}" for r in range(k, 0, -1)]
        lines.append(_Line(f"Z{t}", "Z", ids))
    return lines


def gen_klm(spec: KlmSpec) -> GkmGraph:
    """GKM graph of k horizontal, l vertical and m diagonal lines in
    general position, fully validated.

    The base vertex, the first vertex of the first line, carries the local
    model: residual coefficient 0 on its plus darts and 1 on its minus
    darts.  A walk along a spanning tree carries it to every vertex with
    the connection: across an edge e each dart d goes to its image d',
    labelled alpha(d) - c alpha(e), where the forgetful labels fix the
    multiple c (Guillemin-Zara, *1-skeleta, Betti numbers, and equivariant
    cohomology*, 2001).
    """
    lines = _klm_lines(spec)
    forget, dart_rows = _klm_darts(lines)
    conn = _klm_connection(forget, dart_rows)
    edges_at = {}  # vertex -> its edge dart ids
    for did, (src, tgt, _) in dart_rows.items():
        if tgt is not None:
            edges_at.setdefault(src, []).append(did)
    base = lines[0].vertex_ids[0]
    minus = {ln.minus for ln in lines}
    residual = {
        did: int(did.rsplit(":", 1)[1] in minus)
        for did, row in dart_rows.items()
        if row[0] == base
    }
    seen, stack = {base}, [base]
    while stack:
        for eid in edges_at[stack.pop()]:
            tgt = dart_rows[eid][1]
            if tgt in seen:
                continue
            seen.add(tgt)
            stack.append(tgt)
            for d, image in conn[eid].items():
                c = is_multiple_of(vec_sub(forget[d], forget[image]), forget[eid])
                residual[image] = residual[d] - c * residual[eid]
    darts = [
        Dart(did, *dart_rows[did], forget[did] + (residual[did],))
        for did in sorted(dart_rows)
    ]
    meta = {
        "hyperplane_names": {
            line.name: sorted(set(line.vertex_ids)) for line in lines
        },
        "positive_normals": _positive_normals(lines),
    }
    # the tree edges hold their congruences by construction.  The
    # constructor checks every dart's congruence across every edge, which
    # covers the edges off the tree; validate_axial checks the pair sums,
    # the opposite signs and, by three_independence, that this connection
    # is the only one
    g = GkmGraph(2, darts, connection=conn, meta=meta)
    report = validate_axial(g)
    if not report.ok:
        raise StructuralError(
            "generated arrangement graph fails validation: "
            + ", ".join(report.failed_checks())
        )
    return g


def _klm_darts(lines):
    """Forgetful label and (source, target, opposite) of every dart, both
    keyed by dart id."""
    forget = {}  # dart id -> forgetful label
    dart_rows = {}  # dart id -> (source, target, opposite)
    for line in lines:
        ids = line.vertex_ids
        for i, v in enumerate(ids):
            plus_id = f"{v}:{line.plus}"
            minus_id = f"{v}:{line.minus}"
            nxt = ids[i + 1] if i + 1 < len(ids) else None
            prv = ids[i - 1] if i - 1 >= 0 else None
            forget[plus_id] = _DIRECTIONS[line.plus]
            dart_rows[plus_id] = (
                v,
                nxt,
                f"{nxt}:{line.minus}" if nxt else None,
            )
            forget[minus_id] = _DIRECTIONS[line.minus]
            dart_rows[minus_id] = (
                v,
                prv,
                f"{prv}:{line.plus}" if prv else None,
            )
    return forget, dart_rows


def _positive_normals(lines):
    """Pick the normal dart fixing each line's halfspace orientation.

    At the line's first vertex, the recorded dart is the one whose
    forgetful label pairs to +1 with the line's characteristic covector.
    """
    by_vertex = {}
    for line in lines:
        for v in line.vertex_ids:
            by_vertex.setdefault(v, []).append(line)
    out = {}
    for line in lines:
        v0 = line.vertex_ids[0]
        other = next(ln for ln in by_vertex[v0] if ln.name != line.name)
        for suffix in (other.plus, other.minus):
            f = _DIRECTIONS[suffix]
            if f[0] * line.lam[0] + f[1] * line.lam[1] == 1:
                out[line.name] = f"{v0}:{suffix}"
                break
        else:
            raise StructuralError(f"no normal candidate for line {line.name}")
    return out


def _klm_connection(forget, dart_rows):
    """The connection ``{edge dart: {dart: image}}`` of the arrangement,
    read off the forgetful labels."""
    darts_at = {}  # vertex -> its dart ids
    for did, (src, _, _) in dart_rows.items():
        darts_at.setdefault(src, []).append(did)
    conn = {}
    for eid, (src, tgt, opp) in dart_rows.items():
        if tgt is None:
            continue
        w = forget[eid]
        # the edge dart goes to its opposite, its tangent sibling to the
        # opposite's sibling, and each crossing dart to its congruent image
        mapping = conn[eid] = {eid: opp}
        mapping[_sibling(eid, src)] = _sibling(opp, tgt)
        tangent_at_tgt = set(mapping.values())
        cross_tgt = [d for d in darts_at[tgt] if d not in tangent_at_tgt]
        for d in darts_at[src]:
            if d in mapping:
                continue
            images = [d2 for d2 in cross_tgt if congruent(forget[d], forget[d2], w)]
            if len(images) != 1:
                raise StructuralError(
                    f"forgetful labels leave the connection across {eid} "
                    "ambiguous"
                )
            mapping[d] = images[0]
    return conn


def _sibling(dart_id, vertex):
    """The other dart at `vertex` tangent to the same line."""
    suffix = dart_id.rsplit(":", 1)[1]
    for plus, minus, _ in _LINE_KINDS.values():
        if suffix == plus:
            return f"{vertex}:{minus}"
        if suffix == minus:
            return f"{vertex}:{plus}"
    raise KeyError(dart_id)
