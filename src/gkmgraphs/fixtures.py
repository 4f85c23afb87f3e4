"""Built-in graphs: the figure fixtures and the three-direction line
arrangement family.

The five figure fixtures ship as canonical JSON files under ``data/``.  The
arrangement generator builds the graph from scratch: the direction of a dart
fixes its forgetful label, and ``derive_connection`` finds the connection of
the plane graph that carries those labels.  The residual coefficients come
from the local model at the bottom-left vertex, e_i and x - e_i, so that
the (1,1,1) arrangement reproduces the triangle fixture, carried along a
spanning tree by the connection.  The graph is built with that connection
and checks its congruences across every edge, the tree's and the rest.
``local_model(n)`` and the line counts of ``gen_klm`` are capped, so an
oversized request is refused before anything is built.
"""

from __future__ import annotations

import os
import re
from collections import namedtuple

from .errors import GkmError, StructuralError
from .graph import Dart, GkmGraph, load_graph, validate_axial
from .intlinalg import is_multiple_of, vec_sub

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
    cohomology*, 2001).  The connection is the one ``derive_connection``
    finds on the plane graph, whose labels are the forgetful ones with a
    residual coefficient of 0: across an edge, the tangent darts are the
    multiples of its label, and each crossing dart has one congruent
    image.
    """
    lines = _klm_lines(spec)
    plane = GkmGraph(2, _klm_darts(lines))
    conn = plane.connection
    base = lines[0].vertex_ids[0]
    minus = {ln.minus for ln in lines}
    residual = {
        did: int(did.rsplit(":", 1)[1] in minus) for did in plane.darts_at(base)
    }
    seen, stack = {base}, [base]
    while stack:
        for eid in plane.darts_at(stack.pop()):
            tgt = plane.darts[eid].target
            if tgt is None or tgt in seen:
                continue
            seen.add(tgt)
            stack.append(tgt)
            for d, image in conn[eid].items():
                c = is_multiple_of(
                    vec_sub(plane.axial(d), plane.axial(image)), plane.axial(eid)
                )
                residual[image] = residual[d] - c * residual[eid]
    darts = [
        d._replace(axial=d.axial[:2] + (residual[did],))
        for did, d in sorted(plane.darts.items())
    ]
    meta = {
        "hyperplane_names": {
            line.name: sorted(set(line.vertex_ids)) for line in lines
        },
        "positive_normals": _positive_normals(plane, lines),
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
    """Every dart of the arrangement, labelled with its forgetful label and
    a residual coefficient of 0."""
    darts = []
    for line in lines:
        ids = line.vertex_ids
        for i, v in enumerate(ids):
            for suffix, back, j in (
                (line.plus, line.minus, i + 1),
                (line.minus, line.plus, i - 1),
            ):
                to = ids[j] if 0 <= j < len(ids) else None
                darts.append(Dart(
                    f"{v}:{suffix}",
                    v,
                    to,
                    f"{to}:{back}" if to else None,
                    _DIRECTIONS[suffix] + (0,),
                ))
    return darts


def _positive_normals(plane, lines):
    """Pick the normal dart fixing each line's halfspace orientation.

    At the line's first vertex, the recorded dart is the one whose
    forgetful label pairs to +1 with the line's characteristic covector;
    the line's own darts pair to 0.
    """
    return {
        line.name: next(
            d
            for d in plane.darts_at(line.vertex_ids[0])
            if sum(a * b for a, b in zip(plane.axial(d), line.lam)) == 1
        )
        for line in lines
    }
