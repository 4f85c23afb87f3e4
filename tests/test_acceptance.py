"""Acceptance suite: one test per criterion, each printing a PASS line
with its runtime.  Budgets are asserted, not just reported.

Run with ``pytest -s tests/test_acceptance.py`` to see the lines.
"""

import time

from gkmgraphs.cohomology import (
    cohomology_basis,
    kernel_forgetful_check,
    verify_iso,
)
from gkmgraphs.fixtures import KlmSpec, fixture, gen_klm
from gkmgraphs.graph import pair_decomposition
from gkmgraphs.hyperplanes import (
    Arrangement,
    all_hyperplanes,
    check_assumptions,
    halfspace_pair,
    thom_class,
)
from gkmgraphs.polynomials import IntPolynomial
from oracles import (
    chi_class,
    localize_at,
    monomial_poly,
    shelling_by_subsets,
    vector_class,
)
from gkmgraphs.shelling import (
    basis_monomial_name,
    build_complex,
    express_in_basis,
    find_shelling,
    module_basis,
    ordinary_cohomology,
    shelling_context,
)

PASSING_FIXTURES = [
    ("fig2_left", lambda: fixture("fig2_left")),
    ("fig7_pentagon", lambda: fixture("fig7_pentagon")),
    ("fig8_line5", lambda: fixture("fig8_line5")),
    ("gen_klm(2,1,2)", lambda: gen_klm(KlmSpec(2, 1, 2))),
]


def report(number, description, t0, budget):
    elapsed = time.perf_counter() - t0
    print(f"[PASS] criterion {number}: {description} ({elapsed:.2f}s)")
    assert elapsed < budget, f"criterion {number} exceeded {budget}s budget"


def klm_poly(ctx, *names_exps):
    mono = [0] * len(ctx.names)
    for name, e in names_exps:
        mono[ctx.names.index(name)] += e
    return IntPolynomial(len(ctx.names), {tuple(mono): 1})


def test_criterion_1_module_basis_of_klm_212():
    t0 = time.perf_counter()
    ctx = shelling_context(gen_klm(KlmSpec(2, 1, 2)))
    names = {basis_monomial_name(b) for b in module_basis(ctx)}
    assert names == {
        "1", "Z1", "Z2", "X2", "X2*Z1", "X2*Z2", "Y1*Z1", "Y1*Z2"
    }
    report(1, "L_{2,1,2} module basis is {1,Z1,Z2,X2,X2Z1,X2Z2,Y1Z1,Y1Z2}",
           t0, 1.0)


def test_criterion_2_equivariant_structure_constants_of_klm_212():
    t0 = time.perf_counter()
    ctx = shelling_context(gen_klm(KlmSpec(2, 1, 2)))
    e1 = IntPolynomial.variable(2, 0)
    e2 = IntPolynomial.variable(2, 1)
    one = IntPolynomial.constant(2, 1)

    def expansion(*names_exps):
        exp = express_in_basis(ctx, klm_poly(ctx, *names_exps))
        basis = module_basis(ctx)
        return {
            basis_monomial_name(basis[i]): c
            for i, c in exp.items()
            if not c.is_zero()
        }

    assert expansion(("X2", 2)) == {"X2": e1, "X2*Z1": one, "X2*Z2": one}
    assert expansion(("Z1", 2)) == {"Z1": -e2, "Y1*Z1": one}
    assert expansion(("Z1", 1), ("Z2", 1)) == {}
    assert expansion(("Z2", 2)) == {"Z2": -e2, "Y1*Z2": one}
    report(2, "X2^2 = e1*X2 + X2Z1 + X2Z2, Z1^2 = -e2*Z1 + Y1Z1, "
              "Z1Z2 = 0, Z2^2 = -e2*Z2 + Y1Z2", t0, 1.0)


def test_criterion_3_ordinary_ranks_and_unit_constants():
    t0 = time.perf_counter()
    for k, l, m in ((1, 1, 1), (2, 1, 2), (2, 2, 2), (3, 2, 1)):
        ctx = shelling_context(gen_klm(KlmSpec(k, l, m)))
        table = ordinary_cohomology(ctx)
        total = k * l + k * m + l * m
        expected = {0: 1, 1: k + l + m - 2, 2: total - (k + l + m - 2) - 1}
        got = {int(d): r for d, r in table["ordinary_ranks"].items()}
        assert got == {d: r for d, r in expected.items() if r}, (k, l, m)
        assert sum(got.values()) == total
        assert max(got) <= 2  # rank 0 in degrees >= 3
        for prods in table["ordinary_products"].values():
            assert all(c == 1 for c in prods.values())
    report(3, "ordinary ranks (1, k+l+m-2, kl+km+lm-(k+l+m-2)-1, 0, ...) "
              "and unit structure constants on four arrangements", t0, 10.0)


def test_criterion_4_graded_isomorphism_verification():
    t0 = time.perf_counter()
    for name, make in PASSING_FIXTURES:
        g = make()
        t_fixture = time.perf_counter()
        for forgetful in (True, False):
            rep = verify_iso(g, max_degree=4, forgetful=forgetful)
            assert rep["ok"], (name, forgetful, rep)
        assert time.perf_counter() - t_fixture < 60.0, name
    report(4, "solver and presentation ranks agree at every degree <= 4, "
              "full and forgetful, on all four positive fixtures", t0, 240.0)


def test_criterion_5_negative_fixtures():
    t0 = time.perf_counter()
    rep = check_assumptions(Arrangement(fixture("fig2_right")))
    assert not rep.ok1 and rep.ok2
    rep = check_assumptions(Arrangement(fixture("fig11_sphere")))
    assert rep.ok1 and not rep.ok2
    iso = verify_iso(fixture("fig11_sphere"), max_degree=4, forgetful=True)
    assert not iso["ok"]
    # witnessing degree 2, found by the brute-force solver: rank 4 > 3
    deficits = {
        k: row["solver_rank"] - row["image_rank"]
        for k, row in iso["degrees"].items()
        if row["solver_rank"] > row["image_rank"]
    }
    assert min(deficits) == 2
    assert deficits[2] == 1
    report(5, "assumption (1) fails on fig2_right, assumption (2) fails on "
              "fig11_sphere, strict rank deficit at degree 2", t0, 60.0)


def test_criterion_6_property_suites():
    t0 = time.perf_counter()
    for name, make in PASSING_FIXTURES:
        g = make()
        x = g.residual
        chi = chi_class(g)
        planes = all_hyperplanes(g)
        # Thom classes satisfy every congruence and pair sums are chi
        for h in planes:
            a, b = halfspace_pair(g, h)
            ta, tb = thom_class(g, a), thom_class(g, b)  # raises if bad
            for v in g.vertices:
                assert tuple(p + q for p, q in zip(ta[v], tb[v])) == x
            assert vector_class(ta) + vector_class(tb) == chi
        # connection maps 1-dimensional pairs to pairs (raises if not)
        pair_decomposition(g)
        # Ker(forgetful) = (chi), degreewise
        pieces = [cohomology_basis(g, k) for k in range(4)]
        assert kernel_forgetful_check(g, 3, pieces), name
        # localization matrix is lower triangular with nonzero diagonal
        ctx = shelling_context(g)
        basis = module_basis(ctx)
        for i, sigma in enumerate(ctx.shelling.order):
            p = ctx.complex.facet_vertex[sigma]
            for j, b in enumerate(basis):
                val = localize_at(ctx, monomial_poly(ctx, b), p)
                assert val.is_zero() if j > i else True
                if j == i:
                    assert not val.is_zero()
        # sum_i <e_j, lambda(L_i)> tau_{L_i} localizes to e_j everywhere
        n = g.rank
        for j in range(n):
            for v in g.vertices:
                total = [0] * n
                for lname in ctx.names:
                    c = ctx.lambdas[lname][j]
                    total = [t + c * a for t, a in zip(total, ctx.taus[lname][v])]
                assert total == [int(i == j) for i in range(n)]
    report(6, "Thom congruences, chi sums, pair preservation, forgetful "
              "kernel, triangular localization and the algebra unit "
              "identity on all passing fixtures", t0, 120.0)


def test_criterion_7_known_shellings():
    t0 = time.perf_counter()
    # pentagon: walk the 5-cycle; minimal faces follow the cyclic pattern
    # (empty set, three single vertices, then the final full edge)
    g = fixture("fig7_pentagon")
    c = build_complex(Arrangement(g))
    cyclic = [
        frozenset({"L2", "L1"}),
        frozenset({"L1", "L3"}),
        frozenset({"L3", "L4"}),
        frozenset({"L4", "L5"}),
        frozenset({"L5", "L2"}),
    ]
    assert shelling_by_subsets(cyclic) == [
        frozenset(),
        frozenset({"L3"}),
        frozenset({"L4"}),
        frozenset({"L5"}),
        frozenset({"L5", "L2"}),
    ]
    # the routine's own shelling of the same complex passes the same test
    shell = find_shelling(c)
    assert shelling_by_subsets(shell.order) == shell.minimal_faces
    # arrangement family: the canonical order with its expected mu-list
    ctx = shelling_context(gen_klm(KlmSpec(2, 1, 2)))
    assert [sorted(f) for f in ctx.shelling.minimal_faces] == [
        [], ["Z1"], ["Z2"], ["X2"],
        ["X2", "Z1"], ["X2", "Z2"], ["Y1", "Z1"], ["Y1", "Z2"],
    ]
    report(7, "the pentagon cycle order and the arrangement canonical "
              "order pass the unique-minimal-face test with the expected "
              "mu sequences", t0, 1.0)
