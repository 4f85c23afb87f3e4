"""Command-line interface: every subcommand reads a graph (file, stdin or
built-in fixture) and writes one JSON document to stdout.

Exit status: 0 on success, 1 when a validation / assumption / verification
check fails (the JSON names the failing check), 2 on usage errors.  Any
other exception is reported as ``{"ok": false, "error": ..., "internal":
true}`` with exit status 1 (its traceback goes to stderr).  A reader of
stdout that went away gives exit status 1 and nothing on stderr.
"""

from __future__ import annotations

import argparse
import json
import sys

from .errors import AssumptionViolation, GkmError, NotShellable, ParseError

# Each command imports the package modules it calls, so a short command
# such as ``validate`` or ``gen klm`` does not pay for loading the solver
# and the shelling code.


def _emit(obj, code=0):
    json.dump(obj, sys.stdout, sort_keys=True, indent=1)
    sys.stdout.write("\n")
    return code


def _read_graph(args, parser):
    if getattr(args, "fixture", None):
        from .fixtures import fixture

        try:
            return fixture(args.fixture)
        except GkmError as exc:
            parser.error(str(exc))
    source = getattr(args, "source", None)
    if source is None or source == "-":
        text = sys.stdin.read()
    else:
        try:
            with open(source) as fh:
                text = fh.read()
        except OSError as exc:
            parser.error(f"cannot read {source}: {exc}")
    from .graph import load_graph

    return load_graph(text)


def _add_source(sub):
    sub.add_argument(
        "source",
        nargs="?",
        help="graph file ('-' or omitted reads stdin)",
    )
    sub.add_argument(
        "--fixture",
        help="use a built-in fixture instead of a file "
        "(fig2_left, fig2_right, fig7_pentagon, fig8_line5, fig11_sphere, "
        "local_model(n))",
    )


def _poly_varnames(g):
    from .polynomials import coords_varnames

    return coords_varnames(g.rank, False)


class _PolyParser:
    """Tiny parser for expressions like ``Z1^2 - 3*X2*(Y1 + Z1)``."""

    def __init__(self, text, names):
        self.tokens = self._lex(text)
        self.pos = 0
        self.names = names

    @staticmethod
    def _lex(text):
        out = []
        i = 0
        while i < len(text):
            c = text[i]
            if c.isspace():
                i += 1
            elif c in "+-*^()":
                out.append(c)
                i += 1
            elif c.isalnum() or c == "_":
                j = i
                while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                    j += 1
                out.append(text[i:j])
                i = j
            else:
                raise GkmError(f"unexpected character {c!r} in polynomial")
        return out

    def _peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def _next(self):
        tok = self._peek()
        self.pos += 1
        return tok

    def parse(self):
        p = self._expr()
        if self._peek() is not None:
            raise GkmError(f"trailing input near {self._peek()!r}")
        return p

    def _expr(self):
        sign = 1
        if self._peek() in ("+", "-"):
            sign = -1 if self._next() == "-" else 1
        p = self._term() * sign
        while self._peek() in ("+", "-"):
            op = self._next()
            q = self._term()
            p = p + q if op == "+" else p - q
        return p

    def _term(self):
        p = self._factor()
        while self._peek() == "*":
            self._next()
            p = p * self._factor()
        return p

    def _factor(self):
        p = self._atom()
        if self._peek() == "^":
            self._next()
            e = self._next()
            if e is None or not e.isdigit():
                raise GkmError("exponent must be a nonnegative integer")
            p = p ** int(e)
        return p

    def _atom(self):
        from .polynomials import IntPolynomial

        tok = self._next()
        if tok == "(":
            p = self._expr()
            if self._next() != ")":
                raise GkmError("missing closing parenthesis")
            return p
        if tok is None:
            raise GkmError("unexpected end of polynomial")
        if tok.isdigit():
            return IntPolynomial.constant(len(self.names), int(tok))
        if tok in self.names:
            return IntPolynomial.variable(len(self.names), self.names.index(tok))
        raise GkmError(
            f"unknown generator {tok!r}; available: {', '.join(self.names)}"
        )


def cmd_validate(args, parser):
    from .graph import validate_axial

    try:
        g = _read_graph(args, parser)
    except (ParseError, GkmError) as exc:
        return _emit({"ok": False, "error": str(exc)}, 1)
    report = validate_axial(g)
    return _emit(report.to_dict(), 0 if report.ok else 1)


def cmd_hyperplanes(args, parser):
    from .hyperplanes import all_hyperplanes

    g = _read_graph(args, parser)
    hps = all_hyperplanes(g)
    return _emit(
        {
            "count": len(hps),
            "hyperplanes": [
                {
                    "name": h.name,
                    "label": h.label,
                    "vertices": sorted(h.vertices),
                    "darts": sorted(h.dart_ids),
                }
                for h in hps
            ],
        }
    )


def cmd_assumptions(args, parser):
    from .hyperplanes import check_assumptions

    g = _read_graph(args, parser)
    report = check_assumptions(g)
    out = report.to_dict()
    failed = []
    if not report.ok1:
        failed.append("assumption1")
    if not report.ok2:
        failed.append("assumption2")
    out["failed"] = failed
    return _emit(out, 0 if report.ok else 1)


def cmd_cohomology(args, parser):
    from .cohomology import cohomology_basis
    from .polynomials import coords_varnames

    g = _read_graph(args, parser)
    varnames = coords_varnames(g.rank, not args.forgetful)
    degrees = {}
    for k in range(args.max_degree + 1):
        classes, rank = cohomology_basis(g, k, forgetful=args.forgetful)
        degrees[str(k)] = {
            "rank": rank,
            "basis": [cls.to_strings(varnames) for cls in classes],
        }
    return _emit(
        {
            "forgetful": args.forgetful,
            "variables": varnames,
            "degrees": degrees,
        }
    )


def cmd_verify_iso(args, parser):
    from .cohomology import graded_pieces, kernel_forgetful_check, verify_iso

    g = _read_graph(args, parser)
    pieces = graded_pieces(g, args.max_degree, args.forgetful)
    try:
        rep = verify_iso(g, args.max_degree, args.forgetful, pieces)
    except AssumptionViolation as exc:
        return _emit(
            {"ok": False, "error": str(exc), "assumption": exc.assumption}, 1
        )
    rep["degrees"] = {str(k): v for k, v in rep["degrees"].items()}
    rep["kernel_forgetful_ok"] = (
        kernel_forgetful_check(g, min(args.max_degree, 3), pieces)
        if not args.forgetful
        else None
    )
    return _emit(rep, 0 if rep["ok"] else 1)


def _context_or_fail(g, parser):
    from .shelling import shelling_context

    try:
        return shelling_context(g)
    except (AssumptionViolation, NotShellable, GkmError) as exc:
        return exc


def cmd_basis(args, parser):
    from .shelling import basis_monomial_name, module_basis

    g = _read_graph(args, parser)
    ctx = _context_or_fail(g, parser)
    if isinstance(ctx, Exception):
        return _emit({"ok": False, "error": str(ctx)}, 1)
    out = ctx.shelling.to_dict()
    out["basis"] = [basis_monomial_name(b) for b in module_basis(ctx)]
    out["characteristic_functions"] = {
        name: list(ctx.lambdas[name]) for name in ctx.names
    }
    out["positive_normals"] = dict(sorted(ctx.orientation.items()))
    return _emit(out)


def cmd_structure_constants(args, parser):
    from .shelling import ordinary_cohomology

    g = _read_graph(args, parser)
    ctx = _context_or_fail(g, parser)
    if isinstance(ctx, Exception):
        return _emit({"ok": False, "error": str(ctx)}, 1)
    table = ordinary_cohomology(ctx)
    varnames = _poly_varnames(g)
    table["equivariant_products"] = {
        key: {
            name: coeff.to_string(varnames) for name, coeff in sorted(val.items())
        }
        for key, val in sorted(table["equivariant_products"].items())
    }
    return _emit(table)


def cmd_express(args, parser):
    from .shelling import express_in_basis

    g = _read_graph(args, parser)
    ctx = _context_or_fail(g, parser)
    if isinstance(ctx, Exception):
        return _emit({"ok": False, "error": str(ctx)}, 1)
    try:
        poly = _PolyParser(args.poly, ctx.names).parse()
        expansion = express_in_basis(ctx, poly)
    except GkmError as exc:
        return _emit({"ok": False, "error": str(exc)}, 1)
    return _emit(
        {
            "poly": args.poly,
            "generators": list(ctx.names),
            "coefficients": expansion.to_dict(ctx, _poly_varnames(g)),
        }
    )


def cmd_gen_klm(args, parser):
    from .fixtures import KlmSpec, gen_klm
    from .graph import serialize

    try:
        g = gen_klm(KlmSpec(args.k, args.l, args.m))
    except GkmError as exc:
        parser.error(str(exc))
    text = serialize(g)
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text)
        return 0
    sys.stdout.write(text)
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="gkmgraphs",
        description="Exact graph equivariant cohomology of GKM graphs "
        "with legs.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("validate", help="run every axial-function check")
    _add_source(p)
    p.set_defaults(func=cmd_validate)

    p = subs.add_parser("hyperplanes", help="list all hyperplanes")
    _add_source(p)
    p.set_defaults(func=cmd_hyperplanes)

    p = subs.add_parser(
        "assumptions", help="check the halfspace and intersection assumptions"
    )
    _add_source(p)
    p.set_defaults(func=cmd_assumptions)

    p = subs.add_parser(
        "cohomology", help="graded ranks and bases from the congruence solver"
    )
    _add_source(p)
    p.add_argument("--max-degree", type=int, default=4)
    p.add_argument("--forgetful", action="store_true")
    p.set_defaults(func=cmd_cohomology)

    p = subs.add_parser(
        "verify-iso",
        help="compare solver ranks with the presentation ring degreewise",
    )
    _add_source(p)
    p.add_argument("--max-degree", type=int, default=4)
    p.add_argument("--forgetful", action="store_true")
    p.set_defaults(func=cmd_verify_iso)

    p = subs.add_parser(
        "basis", help="shelling order, minimal faces and module basis"
    )
    _add_source(p)
    p.set_defaults(func=cmd_basis)

    p = subs.add_parser(
        "structure-constants",
        help="products of basis monomials, equivariant and ordinary",
    )
    _add_source(p)
    p.set_defaults(func=cmd_structure_constants)

    p = subs.add_parser(
        "express", help="expand a polynomial in the module basis"
    )
    _add_source(p)
    p.add_argument("--poly", required=True, help='e.g. "Z1^2"')
    p.set_defaults(func=cmd_express)

    p = subs.add_parser("gen", help="generate built-in graph families")
    gsubs = p.add_subparsers(dest="family", required=True)
    pk = gsubs.add_parser("klm", help="three-direction line arrangement")
    pk.add_argument("--k", type=int, required=True)
    pk.add_argument("--l", type=int, required=True)
    pk.add_argument("--m", type=int, required=True)
    pk.add_argument("-o", "--output", help="write to a file instead of stdout")
    pk.set_defaults(func=cmd_gen_klm)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = _run(args, parser)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader of stdout went away: point the descriptor at devnull,
        # so that the flush at exit is quiet too, and fail with nothing on
        # stderr (the recipe of the ``signal`` module documentation)
        import os

        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return code


def _run(args, parser):
    try:
        return args.func(args, parser)
    except BrokenPipeError:
        raise
    except (ParseError, GkmError) as exc:
        return _emit({"ok": False, "error": str(exc)}, 1)
    except Exception as exc:
        # last resort: a fault of the program is still one JSON document on
        # stdout; the traceback goes to stderr for the bug report (imported
        # here, as only this path needs the module)
        import traceback

        traceback.print_exc(file=sys.stderr)
        return _emit(
            {
                "ok": False,
                "error": f"{type(exc).__name__}: {exc}",
                "internal": True,
            },
            1,
        )


if __name__ == "__main__":
    sys.exit(main())
