"""Command-line interface: every subcommand reads a graph (file, stdin or
built-in fixture) and writes one JSON document to stdout.

Exit status: 0 on success, 1 when a validation / assumption / verification
check fails (the JSON names the failing check), 2 on usage errors.  Any
other exception is reported as ``{"ok": false, "error": ..., "internal":
true}`` with exit status 1 (its traceback goes to stderr).  A reader of
stdout that went away gives exit status 1 and nothing on stderr.  The
console entry point, ``entry``, ends the process with ``os._exit`` once
stdout and stderr are flushed; ``main`` returns the status.

Load rule: a command loads only what it runs, since most commands take a
few milliseconds and imports would cost more.  The parser holds only the
subcommand that the first argument names (all of them for help, an
unknown word or no arguments).  Each command imports the package modules
it calls when it runs.  A standard library module that one command needs
is imported where that command needs it: ``hashlib`` when a hyperplane
label is printed.  The records are plain classes and named tuples, and
the fixture files are read by their path, so that no command loads the
standard library's record generator, annotation or package-resource
modules (see the README).
"""

from __future__ import annotations

import argparse
import json
import sys

from .errors import AssumptionViolation, GkmError, Oversized, ParseError


def _write(text):
    """Write ``text`` to stdout in full.  A stream with a binary layer gets
    the bytes in a loop: unbuffered (``python -u``), that layer may take
    only part of a write, and the text layer would drop the rest without
    an error.  An in-memory stream takes the text in one write."""
    out = sys.stdout
    buffer = getattr(out, "buffer", None)
    if buffer is None:
        out.write(text)
        return
    out.flush()
    data = memoryview(text.encode(out.encoding))
    while data:
        data = data[buffer.write(data) :]
    buffer.flush()


def _emit(obj, code=0):
    # one document, one write: ``json.dump`` would write each encoder chunk
    # on its own
    _write(json.dumps(obj, sort_keys=True, indent=1) + "\n")
    return code


def _read_graph(args, parser):
    if getattr(args, "fixture", None):
        from .fixtures import fixture

        try:
            return fixture(args.fixture)
        except GkmError as exc:
            parser.error(str(exc))
    source = getattr(args, "source", None)
    if source is None:
        source = "-"
    try:
        if source == "-":
            # a stream with bytes is decoded as a file is, strict UTF-8
            # whatever error handler the interpreter gave stdin; an
            # in-memory stream is read as it is
            stdin = sys.stdin
            if hasattr(stdin, "buffer"):
                import io

                stdin = io.TextIOWrapper(stdin.buffer, encoding="utf-8")
            text = stdin.read()
        else:
            with open(source, encoding="utf-8") as fh:
                text = fh.read()
    except UnicodeDecodeError as exc:
        raise ParseError(f"the graph is not UTF-8 text: {exc.reason}") from None
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


def _degree(text):
    """The ``--max-degree`` type: a nonnegative integer."""
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise argparse.ArgumentTypeError(
            f"must be a nonnegative integer, not {text!r}"
        )
    return value


def _poly_varnames(g):
    from .polynomials import coords_varnames

    return coords_varnames(g.rank, False)


# The largest ``express`` request, checked as its polynomial is parsed:
# the total degree of each product and power, and the term pairs of all
# its products.  A polynomial with every monomial of a facet costs most,
# as the expansion moves it into each facet.  The caps were set when, on
# L(5,5,5), (1+X1+Y1)^16 took 3.2 s, ^20 6.6 s and ^30 26 s (X1^16 0.4 s),
# a pair cost 3 us with 15 generators and 11 us with 90 (the cube of their
# sum has 377k pairs), and the largest request at both caps took 3.2 s.
# With the powers of each image grown once per substitution, (1+X1+Y1)^16
# takes 1.1 s and that request 1.5 s (CLI subprocesses, 2 vCPUs, CPython
# 3.11).  A coefficient may have at most EXPRESS_MAX_DIGITS decimal
# digits, so that the printed ones stay below the 4300 that CPython 3.11
# converts to text: the expansion adds at most 6 on L(5,5,5) at both caps,
# and 990 nines times (1+X1+Y1)^16 takes 1.3 s.
EXPRESS_MAX_DEGREE = 16
EXPRESS_MAX_TERM_PAIRS = 100_000
EXPRESS_MAX_DIGITS = 1000


class _Oversized(Oversized):
    """An ``express`` polynomial beyond the caps above."""

    def __init__(self, message):
        super().__init__(message, "express_size")


class _PolyParser:
    """Tiny parser for expressions like ``Z1^2 - 3*X2*(Y1 + Z1)``.

    Every product and power goes through ``_product``, which refuses a
    result beyond ``EXPRESS_MAX_DEGREE`` or ``EXPRESS_MAX_TERM_PAIRS``
    before it multiplies, and one with a coefficient of more than
    ``EXPRESS_MAX_DIGITS`` digits after; the parsed polynomial is checked
    for such a coefficient too."""

    def __init__(self, text, names):
        from .polynomials import IntPolynomial

        self.poly = IntPolynomial
        self.tokens = self._lex(text)
        self.pos = 0
        self.names = names
        self.pairs = 0  # the term pairs multiplied so far

    @staticmethod
    def _lex(text):
        """The tokens: words (runs of letters, digits of any script and
        underscores) and the operators, with whitespace between them."""
        import re

        out = []
        for word, op, other in re.findall(r"(\w+)|([-+*^()])|(\S)", text):
            if other:
                raise GkmError(f"unexpected character {other!r} in polynomial")
            out.append(word or op)
        return out

    @staticmethod
    def _integer(tok):
        """The value of a token of ASCII digits; None for any other token
        (``str.isdigit`` also takes other scripts' digits)."""
        if tok is None or not (tok.isascii() and tok.isdigit()):
            return None
        try:
            return int(tok)
        except ValueError:  # more digits than int() converts
            raise GkmError(
                f"integer of {len(tok)} digits in polynomial"
            ) from None

    def _peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def _next(self):
        tok = self._peek()
        self.pos += 1
        return tok

    def parse(self):
        try:
            p = self._expr()
        except RecursionError:
            raise GkmError(
                "parentheses nested too deeply in polynomial"
            ) from None
        if self._peek() is not None:
            raise GkmError(f"trailing input near {self._peek()!r}")
        return self._checked_digits(p)

    @staticmethod
    def _checked_digits(p):
        bound = 10**EXPRESS_MAX_DIGITS
        if any(abs(c) >= bound for c in p.terms.values()):
            raise _Oversized(
                f"a coefficient with more digits than the "
                f"{EXPRESS_MAX_DIGITS} accepted"
            )
        return p

    def _expr(self):
        # the terms are summed in place, so a long sum costs its length
        terms = {}
        sign = 1
        if self._peek() in ("+", "-"):
            sign = -1 if self._next() == "-" else 1
        while True:
            for m, c in self._term().terms.items():
                terms[m] = terms.get(m, 0) + sign * c
            if self._peek() not in ("+", "-"):
                return self.poly(len(self.names), terms)
            sign = -1 if self._next() == "-" else 1

    def _term(self):
        p = self._factor()
        while self._peek() == "*":
            self._next()
            p = self._product(p, self._factor())
        return p

    def _factor(self):
        p = self._atom()
        if self._peek() == "^":
            self._next()
            e = self._integer(self._next())
            if e is None:
                raise GkmError("exponent must be a nonnegative integer")
            if e > EXPRESS_MAX_DEGREE:
                raise _Oversized(
                    f"the exponent {e} is more than the degree "
                    f"{EXPRESS_MAX_DEGREE} accepted"
                )
            power = self.poly.constant(len(self.names), 1)
            for _ in range(e):
                power = self._product(power, p)
            p = power
        return p

    def _product(self, p, q):
        degree = p.degree() + q.degree()
        if degree > EXPRESS_MAX_DEGREE:
            raise _Oversized(
                f"a product of degree {degree}, more than the "
                f"{EXPRESS_MAX_DEGREE} accepted"
            )
        self.pairs += len(p.terms) * len(q.terms)
        if self.pairs > EXPRESS_MAX_TERM_PAIRS:
            raise _Oversized(
                f"the products multiply more than the "
                f"{EXPRESS_MAX_TERM_PAIRS} term pairs accepted"
            )
        return self._checked_digits(p * q)

    def _atom(self):
        tok = self._next()
        if tok == "(":
            p = self._expr()
            if self._next() != ")":
                raise GkmError("missing closing parenthesis")
            return p
        if tok is None:
            raise GkmError("unexpected end of polynomial")
        value = self._integer(tok)
        if value is not None:
            return self.poly.constant(len(self.names), value)
        if tok in self.names:
            return self.poly.variable(len(self.names), self.names.index(tok))
        raise GkmError(
            f"unknown generator {tok!r}; available: {', '.join(self.names)}"
        )


def cmd_validate(args, parser):
    from .graph import validate_axial

    report = validate_axial(_read_graph(args, parser))
    return _emit(report.to_dict(), 0 if report.ok else 1)


def cmd_hyperplanes(args, parser):
    from .hyperplanes import all_hyperplanes

    hps = all_hyperplanes(_read_graph(args, parser))
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
    from .hyperplanes import Arrangement, check_assumptions

    report = check_assumptions(Arrangement(_read_graph(args, parser)))
    out = report.to_dict()
    failed = []
    if not report.ok1:
        failed.append("assumption1")
    if not report.ok2:
        failed.append("assumption2")
    out["failed"] = failed
    return _emit(out, 0 if report.ok else 1)


def _refuse_oversized_solver(g, args):
    """Refuse the request when the solver system of ``--max-degree``, the
    largest of the request, has more columns than ``SOLVER_MAX_COLUMNS``."""
    from .cohomology import SOLVER_MAX_COLUMNS, solver_columns

    columns = solver_columns(g, args.max_degree, args.forgetful)
    if columns > SOLVER_MAX_COLUMNS:
        raise Oversized(
            f"the degree-{args.max_degree} solver system has {columns} "
            f"columns, more than the {SOLVER_MAX_COLUMNS} accepted",
            "solver_size",
        )


def cmd_cohomology(args, parser):
    from .cohomology import cohomology_basis
    from .graph import validate_axial
    from .polynomials import (
        coords_varnames,
        format_coefficients,
        graded_piece_basis,
        monomial_body,
    )

    g = _read_graph(args, parser)
    _refuse_oversized_solver(g, args)
    report = validate_axial(g)
    if not report.ok:
        return _emit(report.to_dict(), 1)
    varnames = coords_varnames(g.rank, not args.forgetful)
    degrees = {}
    for k in range(args.max_degree + 1):
        classes, rank = cohomology_basis(g, k, forgetful=args.forgetful)
        bodies = [
            monomial_body(m, varnames)
            for m in graded_piece_basis(len(varnames), k)
        ]
        width = len(bodies)
        printed = {}  # coefficient chunk -> its polynomial
        basis = []
        for vec in classes:
            values = {}
            for i, v in enumerate(g.vertices):
                chunk = vec[i * width : (i + 1) * width]
                text = printed.get(chunk)
                if text is None:
                    text = printed[chunk] = format_coefficients(chunk, bodies)
                values[v] = text
            basis.append(values)
        degrees[str(k)] = {"rank": rank, "basis": basis}
    return _emit(
        {
            "forgetful": args.forgetful,
            "variables": varnames,
            "degrees": degrees,
        }
    )


def cmd_verify_iso(args, parser):
    from .cohomology import cohomology_basis, kernel_forgetful_check, verify_iso

    g = _read_graph(args, parser)
    _refuse_oversized_solver(g, args)
    # only the kernel check of the full theory reads classes, up to degree
    # 3; ``verify_iso`` takes every other solver rank without classes
    checked = min(args.max_degree, 3)
    pieces = [
        cohomology_basis(g, k) for k in range(checked + 1) if not args.forgetful
    ]
    try:
        rep = verify_iso(g, args.max_degree, args.forgetful, pieces)
    except AssumptionViolation as exc:
        return _emit(
            {"ok": False, "error": str(exc), "assumption": exc.assumption}, 1
        )
    rep["degrees"] = {str(k): v for k, v in rep["degrees"].items()}
    rep["kernel_forgetful_ok"] = (
        kernel_forgetful_check(g, checked, pieces)
        if not args.forgetful
        else None
    )
    return _emit(rep, 0 if rep["ok"] else 1)


def cmd_basis(args, parser):
    from .shelling import basis_monomial_name, module_basis, shelling_context

    ctx = shelling_context(_read_graph(args, parser))
    return _emit(
        {
            "facet_order": [sorted(f) for f in ctx.shelling.order],
            "minimal_faces": [sorted(f) for f in ctx.shelling.minimal_faces],
            "basis": [basis_monomial_name(b) for b in module_basis(ctx)],
            "characteristic_functions": {
                name: list(ctx.lambdas[name]) for name in ctx.names
            },
            "positive_normals": ctx.orientation,
        }
    )


def cmd_structure_constants(args, parser):
    from .shelling import ordinary_cohomology, shelling_context

    g = _read_graph(args, parser)
    table = ordinary_cohomology(shelling_context(g))
    varnames = _poly_varnames(g)
    table["equivariant_products"] = {
        key: {
            name: coeff.to_string(varnames) for name, coeff in sorted(val.items())
        }
        for key, val in sorted(table["equivariant_products"].items())
    }
    return _emit(table)


def cmd_express(args, parser):
    from .shelling import (
        basis_monomial_name,
        express_in_basis,
        module_basis,
        shelling_context,
    )

    g = _read_graph(args, parser)
    ctx = shelling_context(g)
    poly = _PolyParser(args.poly, ctx.names).parse()
    basis = module_basis(ctx)
    varnames = _poly_varnames(g)
    return _emit(
        {
            "poly": args.poly,
            "generators": list(ctx.names),
            "coefficients": {
                basis_monomial_name(basis[i]): c.to_string(varnames)
                for i, c in sorted(express_in_basis(ctx, poly).items())
                if not c.is_zero()
            },
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
        try:
            with open(args.output, "w") as fh:
                fh.write(text)
        except OSError as exc:
            parser.error(f"cannot write {args.output}: {exc}")
        return 0
    _write(text)
    return 0


def _degree_options(p):
    p.add_argument("--max-degree", type=_degree, default=4)
    p.add_argument("--forgetful", action="store_true")


def _poly_option(p):
    p.add_argument(
        "--poly",
        required=True,
        help='e.g. "Z1^2"; one that starts with "-" takes the = form, '
        "--poly=-L1",
    )


def _gen_families(p):
    gsubs = p.add_subparsers(dest="family", required=True)
    pk = gsubs.add_parser("klm", help="three-direction line arrangement")
    pk.add_argument("--k", type=int, required=True)
    pk.add_argument("--l", type=int, required=True)
    pk.add_argument("--m", type=int, required=True)
    pk.add_argument("-o", "--output", help="write to a file instead of stdout")
    pk.set_defaults(func=cmd_gen_klm)


def _commands():
    """The subcommands, in help order: (name, help, the function that runs
    it, a function that adds its options).  A command with a function reads
    a graph; ``gen`` has none, and its options are its families.  Built per
    parser, so that it holds the module's current command functions."""
    return (
        ("validate", "run every axial-function check", cmd_validate, None),
        ("hyperplanes", "list all hyperplanes", cmd_hyperplanes, None),
        (
            "assumptions",
            "check the halfspace and intersection assumptions",
            cmd_assumptions,
            None,
        ),
        (
            "cohomology",
            "graded ranks and bases from the congruence solver",
            cmd_cohomology,
            _degree_options,
        ),
        (
            "verify-iso",
            "compare solver ranks with the presentation ring degreewise",
            cmd_verify_iso,
            _degree_options,
        ),
        (
            "basis",
            "shelling order, minimal faces and module basis",
            cmd_basis,
            None,
        ),
        (
            "structure-constants",
            "products of basis monomials, equivariant and ordinary",
            cmd_structure_constants,
            None,
        ),
        (
            "express",
            "expand a polynomial in the module basis",
            cmd_express,
            _poly_option,
        ),
        ("gen", "generate built-in graph families", None, _gen_families),
    )


def build_parser(argv=None):
    """The argument parser.  When ``argv[0]`` names a subcommand, only that
    subparser is built; otherwise (help, an unknown word, no arguments)
    all of them are.  Usage and error text are the same either way: a
    subparser's ``prog`` does not depend on its siblings, and the pruned
    parser lists every subcommand in its usage line."""
    parser = argparse.ArgumentParser(
        prog="gkmgraphs",
        description="Exact graph equivariant cohomology of GKM graphs "
        "with legs.",
    )
    commands = _commands()
    chosen = [c for c in commands if argv and c[0] == argv[0]]
    metavar = None
    if chosen:
        # the usage line of the full parser, where the pruned parser shows
        # it (after an unrecognized argument of the subcommand)
        metavar = "{" + ",".join(c[0] for c in commands) + "}"
        commands = chosen
    subs = parser.add_subparsers(dest="command", required=True, metavar=metavar)
    for name, help_text, func, options in commands:
        p = subs.add_parser(name, help=help_text)
        if func is not None:
            _add_source(p)
            p.set_defaults(func=func)
        if options is not None:
            options(p)
    return parser


def main(argv=None):
    if argv is None:
        argv = sys.argv[1:]
    parser = build_parser(argv)
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
    except Oversized as exc:
        return _emit({"ok": False, "check": exc.check, "error": str(exc)}, 1)
    except GkmError as exc:
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


def entry():
    """The console entry point (``python -m gkmgraphs.cli`` and the
    ``gkmgraphs`` script): ``main()``, then stdout and stderr flushed and
    ``os._exit`` with its status, which skips the interpreter's teardown
    (10 to 20 ms per command on 2 vCPUs).  ``main()`` itself returns, for
    callers in the same process."""
    import os

    try:
        code = main()
    except SystemExit as exc:  # argparse: a usage error (2) or --help (0)
        code = exc.code
    try:
        sys.stdout.flush()
    except BrokenPipeError:  # the reader left before the help text went out
        code = 1
    sys.stderr.flush()
    os._exit(code or 0)


if __name__ == "__main__":
    entry()
