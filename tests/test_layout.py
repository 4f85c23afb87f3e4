"""Layout of the package: every public name is used by the package itself,
every field it sets is read by the package, and every field of an error
is read by a handler that caught it.

Code that only the tests call belongs in the tests (``tests/oracles.py``
keeps the reference implementations), unless it checks a statement of
the paper; those few names are listed with their reason.
"""

import ast
from collections import Counter
from pathlib import Path

import gkmgraphs

SRC = Path(gkmgraphs.__file__).resolve().parent

# name -> why it may stay without a caller in the package
ALLOWED = {
    "IntPolynomial.substitute": "the benchmark's tracer times it by name",
}


def _modules():
    return {p.stem: ast.parse(p.read_text()) for p in sorted(SRC.glob("*.py"))}


def _public_definitions(trees):
    """(module, qualified name, node) of every public module-level function
    and class, and of every public method (dunders are not public)."""
    for module, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            if node.name.startswith("_"):
                continue
            yield module, node.name, node
            if isinstance(node, ast.ClassDef):
                for sub in node.body:
                    if isinstance(sub, ast.FunctionDef):
                        if not sub.name.startswith("_"):
                            yield module, f"{node.name}.{sub.name}", sub


def _imports(tree):
    """``{(module, name): local name}`` of the names ``tree`` imports from
    the package's modules."""
    out = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module:
            for alias in node.names:
                out[node.module, alias.name] = alias.asname or alias.name
    return out


def _reads(tree):
    """How often ``tree`` reads each attribute and each name."""
    attrs, names = Counter(), Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            attrs[node.attr] += 1
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names[node.id] += 1
    return attrs, names


def _unused(trees):
    """The public definitions that the package reads nowhere outside their
    own body.  A method is read as an attribute; a module-level name as a
    name in its module or where another module imports it, or as an
    attribute."""
    reads = {module: _reads(tree) for module, tree in trees.items()}
    imports = {module: _imports(tree) for module, tree in trees.items()}
    attrs = sum((a for a, _ in reads.values()), Counter())
    out = []
    for module, qualname, node in _public_definitions(trees):
        name = qualname.rsplit(".", 1)[-1]
        own_attrs, own_names = _reads(node)
        used = attrs[name] > own_attrs[name]
        if not used and "." not in qualname:
            used = reads[module][1][name] > own_names[name] or any(
                reads[other][1][imports[other].get((module, name))]
                for other in trees
                if other != module
            )
        if not used:
            out.append(qualname)
    return out


def test_every_public_name_has_a_caller_in_the_package():
    assert [q for q in _unused(_modules()) if q not in ALLOWED] == []


def test_the_allowlist_is_still_needed():
    """Each allowed name is still defined and still has no caller."""
    unused = _unused(_modules())
    assert [q for q in ALLOWED if q not in unused] == []


# Class.field -> why it may stay without a reader in the package
ALLOWED_FIELDS = {
    "ParseError.field": "names the bad field of outside input for library callers",
}


def _fields(trees):
    """``Class.field`` of every ``self.<field> = ...`` in the package."""
    out = set()
    for tree in trees.values():
        for cls in ast.walk(tree):
            if not isinstance(cls, ast.ClassDef):
                continue
            for node in ast.walk(cls):
                if (
                    isinstance(node, ast.Attribute)
                    and isinstance(node.ctx, ast.Store)
                    and isinstance(node.value, ast.Name)
                    and node.value.id == "self"
                ):
                    out.add(f"{cls.name}.{node.attr}")
    return sorted(out)


def _unread_fields(trees):
    """The fields that the package never reads as an attribute, of any
    object: a field is read under its name wherever it is read."""
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
    return [f for f in _fields(trees) if f.rsplit(".", 1)[1] not in read]


def _lineage(name, bases):
    """``name`` and the names of all its ancestors among ``bases`` (class
    name -> the names of its bases)."""
    out, todo = set(), [name]
    while todo:
        c = todo.pop()
        if c not in out:
            out.add(c)
            todo += bases.get(c, [])
    return out


def _unread_error_fields(trees):
    """The fields of the ``GkmError`` subclasses that no ``except`` handler
    reads from the exception it caught: ``except C as exc`` reads
    ``exc.<field>``, where C is the field's class or a base or subclass of
    it.  A field of the same name on another record does not count."""
    bases = {
        node.name: [b.id for b in node.bases if isinstance(b, ast.Name)]
        for tree in trees.values()
        for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef)
    }
    read = set()  # (caught class, field)
    for tree in trees.values():
        for handler in ast.walk(tree):
            if not isinstance(handler, ast.ExceptHandler) or not handler.name:
                continue
            caught = handler.type
            caught = caught.elts if isinstance(caught, ast.Tuple) else [caught]
            for stmt in handler.body:
                for node in ast.walk(stmt):
                    if (
                        isinstance(node, ast.Attribute)
                        and isinstance(node.ctx, ast.Load)
                        and isinstance(node.value, ast.Name)
                        and node.value.id == handler.name
                    ):
                        read |= {(c.id, node.attr) for c in caught
                                 if isinstance(c, ast.Name)}
    out = []
    for f in _fields(trees):
        cls, field = f.rsplit(".", 1)
        mine = _lineage(cls, bases)
        if "GkmError" in mine and not any(
            name == field and (c in mine or cls in _lineage(c, bases))
            for c, name in read
        ):
            out.append(f)
    return out


def test_every_error_field_is_read_by_a_handler():
    unread = _unread_error_fields(_modules())
    assert [f for f in unread if f not in ALLOWED_FIELDS] == []


def test_every_field_is_read_in_the_package():
    assert [f for f in _unread_fields(_modules()) if f not in ALLOWED_FIELDS] == []


def test_the_field_allowlist_is_still_needed():
    unread = _unread_fields(_modules())
    assert [f for f in ALLOWED_FIELDS if f not in unread] == []
