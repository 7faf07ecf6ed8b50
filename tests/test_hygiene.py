"""Source hygiene: every module of the package reads each name it imports,
every name a module defines at top level is read somewhere, no two classes
of one module define a method with the same body, no module reads
mpmath's global contexts or sets a precision, every _private name the
docstrings, comments and README write is one the package defines, and every
module.name they write names an attribute of that module.

The package's `__init__` is skipped by the import check: its imports are the
public names it re-exports.  `from __future__` imports bind no name.
"""

import ast
import copy
import importlib
import io
import re
import tokenize
from pathlib import Path
from types import SimpleNamespace

import pytest

import cfspectra

PACKAGE = Path(cfspectra.__file__).parent
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
# the trees whose code may read a name of the package
READERS = sorted([*PACKAGE.glob("*.py"), *(PACKAGE.parents[1] / "tests").glob("*.py"),
                  *(PACKAGE.parents[1] / "perfbench").glob("*.py")])


def _unused_imports(tree):
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.partition(".")[0]
                bound[name] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return sorted((line, name) for name, line in bound.items() if name not in read)


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_module_reads_every_import(path):
    assert _unused_imports(ast.parse(path.read_text())) == []


def test_the_check_sees_an_unused_import():
    tree = ast.parse("import math\nfrom os import path, sep\nfrom .x import y as z\n"
                     "print(sep)\n")
    assert _unused_imports(tree) == [(1, "math"), (2, "path"), (3, "z")]


def _top_level_definitions(tree):
    """(name, first line, last line) of each function, class and assigned
    name at module level; dunder names (module metadata) are left out."""
    out = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        out += [(name, node.lineno, node.end_lineno) for name in names
                if not (name.startswith("__") and name.endswith("__"))]
    return out


def _references(tree):
    """(name, line) of each read of a name: a loaded name, an attribute, an
    imported name, or a string that is a dotted name (as getattr-style hooks
    and monkeypatch targets spell them)."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out.append((node.id, node.lineno))
        elif isinstance(node, ast.Attribute):
            out.append((node.attr, node.lineno))
        elif isinstance(node, ast.ImportFrom):
            out += [(alias.name, node.lineno) for alias in node.names]
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and re.fullmatch(r"[A-Za-z_][\w.]*", node.value)):
            out += [(part, node.lineno) for part in node.value.split(".")]
    return out


def _unread_definitions(modules, readers):
    """The top-level definitions of modules (path -> tree) that no reader
    (path -> tree) reads outside the definition itself."""
    reads = {}
    for path, tree in readers.items():
        for name, line in _references(tree):
            reads.setdefault(name, []).append((path, line))
    return sorted((path.name, name) for path, tree in modules.items()
                  for name, first, last in _top_level_definitions(tree)
                  if not any(p != path or not first <= line <= last
                             for p, line in reads.get(name, ())))


def test_every_top_level_name_is_read():
    trees = {path: ast.parse(path.read_text()) for path in READERS}
    modules = {path: trees[path] for path in PACKAGE.glob("*.py")}
    assert _unread_definitions(modules, trees) == []


def test_the_check_sees_an_unread_definition():
    mod = ast.parse("__version__ = '1'\nLIMIT = 3\nCAP, _spare = 4, 5\n"
                    "def f(n):\n    return f(n - 1) + CAP\n"
                    "class K:\n    pass\n"
                    "def g():\n    return K\n")
    other = ast.parse("import m\nm.g()\nhook = ('m', 'LIMIT')\ndoc = 'f is unused'\n")
    m, t = Path("m.py"), Path("t.py")
    assert _unread_definitions({m: mod}, {m: mod, t: other}) == [("m.py", "_spare"),
                                                                 ("m.py", "f")]


class _Normalize(ast.NodeTransformer):
    """Blank what may differ between two copies of one method: attribute
    names, string constants and the defining class's own name."""

    def __init__(self, cls_name):
        self.cls_name = cls_name

    def visit_Attribute(self, node):
        self.generic_visit(node)
        node.attr = "_"
        return node

    def visit_Constant(self, node):
        if isinstance(node.value, str):
            node.value = "_"
        return node

    def visit_Name(self, node):
        if node.id == self.cls_name:
            node.id = "_"
        return node


def _copied_methods(tree):
    """(method, classes) for each method that two or more classes of one
    module define with equal bodies, compared with docstrings dropped and
    the names _Normalize blanks."""
    seen = {}
    for cls in (n for n in ast.walk(tree) if isinstance(n, ast.ClassDef)):
        for fn in cls.body:
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            fn = copy.deepcopy(fn)
            if ast.get_docstring(fn, clean=False) is not None:
                fn.body = fn.body[1:]
            key = fn.name, ast.dump(_Normalize(cls.name).visit(fn))
            seen.setdefault(key, []).append(cls.name)
    return sorted((name, tuple(classes)) for (name, _), classes in seen.items()
                  if len(classes) > 1)


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_no_method_is_copied_between_classes(path):
    assert _copied_methods(ast.parse(path.read_text())) == []


def test_the_check_sees_a_copied_method():
    tree = ast.parse(
        "class A:\n"
        "    def __len__(self):\n        return len(self.xs)\n"
        "    def grow(self, k):\n        '''A longer A.'''\n        return A(self.xs * k, 'a')\n"
        "    def step(self):\n        return self.xs + 1\n"
        "class B:\n"
        "    def __len__(self):\n        return len(self.ys)\n"
        "    def grow(self, k):\n        return B(self.ys * k, 'b')\n"
        "    def step(self):\n        return self.ys - 1\n"
        "    def other(self):\n        return len(self.ys)\n")
    assert _copied_methods(tree) == [("__len__", ("A", "B")), ("grow", ("A", "B"))]


def _global_precision_uses(tree):
    """(line, what) of each read of mpmath's interval context or its global
    mp context (mpmath.iv, mpmath.mp, or either imported from mpmath), and
    each assignment to a prec or dps attribute.  Certified bounds carry
    their precision as an argument of mpmath.libmp's directed-rounding
    functions, so none of these is needed."""
    out = []
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and node.attr in ("iv", "mp")
                and isinstance(node.value, ast.Name) and node.value.id == "mpmath"):
            out.append((node.lineno, "mpmath." + node.attr))
        elif isinstance(node, ast.ImportFrom) and node.module == "mpmath":
            out += [(node.lineno, "mpmath." + alias.name) for alias in node.names
                    if alias.name in ("iv", "mp")]
        elif isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            out += [(node.lineno, "." + t.attr + " =") for target in targets
                    for t in ast.walk(target)
                    if isinstance(t, ast.Attribute) and t.attr in ("prec", "dps")]
    return sorted(out)


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_module_sets_no_global_precision(path):
    assert _global_precision_uses(ast.parse(path.read_text())) == []


def test_the_check_sees_a_global_precision():
    tree = ast.parse("import mpmath\nfrom mpmath import iv, mpf\n"
                     "x = mpmath.iv.log(2)\nmpmath.mp.dps = 50\nctx.prec += 10\n"
                     "from mpmath.libmp import mpf_log\ny = mpf_log(z, 64, 'f')\n"
                     "bits = ctx.prec\n")
    assert _global_precision_uses(tree) == [(2, "mpmath.iv"), (3, "mpmath.iv"),
                                            (4, ".dps ="), (4, "mpmath.mp"), (5, ".prec =")]


_PRIVATE = re.compile(r"(?<!\w)_[A-Za-z]\w*")


def _doc_texts(source):
    """The docstrings and the comments of a module's source."""
    tree = ast.parse(source)
    docs = [ast.get_docstring(node, clean=False) for node in ast.walk(tree)
            if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                 ast.AsyncFunctionDef))]
    comments = [tok.string for tok in tokenize.generate_tokens(io.StringIO(source).readline)
                if tok.type == tokenize.COMMENT]
    return [d for d in docs if d] + comments


def _defined_names(source):
    """Every name a module binds: functions, classes, assigned names and
    attributes, parameters and imports."""
    out = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            out.add(node.name)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            out.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
            out.add(node.attr)
        elif isinstance(node, ast.arg):
            out.add(node.arg)
        elif isinstance(node, ast.alias):
            out.add(node.asname or node.name)
    return out


def _stale_private_names(modules, docs):
    """(file, name) for each _private name written in a docstring or comment
    of modules (name -> source) or anywhere in docs (name -> text) that no
    module defines."""
    defined = set().union(*map(_defined_names, modules.values()))
    texts = [(name, text) for name, source in modules.items() for text in _doc_texts(source)]
    texts += list(docs.items())
    return sorted({(name, word) for name, text in texts for word in _PRIVATE.findall(text)
                   if word not in defined})


def test_docs_name_only_existing_private_names():
    modules = {path.name: path.read_text() for path in PACKAGE.glob("*.py")}
    readme = PACKAGE.parents[1] / "README.md"
    assert _stale_private_names(modules, {readme.name: readme.read_text()}) == []


def test_the_check_sees_a_stale_private_name():
    source = ('"""Uses _kept and _gone."""\n'
              "import os as _os\n"
              "def _kept(_arg):\n"
              "    # _arg is read, _also_gone is not defined\n"
              "    return _os.sep + '_in_a_string'\n")
    docs = {"README.md": "`m._kept`, `m._missing`, __init__ and x_i"}
    assert _stale_private_names({"m.py": source}, docs) == [
        ("README.md", "_missing"), ("m.py", "_also_gone"), ("m.py", "_gone")]


def _code_spans(markdown):
    """The inline code spans of a markdown text; fenced blocks are left out
    (their variables, such as the quick tour's lang, are not modules)."""
    text = re.sub(r"^```.*?^```", "", markdown, flags=re.M | re.S)
    return re.findall(r"`([^`\n]+)`", text)


def _stale_qualified_names(modules, texts):
    """(file, "module.name") for each module.name written in texts (file ->
    list of texts) where module is a key of modules (name -> module) that
    has no attribute name."""
    written = re.compile(r"(?<![\w.])(%s)\.([A-Za-z_]\w*)" % "|".join(map(re.escape, modules)))
    return sorted({(name, "%s.%s" % (mod, attr)) for name, parts in texts.items()
                   for text in parts for mod, attr in written.findall(text)
                   if not hasattr(modules[mod], attr)})


def test_docs_name_only_existing_module_attributes():
    modules = {path.stem: importlib.import_module("cfspectra." + path.stem) for path in MODULES}
    texts = {path.name: _doc_texts(path.read_text()) for path in PACKAGE.glob("*.py")}
    readme = PACKAGE.parents[1] / "README.md"
    texts[readme.name] = _code_spans(readme.read_text())
    assert _stale_qualified_names(modules, texts) == []


def test_the_check_sees_a_stale_module_attribute():
    source = ('"""Reads m.kept and m.gone, not pkg.m.nested or m_x.y."""\n'
              "# m.also_gone is named here\n"
              "x = 'm.in_a_string'\n")
    readme = ("`m.kept(x)` and `m.missing`, then m.prose\n"
              "```python\nm.fenced = 1\n```\n")
    modules = {"m": SimpleNamespace(kept=1)}
    texts = {"m.py": _doc_texts(source), "README.md": _code_spans(readme)}
    assert _stale_qualified_names(modules, texts) == [
        ("README.md", "m.missing"), ("m.py", "m.also_gone"), ("m.py", "m.gone")]
