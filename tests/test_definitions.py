"""Every definition of the package is used outside its own definition.

Module-level functions and classes must be named in another line; class
members must be read; the defaulted parameters of functions and methods
must be set by some call.
"""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "ncjet"
MODULES = sorted(p.name for p in PACKAGE.glob("*.py"))
# the files whose words count as uses: the package, its tests and its benchmark
CORPUS = sorted(p for d in (PACKAGE, ROOT / "tests", ROOT / "perfbench") for p in d.glob("*.py"))


def unnamed_definitions(source, others):
    """Module-level functions and classes of `source` that no word outside their own lines names.

    `others` lists the texts of the other files in which a use counts.
    """
    lines = source.splitlines()
    dead = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            word = re.compile(r"\b%s\b" % re.escape(node.name))
            outside = lines[:node.lineno - 1] + lines[node.end_lineno:]
            if not any(word.search(text) for text in outside + others):
                dead.append(node.name)
    return dead


def test_unnamed_definitions_are_found():
    source = "def used():\n    return 1\n\n\nclass Dead:\n    x = used()\n\n\ndef dead():\n    dead()\n"
    assert unnamed_definitions(source, []) == ["Dead", "dead"]
    assert unnamed_definitions(source, ["from m import dead"]) == ["Dead"]


@pytest.mark.parametrize("module", MODULES)
def test_module_defines_nothing_unnamed(module):
    path = PACKAGE / module
    others = [p.read_text() for p in CORPUS if p != path]
    assert unnamed_definitions(path.read_text(), others) == []


def _is_dunder(name):
    return name.startswith("__") and name.endswith("__")


def class_members(source):
    """(class, member) for each method, property and self.<field> of a module-level class."""
    members = []
    for cls in ast.parse(source).body:
        if not isinstance(cls, ast.ClassDef):
            continue
        names = [f.name for f in cls.body
                 if isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef))]
        names += [t.attr for t in ast.walk(cls) if isinstance(t, ast.Attribute)
                  and isinstance(t.ctx, ast.Store)
                  and isinstance(t.value, ast.Name) and t.value.id == "self"]
        members += [(cls.name, n) for n in dict.fromkeys(names) if not _is_dunder(n)]
    return members


def member_reads(sources):
    """Attribute names loaded anywhere in `sources`, and their "Class.name" string constants."""
    reads = set()
    for source in sources:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                reads.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                if "." in node.value:
                    reads.add(node.value)
    return reads


def unread_members(source, reads):
    return ["%s.%s" % m for m in class_members(source)
            if m[1] not in reads and "%s.%s" % m not in reads]


def test_unread_members_are_found():
    source = ("class C:\n    def __init__(self):\n        self.kept = 1\n        self.lost = 2\n\n"
              "    def used(self):\n        return self.kept\n\n"
              "    def wrapped(self):\n        pass\n\n    def dead(self):\n        pass\n")
    reads = member_reads([source, "x.used()\nENTRIES = ('C.wrapped',)\n"])
    assert unread_members(source, reads) == ["C.dead", "C.lost"]


def test_every_class_member_is_read():
    reads = member_reads(p.read_text() for p in CORPUS)
    unread = [m for module in MODULES
              for m in unread_members((PACKAGE / module).read_text(), reads)]
    assert unread == []


_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def defaulted_parameters(source):
    """{definition: (call name, attribute calls only, positional names, defaulted names)}.

    The definitions are the module-level functions, which a call names bare
    or as an attribute; the methods of module-level classes, which a call
    names as an attribute; and each __init__, which a call of its class's
    name reaches.  A method's self or cls is never a positional a call sets.
    """
    tree = ast.parse(source)
    defs = [(fn.name, fn.name, False, fn) for fn in tree.body if isinstance(fn, _FUNCTIONS)]
    for cls in tree.body:
        if isinstance(cls, ast.ClassDef):
            defs += [("%s.%s" % (cls.name, fn.name), cls.name if fn.name == "__init__" else fn.name,
                      fn.name != "__init__", fn)
                     for fn in cls.body if isinstance(fn, _FUNCTIONS)]
    out = {}
    for label, name, attribute_only, fn in defs:
        args = fn.args
        positional = [a.arg for a in args.posonlyargs + args.args]
        defaulted = positional[len(positional) - len(args.defaults):] + [
            a.arg for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
        if "." in label and positional[:1] in (["self"], ["cls"]):
            positional = positional[1:]
        if defaulted:
            out[label] = (name, attribute_only, positional, defaulted)
    return out


def set_parameters(definitions, sources):
    """(definition, parameter) pairs that some call in `sources` sets.

    A call sets a parameter by keyword or by position, and *args may set any
    positional one, **kwargs any."""
    by_name = {}
    for label, (name, attribute_only, _, _) in definitions.items():
        by_name.setdefault(name, []).append((label, attribute_only))
    found = set()
    for source in sources:
        for call in ast.walk(ast.parse(source)):
            if not isinstance(call, ast.Call):
                continue
            attribute = isinstance(call.func, ast.Attribute)
            name = call.func.attr if attribute else getattr(call.func, "id", None)
            for label, attribute_only in by_name.get(name, ()):
                if attribute_only and not attribute:
                    continue
                _, _, positional, defaulted = definitions[label]
                starred = any(isinstance(a, ast.Starred) for a in call.args)
                given = set(positional if starred else positional[:len(call.args)])
                given |= {k.arg for k in call.keywords}
                if None in given:  # **kwargs
                    given |= set(defaulted)
                found |= {(label, p) for p in defaulted if p in given}
    return found


def unset_parameters(source, sources):
    definitions = defaulted_parameters(source)
    found = set_parameters(definitions, sources)
    return ["%s(%s)" % (label, p) for label, (_, _, _, defaulted) in definitions.items()
            for p in defaulted if (label, p) not in found]


def test_unset_parameters_are_found():
    source = "def f(a, b=1, c=2, *, d=3):\n    pass\n\n\ndef g(x=0):\n    pass\n"
    assert unset_parameters(source, [source, "f(1, d=4)\nm.g(*xs)\n"]) == ["f(b)", "f(c)"]
    assert unset_parameters(source, [source, "f(1, 2, d=4)\nf(a, **kw)\ng(*xs)\n"]) == []


def test_unset_method_parameters_are_found():
    source = ("class C:\n    def __init__(self, a, b=1):\n        pass\n\n"
              "    def m(self, x, y=0, *, z=None):\n        pass\n\n"
              "    @classmethod\n    def make(cls, k=2):\n        pass\n")
    # a bare m(...) is not a method call, and C(1) reaches __init__ without b
    assert unset_parameters(source, [source, "C(1)\nc.m(1, 2)\nm(1, z=3)\nmake(4)\n"]) == [
        "C.__init__(b)", "C.m(z)", "C.make(k)"]
    assert unset_parameters(source, [source, "mod.C(1, b=2)\nc.m(1, z=3)\nC.make(3)\n"]) == [
        "C.m(y)"]


def test_every_defaulted_parameter_is_set():
    sources = [p.read_text() for p in CORPUS]
    unset = [p for module in MODULES for p in unset_parameters((PACKAGE / module).read_text(),
                                                                sources)]
    assert unset == []
