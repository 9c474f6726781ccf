"""Source hygiene: every imported name is used by the file importing it,
every ``__all__`` entry of the library names a module-level definition,
every private module-level name of the library is read by it, every
optional parameter of a private library function is passed by some
library call, no library module but ``forward`` reads a lattice's child
tables, no library function takes a run beside a lattice or a model (a
run carries its own), no library module but ``cli`` imports ``time``
(the library reports counts, not wall times), in ``cli`` one
function turns a failed run into exit 1 and one a configuration error
into exit 2, and ``build_lattice`` alone steps the forward chain.

No linter ships with the toolchain, so this scans the syntax trees of
the library modules (the package ``__init__`` re-exports on purpose)
and of the test files.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted((ROOT / "src" / "fptree").glob("*.py"))
FILES = [p for p in MODULES if p.name != "__init__.py"] + sorted(
    (ROOT / "tests").glob("*.py"))


def unused_imports(source: str):
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


def test_scan_flags_an_unused_import():
    source = "import os\nfrom math import pi, tau\nprint(os.sep, tau)\n"
    assert unused_imports(source) == [(2, "pi")]


@pytest.mark.parametrize("path", FILES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def top_level_names(tree):
    """(name, node) of each top-level def, class and assigned name."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [
                node.target]
            for target in targets:
                if isinstance(target, ast.Name):
                    yield target.id, node


def stale_exports(source: str):
    """The ``__all__`` entries bound by no top-level def, class or
    assignment of the module."""
    defined, exported = set(), []
    for name, node in top_level_names(ast.parse(source)):
        defined.add(name)
        if name == "__all__":
            exported = ast.literal_eval(node.value)
    return sorted(name for name in exported if name not in defined)


def test_scan_flags_a_stale_export():
    source = "__all__ = ['pi', 'tau', 'Law']\npi = 3.14\nclass Law: pass\n"
    assert stale_exports(source) == ["tau"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_export_is_defined(path):
    assert stale_exports(path.read_text(encoding="utf-8")) == []


def unread_private_names(sources):
    """The private top-level names (a leading underscore, not a dunder)
    of these sources that none of them reads as a name, an attribute or
    an import."""
    private, read = set(), set()
    for source in sources:
        tree = ast.parse(source)
        private.update(
            name for name, _ in top_level_names(tree)
            if name.startswith("_")
            and not (name.startswith("__") and name.endswith("__")))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.alias):
                read.add(node.name)
    return sorted(private - read)


def test_scan_flags_an_unread_private_name():
    sources = ["_used = 1\n_left = 2\ndef _helper(): pass\n",
               "from a import _helper\nprint(_used)\n"]
    assert unread_private_names(sources) == ["_left"]


def test_every_private_name_is_read():
    assert unread_private_names(
        [p.read_text(encoding="utf-8") for p in MODULES]) == []


def unpassed_options(sources):
    """The optional parameters, as ``function(name)``, of the private
    functions (a leading underscore, not a dunder) of these sources that
    no call in them passes, by position or by keyword.  A call matches
    a function by its name, as a name or an attribute; ``*args`` and
    ``**kwargs`` in a call pass every parameter."""
    defs, calls = [], {}
    for source in sources:
        for node in ast.walk(ast.parse(source)):
            if (isinstance(node, ast.FunctionDef)
                    and node.name.startswith("_")
                    and not (node.name.startswith("__")
                             and node.name.endswith("__"))):
                defs.append(node)
            elif isinstance(node, ast.Call):
                name = getattr(node.func, "id", None) or getattr(
                    node.func, "attr", None)
                calls.setdefault(name, []).append(node)
    found = []
    for node in defs:
        a = node.args
        positional = a.posonlyargs + a.args
        if positional and positional[0].arg in ("self", "cls"):
            positional = positional[1:]
        options = [(i, p.arg) for i, p in enumerate(positional)][
            len(positional) - len(a.defaults):]
        options += [(None, p.arg) for p, d in zip(a.kwonlyargs, a.kw_defaults)
                    if d is not None]
        for i, arg in options:
            if not any(
                    any(isinstance(v, ast.Starred) for v in call.args)
                    or i is not None and len(call.args) > i
                    or any(k.arg in (None, arg) for k in call.keywords)
                    for call in calls.get(node.name, [])):
                found.append("%s(%s)" % (node.name, arg))
    return sorted(found)


def test_scan_flags_an_unpassed_option():
    sources = ["def _f(a, b=1, c=2, *, d=3): pass\n"
               "def _g(a, knob=None): pass\n"
               "class C:\n    def _m(self, x=0): pass\n"
               "def _h(a=0): pass\n",
               "_f(0, 1)\n_f(0, d=4)\nmod._g(1)\nC()._m(1)\n_h(*args)\n"]
    assert unpassed_options(sources) == ["_f(c)", "_g(knob)"]


def test_every_private_option_is_passed():
    # an optional parameter that only tests pass is a second code path
    # the library never takes
    assert unpassed_options(
        [p.read_text(encoding="utf-8") for p in MODULES]) == []


def attribute_reads(source: str, attr: str):
    """Line numbers where the source reads the attribute `attr`."""
    return sorted(node.lineno for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Attribute) and node.attr == attr)


def test_scan_flags_an_attribute_read():
    source = "n = lat.children[0]\nchildren = 1\nlat.supports\n"
    assert attribute_reads(source, "children") == [1]


@pytest.mark.parametrize(
    "path", [p for p in MODULES if p.name != "forward.py"],
    ids=lambda p: p.name)
def test_only_forward_reads_child_tables(path):
    # forward.Lattice owns the lattice layout: the other modules go
    # through gather, expect and push
    assert attribute_reads(path.read_text(encoding="utf-8"),
                           "children") == []


def run_beside_its_parts(source: str):
    """Names of the functions with a ``run`` parameter beside a
    ``lattice``, ``spec`` or ``model`` one."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.FunctionDef):
            a = node.args
            params = {p.arg for p in a.posonlyargs + a.args + a.kwonlyargs}
            if "run" in params and params & {"lattice", "spec", "model"}:
                found.append(node.name)
    return sorted(found)


def test_scan_flags_a_run_beside_a_lattice():
    source = ("def f(run, spec): pass\n"
              "def g(cfg, run, lattice): pass\n"
              "class C:\n    def h(self, lattice, *, run=None): pass\n"
              "def k(run, trunc, model=None): pass\n"
              "def ok(run, trunc, kind, run2=None): pass\n")
    assert run_beside_its_parts(source) == ["f", "g", "h", "k"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_function_takes_a_run_and_its_lattice(path):
    # run.lattice and run.model are the lattice a run was made on and
    # the model it solved; a second argument could name another
    assert run_beside_its_parts(path.read_text(encoding="utf-8")) == []


def imports_of(source: str, module: str):
    """Line numbers where the source imports `module` or a name from it."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names = [node.module]
        else:
            continue
        if any(n == module or n.startswith(module + ".") for n in names):
            lines.append(node.lineno)
    return lines


def test_scan_flags_an_import_of_time():
    source = ("import timeit\nimport os, time\nfrom time import sleep\n"
              "from .time import x\nimport datetime\n")
    assert imports_of(source, "time") == [2, 3]


@pytest.mark.parametrize(
    "path", [p for p in MODULES if p.name != "cli.py"],
    ids=lambda p: p.name)
def test_only_cli_imports_time(path):
    # wall time is console output of the CLI; an artifact holds none, so
    # byte-stability needs no flag
    assert imports_of(path.read_text(encoding="utf-8"), "time") == []


def readers_of(source: str, name: str):
    """The top-level defs that read `name` as a name or an attribute;
    a read outside every def counts as ``<module>``."""
    found = set()
    for node in ast.parse(source).body:
        owner = node.name if isinstance(
            node, (ast.FunctionDef, ast.ClassDef)) else "<module>"
        for sub in ast.walk(node):
            if (isinstance(sub, ast.Name) and sub.id == name
                    and isinstance(sub.ctx, ast.Load)
                    or isinstance(sub, ast.Attribute) and sub.attr == name):
                found.add(owner)
    return sorted(found)


def test_scan_flags_a_read_outside_its_owner():
    source = ("ERRS = (KeyError,)\n"
              "def owner():\n    try: pass\n    except ERRS: pass\n"
              "def other(e):\n    raise mod.ERRS(e)\n"
              "def writer():\n    ERRS = ()\n"
              "print(ERRS)\n")
    assert readers_of(source, "ERRS") == ["<module>", "other", "owner"]


@pytest.mark.parametrize("name, owner", [
    ("ClickException", "_run_failure"),
    ("_CONFIG_ERRORS", "_settings"),
])
def test_one_function_decides_each_error_exit(name, owner):
    # a failed run becomes exit 1 in _run_failure alone, and a library
    # configuration error becomes exit 2 in _settings alone, before any
    # file is written or any run starts
    cli = ROOT / "src" / "fptree" / "cli.py"
    assert readers_of(cli.read_text(encoding="utf-8"), name) == [owner]


def names_imported(source: str, module: str):
    """The names the source imports from the library module `module`,
    relatively or as ``fptree.<module>``; importing the module itself
    counts as ``*``."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            if node.module in (module, "fptree." + module):
                names.update(alias.name for alias in node.names)
            elif node.module in (None, "fptree") and any(
                    alias.name == module for alias in node.names):
                names.add("*")
        elif isinstance(node, ast.Import) and any(
                alias.name == "fptree." + module for alias in node.names):
            names.add("*")
    return sorted(names)


def test_scan_flags_a_name_imported_from_a_module():
    source = ("from .forward import Lattice, _steps\n"
              "from fptree.forward import _tree\n"
              "from . import forward\nfrom .model import ModelSpec\n")
    assert names_imported(source, "forward") == [
        "*", "Lattice", "_steps", "_tree"]
    assert names_imported("import fptree.forward\n", "forward") == ["*"]


@pytest.mark.parametrize("name", ["_steps", "_tree"])
def test_build_lattice_alone_steps_the_forward_chain(name):
    # one stepper puts the chain onto the lattice: a second would need
    # a test to keep it in step, and its errors could read differently
    readers = {p.name: readers_of(p.read_text(encoding="utf-8"), name)
               for p in MODULES}
    assert readers.pop("forward.py") == ["build_lattice"]
    assert not any(readers.values()), readers


def test_cli_imports_only_the_lattice_from_forward():
    cli = ROOT / "src" / "fptree" / "cli.py"
    assert names_imported(cli.read_text(encoding="utf-8"), "forward") == [
        "Lattice", "build_lattice", "dump_lattice"]
