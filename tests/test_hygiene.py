"""Source hygiene: every name a module imports is used in that module, every
module-level private name is referenced somewhere in the package, every
module-level public name is referenced in the package or exported by
``__init__`` (a test or the benchmark naming it does not count), the
package exports the names ``__init__`` imports and no submodule, no module
imports a private name of another, every error type is raised or caught in
the package, every function reads each of its parameters, frozen objects
change only while they are built, and the benchmark's tracer still finds
the names it wraps."""

import ast
import json
import subprocess
import sys
from pathlib import Path
from types import ModuleType

import pytest

import rncurves

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "rncurves"
# __init__.py imports names only to re-export them
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def imported_names(tree):
    """(bound name, line) for each import, skipping ``from __future__``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def used_names(tree):
    """Names loaded anywhere, including inside string annotations."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        annotations = []
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
        elif isinstance(node, ast.arg):
            annotations.append(node.annotation)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
        for ann in annotations:
            for sub in ast.walk(ann) if ann is not None else ():
                if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
                    used |= used_names(ast.parse(sub.value, mode="eval"))
    return used


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = used_names(tree)
    unused = [f"{name} (line {line})" for name, line in imported_names(tree) if name not in used]
    assert not unused, f"{path.name} imports unused names: {', '.join(unused)}"


def test_scan_sees_an_unused_import():
    tree = ast.parse("import os\nfrom math import comb, gcd\nx: 'comb' = gcd(1, 2)\n")
    used = used_names(tree)
    assert [name for name, _ in imported_names(tree) if name not in used] == ["os"]


def definitions(tree):
    """(name, node) for each module-level function, class or constant, dunders excluded."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names = [node.target.id]
        else:
            continue
        for name in names:
            if not name.startswith("__"):
                yield name, node


def referenced_names(node):
    """Names a statement mentions: loads, attributes and imported names."""
    names = used_names(node)
    for sub in ast.walk(node):
        if isinstance(sub, ast.Attribute):
            names.add(sub.attr)
        elif isinstance(sub, ast.alias):
            names.add(sub.name)
    return names


def orphans(trees, public=False):
    """``module.name`` of each private (with *public*, each public) definition
    that no other statement references.

    *trees* maps module names to parsed modules; a definition's own body
    (a recursive call, say) does not count as a reference to it, and
    nothing outside *trees* counts at all.
    """
    statements = [node for tree in trees.values() for node in tree.body]
    refs = {id(node): referenced_names(node) for node in statements}
    found = []
    for module, tree in trees.items():
        for name, node in definitions(tree):
            if name.startswith("_") == public:
                continue
            if not any(name in refs[id(other)] for other in statements if other is not node):
                found.append(f"{module}.{name}")
    return found


def package_trees():
    """Every module of the package, ``__init__`` included, parsed by stem."""
    return {p.stem: ast.parse(p.read_text(), filename=str(p)) for p in sorted(SRC.glob("*.py"))}


def test_no_orphan_private_definitions():
    trees = package_trees()
    found = orphans(trees)
    assert not found, f"private names that nothing in src/ references: {', '.join(found)}"


def test_scan_sees_an_orphan_helper():
    trees = {
        "a": ast.parse("_USED = 2\n_SPARE = 3\ndef _loop(k):\n    return _loop(k - 1)\n"),
        "b": ast.parse("from .a import _USED\nclass _Box: pass\nx = _USED\n"),
    }
    assert orphans(trees) == ["a._SPARE", "a._loop", "b._Box"]


# A public definition of src/ needs a caller in src/ or an export from
# __init__; a fixture or oracle that only tests call lives in tests/helpers.py.
def test_no_orphan_public_definitions():
    found = orphans(package_trees(), public=True)
    assert not found, f"public names that nothing in src/ references or exports: {', '.join(found)}"


def test_scan_sees_an_orphan_public_helper():
    trees = {
        "a": ast.parse("USED = 2\nSPARE = 3\n_hidden = 4\ndef loop(k):\n    return loop(k - 1)\n"),
        "b": ast.parse("from .a import USED\nclass Box: pass\nx = USED\n"),
    }
    assert orphans(trees, public=True) == ["a.SPARE", "a.loop", "b.Box", "b.x"]
    # planted in the package: tests/helpers.py defines passes_through and
    # several tests call it, but no test counts as a caller
    trees = package_trees()
    trees["planted"] = ast.parse("def passes_through(curve, point):\n    return curve, point\n")
    assert orphans(trees, public=True) == ["planted.passes_through"]


def test_package_exports_its_imported_names_and_no_module():
    modules = [name for name in rncurves.__all__ if isinstance(getattr(rncurves, name), ModuleType)]
    assert not modules, f"rncurves.__all__ lists submodules: {', '.join(modules)}"
    imported = {name for name, _ in imported_names(package_trees()["__init__"]) if not name.startswith("_")}
    assert sorted(rncurves.__all__) == sorted(imported)


def orphan_errors(errors, trees):
    """Each class of *errors* that no module of *trees* raises, constructs or
    names in an ``except`` clause (a bare or dotted name both count)."""
    used = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Raise):
                part = node.exc
            elif isinstance(node, ast.Call):
                part = node.func
            elif isinstance(node, ast.ExceptHandler):
                part = node.type
            else:
                continue
            for sub in ast.walk(part) if part is not None else ():
                if isinstance(sub, ast.Name):
                    used.add(sub.id)
                elif isinstance(sub, ast.Attribute):
                    used.add(sub.attr)
    return [node.name for node in errors.body if isinstance(node, ast.ClassDef) and node.name not in used]


def test_every_error_type_is_raised_or_caught():
    trees = package_trees()
    errors = trees.pop("errors")
    del trees["__init__"]
    found = orphan_errors(errors, trees.values())
    assert not found, f"error types that nothing in src/ raises or catches: {', '.join(found)}"


def test_scan_sees_an_orphan_error_type():
    errors = ast.parse(
        "class Base(Exception): pass\nclass Raised(Base): pass\nclass Built(Base): pass\n"
        "class Caught(Base): pass\nclass Dotted(Base): pass\nclass Imported(Base): pass\n"
    )
    trees = [
        ast.parse("from .errors import Imported, Raised\ndef f():\n    raise Raised('x')\n"),
        ast.parse("def g(h):\n    e = Built()\n    try:\n        h()\n    except (Caught, errors.Dotted):\n        raise e\n"),
        ast.parse("def k():\n    raise\n"),
    ]
    assert orphan_errors(errors, trees) == ["Base", "Imported"]


def private_imports(tree):
    """Sorted (line, name) of each ``_``-prefixed name a module takes from a
    sibling module: by a relative ``from`` import, or as an attribute of a
    sibling bound by ``from . import``.  What one module keeps private, no
    other module of the package reaches into."""
    siblings, found = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level > 0:
            for alias in node.names:
                if node.module is None:
                    siblings.add(alias.asname or alias.name)
                if alias.name.startswith("_"):
                    found.add((node.lineno, alias.name))
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in siblings:
            if node.attr.startswith("_"):
                found.add((node.lineno, f"{node.value.id}.{node.attr}"))
    return sorted(found)


def test_no_module_imports_a_private_name_of_another():
    found = [
        f"{module}: {name} (line {line})"
        for module, tree in package_trees().items()
        for line, name in private_imports(tree)
    ]
    assert not found, f"private names imported across modules: {', '.join(found)}"


def test_scan_sees_a_private_import():
    tree = ast.parse(
        "from . import linalg as la, serialize\nfrom .a import _x, y\nfrom math import _private\n"
        "def f():\n    return la._core(serialize.digest, linalg._gone, _x, y)\n"
    )
    assert private_imports(tree) == [(2, "_x"), (5, "la._core")]


def function_local_imports(tree):
    """Sorted (line, function) of each relative import inside a function body.

    Every module of the package imports its siblings at the top; none of
    those imports closes a cycle, so none needs deferring into a function.
    """
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for sub in ast.walk(node):
                if isinstance(sub, ast.ImportFrom) and sub.level > 0:
                    found.add((sub.lineno, node.name))
    return sorted(found)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_function_local_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    found = [f"{name} (line {line})" for line, name in function_local_imports(tree)]
    assert not found, f"{path.name} imports inside functions: {', '.join(found)}"


def test_scan_sees_a_function_local_import():
    tree = ast.parse(
        "from .a import x\nimport json\n"
        "def f():\n    import os\n    from math import gcd\n    from .b import y\n    return y\n"
        "class C:\n    def g(self):\n        from . import c\n        return c\n"
    )
    assert function_local_imports(tree) == [(6, "f"), (10, "g")]


def numpy_references(tree):
    """Sorted (line, kind) of each place a module names numpy: an import of
    it, the string ``"numpy"`` or the name ``np`` or ``numpy``."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found |= {(node.lineno, "import") for a in node.names if a.name.split(".")[0] == "numpy"}
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "numpy":
            found.add((node.lineno, "import"))
        elif isinstance(node, ast.Constant) and node.value == "numpy":
            found.add((node.lineno, "string"))
        elif isinstance(node, ast.Name) and node.id in ("np", "numpy"):
            found.add((node.lineno, "name"))
    return sorted(found)


def module_level_numpy(tree):
    """Sorted (line, kind) of each numpy reference outside every function body."""
    inside = {
        line
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        for line, _ in numpy_references(node)
    }
    return [(line, kind) for line, kind in numpy_references(tree) if line not in inside]


# linalg imports numpy inside the functions that use it, so only the commands
# that rank a large core or certify a kernel load it.
def test_numpy_is_imported_in_linalg_functions_only():
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        refs = numpy_references(tree)
        assert "string" not in {kind for _, kind in refs}, f"{path.name} names numpy in a string"
        if path.name != "linalg.py":
            assert not refs, f"{path.name} names numpy"
            continue
        assert not module_level_numpy(tree), "linalg binds numpy at module level"


def test_scan_sees_module_level_numpy():
    tree = ast.parse("import numpy\nnp = numpy\ndef f(a):\n    import numpy as np\n    return np.array(a)\n")
    assert module_level_numpy(tree) == [(1, "import"), (2, "name")]


def test_scan_sees_numpy_references():
    tree = ast.parse(
        "import numpy as np\nfrom numpy.linalg import det\nimport numpy.random\n"
        "m = __import__('numpy')\ndef f(a):\n    return np.array(a)\n"
    )
    assert numpy_references(tree) == [(1, "import"), (2, "import"), (3, "import"), (4, "string"), (6, "name")]


def sites_naming(tree, name):
    """Sorted (line, site) of each site that names ``name``, as a name or an
    attribute, outside the imports.  A site is a function, a class or an
    annotated field, given by its dotted path (``C.f``, ``C.x``) and line,
    or ``<module>`` for a statement at module level."""
    found = set()

    def visit(node, path, line):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            path, line = path + (node.name,), node.lineno
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            path, line = path + (node.target.id,), node.lineno
        if (isinstance(node, ast.Name) and node.id == name) or (isinstance(node, ast.Attribute) and node.attr == name):
            found.add((line, ".".join(path) or "<module>"))
        for child in ast.iter_child_nodes(node):
            visit(child, path, line)

    for node in tree.body:
        visit(node, (), node.lineno)
    return sorted(found)


# Fraction stays at the API edge, BinaryForm's coefficients: the products,
# the gcd and the exact division of binforms run on integer rows, and the
# Fraction algebra of forms lives in tests/helpers.py.
def test_binforms_functions_name_no_fraction():
    tree = ast.parse((SRC / "binforms.py").read_text())
    assert [site for _, site in sites_naming(tree, "Fraction")] == ["BinaryForm.coeffs", "BinaryForm.__post_init__"]


def test_scan_sees_a_fraction_in_a_module_function():
    tree = ast.parse(
        "from fractions import Fraction\nimport fractions\nclass C:\n    def f(self):\n        return Fraction(1)\n"
        "def g(x):\n    return x\ndef h(x) -> Fraction:\n    return x\ndef k(x):\n    return fractions.Fraction(x)\n"
        "class D:\n    x: Fraction\n    y: int\nZERO = Fraction(0)\n"
    )
    assert sites_naming(tree, "Fraction") == [(4, "C.f"), (8, "h"), (10, "k"), (13, "D.x"), (15, "<module>")]


# Runs a command line in a fresh interpreter and reports whether numpy loaded.
# It looks for numpy._core, which only a completed import of numpy brings in.
NUMPY_PROBE = """
import contextlib, io, json, sys
sys.path.insert(0, "src")
from rncurves import cli
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(sys.argv[1:]) if sys.argv[1:] else 0
print(json.dumps({"code": code, "numpy": "numpy._core" in sys.modules}))
"""


@pytest.mark.parametrize(
    "argv, loads_numpy",
    [
        ([], False),
        (["classify", "-n", "5", "0,1,1,1"], False),
        (["witness", "-n", "6", "9,0,0,0,0"], False),
        (["atlas", "-n", "3"], False),  # the Bezout screen runs on every row
        (["classify", "-n", "4", "4,0,2"], True),  # certifies the rank of four cores
    ],
    ids=["import", "classify-small", "witness", "atlas-small", "classify-certificate"],
)
def test_numpy_loads_only_when_a_command_needs_it(argv, loads_numpy):
    cmd = [sys.executable, "-c", NUMPY_PROBE, *argv]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {"code": 0, "numpy": loads_numpy}


# Runs witness under the benchmark's tracer, which reads every attribute of
# the modules it wraps, and reports whether numpy loaded.
TRACED_WITNESS = """
import contextlib, io, json, sys
sys.path[:0] = ["src", "perfbench"]
import tracing
from rncurves import cli
tracing.Tracer().install()
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(["witness", "-n", "6", "9,0,0,0,0"])
print(json.dumps({"code": code, "numpy": "numpy._core" in sys.modules}))
"""


def test_traced_witness_leaves_numpy_unloaded():
    proc = subprocess.run([sys.executable, "-c", TRACED_WITNESS], cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == {"code": 0, "numpy": False}


def test_numpy_imported_first_is_reused_not_reloaded():
    # numpy warns "The NumPy module was reloaded" if the lazy binding built a
    # second module for it; -W error turns that into a failure.
    code = "import numpy, sys; sys.path.insert(0, 'src'); from rncurves import cli; sys.exit(cli.main(sys.argv[1:]))"
    cmd = [sys.executable, "-W", "error", "-c", code, "classify", "-n", "4", "4,0,2"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == (
        '{"counts":[4,0,2],"n":4,"verdict":{"certificate":{"caveats":["generic-sample"],"params":'
        '{"component_dim":0,"component_index":0,"contact_count":10,"counts":[4,0,2],"degree":2,'
        '"hilbert_full":15,"hilbert_reduced":14,"independent_conditions":1,"n":4},"rule":"bezout",'
        '"seeds":[1177014480880737946,7367213134593501780,931926415839828061]},"status":"NonFeasible"}}\n'
    )


def unused_parameters(tree):
    """Sorted (line, function, parameter) for each parameter its body never reads.

    ``self``, ``cls`` and names starting with ``_`` are exempt; a read inside
    a nested function counts.
    """
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            a = node.args
            params = a.posonlyargs + a.args + a.kwonlyargs + [p for p in (a.vararg, a.kwarg) if p]
            read = {
                sub.id
                for stmt in node.body
                for sub in ast.walk(stmt)
                if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load)
            }
            for p in params:
                if p.arg not in read and p.arg not in ("self", "cls") and not p.arg.startswith("_"):
                    found.add((node.lineno, node.name, p.arg))
    return sorted(found)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_parameters(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    found = [f"{name}({arg}) (line {line})" for line, name, arg in unused_parameters(tree)]
    assert not found, f"{path.name} has parameters no body reads: {', '.join(found)}"


def test_scan_sees_an_unused_parameter():
    tree = ast.parse(
        "def f(a, b, *args, c=1, _d=2, **kw):\n    return a + kw['x']\n"
        "class C:\n    def g(self, x):\n        def h():\n            return x\n        return h\n"
        "    @classmethod\n    def k(cls, y):\n        y = 1\n        return cls\n"
    )
    assert unused_parameters(tree) == [(1, "f", "args"), (1, "f", "b"), (1, "f", "c"), (9, "k", "y")]


def frozen_writes_outside_post_init(tree):
    """Sorted (line, function) of each ``object.__setattr__`` or
    ``object.__new__`` call whose innermost enclosing function is not a
    ``__post_init__``: a frozen object changes only while it is built."""
    found = []

    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            call = child.func if isinstance(child, ast.Call) else None
            if (
                isinstance(call, ast.Attribute)
                and call.attr in ("__setattr__", "__new__")
                and isinstance(call.value, ast.Name)
                and call.value.id == "object"
                and function != "__post_init__"
            ):
                found.append((child.lineno, function))
            visit(child, function)

    visit(tree, "<module>")
    return sorted(found)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_frozen_objects_change_only_in_post_init(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    found = [f"{name} (line {line})" for line, name in frozen_writes_outside_post_init(tree)]
    assert not found, f"{path.name} writes a frozen object outside __post_init__: {', '.join(found)}"


def test_scan_sees_a_frozen_write_outside_post_init():
    tree = ast.parse(
        "class A:\n"
        "    def __post_init__(self):\n"
        "        object.__setattr__(self, 'x', 1)\n"
        "    def cache(self):\n"
        "        object.__setattr__(self, 'y', 2)\n"
        "    def copy(self):\n"
        "        return object.__new__(A)\n"
        "class B:\n"
        "    def __post_init__(self):\n"
        "        def later():\n"
        "            object.__setattr__(self, 'z', 3)\n"
        "        setattr(self, 'w', later)\n"
        "object.__setattr__(A, 'v', 4)\n"
    )
    assert frozen_writes_outside_post_init(tree) == [(5, "cache"), (7, "copy"), (11, "later"), (13, "<module>")]


# Runs three commands under the benchmark's tracer, which wraps functions of
# the package by name and measures every rank argument with len().
TRACED_RUN = """
import contextlib, io, json, sys
sys.path[:0] = ["src", "perfbench"]
import tracing
from rncurves import cli
tracer = tracing.Tracer()
tracer.install()
argvs = (["classify", "-n", "4", "0,5,0"], ["witness", "-n", "5", "5,1,1,0"], ["defect", "--m", "1", "--s", "3"])
with contextlib.redirect_stdout(io.StringIO()):
    codes = [cli.main(argv) for argv in argvs]
print(json.dumps({"codes": codes, "metrics": {k: v for k, (v, _) in tracer.metrics().items()}}))
"""


def test_benchmark_tracer_installs_and_counts():
    proc = subprocess.run([sys.executable, "-c", TRACED_RUN], cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["codes"] == [0, 0, 0]
    for key in ("linalg.rank.calls", "linalg.rank.cells", "exactgeom.Projectivity.inverse.calls"):
        assert result["metrics"][key] > 0, key
