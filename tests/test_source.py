"""Rules on the package source itself."""

import ast
import pathlib
from collections import Counter

import wbpsim

SOURCE = pathlib.Path(wbpsim.__file__).parent
# The one environment variable the package reads: the sweep worker count.
ALLOWED_ENV = {"WBPSIM_WORKERS"}
# Public functions, methods and properties that no code in the package
# uses, each kept for a caller outside it.
ENTRY_POINTS = {
    "costmodel.bp_anchor_from_throughput": "AC3 calibration helper, used by tests",
    "dag.Dag.topo_order": "tests pin the scan order it names",
    "dag.Dag.validate": "tests check freeze's structural rules through it",
    "dag.DagInstance.is_ready": "perfbench's tracer wraps it by name",
    "dag.DagInstance.ready_tasks": "tests check the ready sets against it",
    "kernels.PolarCode.from_frozen_set": "tests build small codes with it",
    "kernels.bp_decode": "perfbench's tracer wraps it by name",
    "machine.EventEngine.run_until": "tests stop a run part way with it",
    "machine.SpmSection.offset_of": "perfbench's tracer wraps it by name",
    "machine.SpmSection.used": "tests check that sections drain",
}


def env_reads(tree: ast.AST) -> list[tuple[int, str]]:
    """(line, name) of each ``os.environ`` or ``os.getenv`` use; the name is
    ``?`` where it is not a string literal."""
    parents = {child: node for node in ast.walk(tree)
               for child in ast.iter_child_nodes(node)}
    reads = []
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id == "os" and node.attr in ("environ", "getenv")):
            continue
        parent = parents[node]
        key = None
        if isinstance(parent, ast.Subscript):  # os.environ[...]
            key = parent.slice
        elif isinstance(parent, ast.Call) and parent.func is node \
                and parent.args:  # os.getenv(...)
            key = parent.args[0]
        elif isinstance(parent, ast.Attribute) and parent.attr == "get":
            call = parents[parent]  # os.environ.get(...)
            if isinstance(call, ast.Call) and call.func is parent and call.args:
                key = call.args[0]
        name = key.value if isinstance(key, ast.Constant) else "?"
        reads.append((node.lineno, name))
    return sorted(reads)


def test_env_reads_finds_every_form():
    tree = ast.parse('import os\nos.environ["A"]\nos.environ.get("B", "1")\n'
                     'os.getenv("C")\nos.environ.get(name)\nf("D", os.environ)\n')
    assert env_reads(tree) == [(2, "A"), (3, "B"), (4, "C"), (5, "?"), (6, "?")]


def _names(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr


def _public_defs(module: str, tree: ast.Module):
    """(qualified name, node) of each public module-level function and each
    public method or property of a module-level class."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            members = [(f"{module}.{node.name}", item) for item in node.body]
        else:
            members = [(module, node)]
        for owner, fn in members:
            if isinstance(fn, ast.FunctionDef) and not fn.name.startswith("_"):
                yield f"{owner}.{fn.name}", fn


def unreferenced(sources: dict[str, str]) -> list[str]:
    """Qualified names of the public defs in ``sources`` (module name ->
    text) that no code there names outside their own body. A reference is
    a name or an attribute; an import alone is none."""
    trees = {module: ast.parse(text) for module, text in sources.items()}
    refs = Counter(name for tree in trees.values() for name in _names(tree))
    return sorted(name for module, tree in trees.items()
                  for name, fn in _public_defs(module, tree)
                  if refs[fn.name] == Counter(_names(fn))[fn.name])


def test_unreferenced_finds_every_unused_public_def():
    sources = {
        "a": "def used(): pass\ndef dead(): pass\ndef _private(): pass\n"
             "def recurse(n): return recurse(n - 1)\n"
             "class K:\n    @property\n    def size(self): return 1\n"
             "    def method(self): return self.size\n",
        "b": "from a import used, dead\nused()\n",
    }
    assert unreferenced(sources) == ["a.K.method", "a.dead", "a.recurse"]


def test_every_public_def_is_used_or_an_entry_point():
    # Code that nothing in the package calls is either an entry point for
    # callers outside it, with its reason above, or dead.
    sources = {path.stem: path.read_text() for path in sorted(SOURCE.glob("*.py"))}
    assert unreferenced(sources) == sorted(ENTRY_POINTS)


def test_source_reads_no_test_only_environment_variable():
    # A knob that only tests set belongs in the tests (monkeypatch), not in
    # the shipped package.
    found = [f"{path.name}:{line} reads {name}"
             for path in sorted(SOURCE.glob("*.py"))
             for line, name in env_reads(ast.parse(path.read_text()))
             if name not in ALLOWED_ENV]
    assert found == []
