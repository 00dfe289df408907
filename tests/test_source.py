"""Rules on the package source itself."""

import ast
import pathlib

import wbpsim

SOURCE = pathlib.Path(wbpsim.__file__).parent
# The one environment variable the package reads: the sweep worker count.
ALLOWED_ENV = {"WBPSIM_WORKERS"}


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


def test_source_reads_no_test_only_environment_variable():
    # A knob that only tests set belongs in the tests (monkeypatch), not in
    # the shipped package.
    found = [f"{path.name}:{line} reads {name}"
             for path in sorted(SOURCE.glob("*.py"))
             for line, name in env_reads(ast.parse(path.read_text()))
             if name not in ALLOWED_ENV]
    assert found == []
