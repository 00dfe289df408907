"""The benchmark's tracer wraps simulator entry points by name.

``perfbench/tracing.py`` patches attributes of ``wbpsim`` modules and classes
from the outside; a renamed or deleted entry point breaks the benchmark and
nothing else. Entering and leaving the tracer, with no simulation, checks
that every named attribute exists and is put back.
"""

import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_entry_points_exist_and_are_restored():
    tracing = load_tracing()
    points = [(owner, attr) for owner, attr, _, _ in tracing.ENTRY_POINTS]
    missing = [attr for owner, attr in points if attr not in vars(owner)]
    assert missing == []
    before = [vars(owner)[attr] for owner, attr in points]
    with tracing.Tracer():
        assert all(vars(owner)[attr] is not original
                   for (owner, attr), original in zip(points, before))
    assert all(vars(owner)[attr] is original
               for (owner, attr), original in zip(points, before))
