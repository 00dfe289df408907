"""Worst-case dataflow graphs: attribute-tagged tasks, software FIFOs,
and runtime dismissal of conditional task groups.

A ``Dag`` is a mutable builder until ``freeze()`` validates it and computes a
structural content hash; after that it is immutable and safe to share. Each
running thread owns a ``DagInstance`` carrying per-task state and per-edge
FIFO queues, plus incrementally maintained readiness (see ``DagInstance``).
"""

from __future__ import annotations

import enum
import hashlib
import json
from bisect import bisect_left
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Iterable

EXTERNAL = "EXTERNAL"

# Fixed header of a packed dag+data bundle; the rest is code and token bytes.
PACK_HEADER_BYTES = 32

ATTRIBUTES = ("LARGE", "SMALL", "ANY")


class TaskState(enum.Enum):
    WAITING = "waiting"
    READY = "ready"
    DISPATCHED = "dispatched"
    RUNNING = "running"
    DONE = "done"
    DISMISSED = "dismissed"


# Legal forward transitions; dismissal is allowed from any pre-dispatch state.
_TRANSITIONS = {
    TaskState.WAITING: {TaskState.READY, TaskState.DISMISSED},
    TaskState.READY: {TaskState.DISPATCHED, TaskState.DISMISSED},
    TaskState.DISPATCHED: {TaskState.RUNNING},
    TaskState.RUNNING: {TaskState.DONE},
    TaskState.DONE: set(),
    TaskState.DISMISSED: set(),
}

# States a scan still visits: not yet dispatched or dismissed.
_PENDING = (TaskState.WAITING, TaskState.READY)


@dataclass(frozen=True)
class TaskSpec:
    task_id: str
    kernel: str
    attribute: str = "ANY"
    code_bytes: int = 4096
    params: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self):
        if self.attribute not in ATTRIBUTES:
            raise ValueError(f"attribute must be one of {ATTRIBUTES}")
        if self.code_bytes <= 0:
            raise ValueError("code_bytes must be positive")


@dataclass(frozen=True)
class Edge:
    src: str
    dst: str
    capacity: int = 4

    def __post_init__(self):
        if self.capacity < 1:
            raise ValueError("FIFO capacity must be >= 1")


@dataclass(frozen=True)
class DismissalRule:
    producer: str
    group: tuple[str, ...]

    @property
    def max_count(self) -> int:
        return len(self.group)


@dataclass(frozen=True)
class Token:
    payload: Any
    byte_size: int
    region: int | None = None  # owning COMPUTE_DATA region while queued

    def __post_init__(self):
        if self.byte_size <= 0:
            raise ValueError("token byte size must be positive")


class Dag:
    """Builder plus frozen template for one processing chain."""

    def __init__(self):
        self.tasks: dict[str, TaskSpec] = {}
        self.edges: list[Edge] = []
        self.rules: list[DismissalRule] = []
        self._frozen_id: str | None = None

    # -- construction -----------------------------------------------------

    def _mutable(self):
        if self._frozen_id is not None:
            raise RuntimeError("dag is frozen")

    def add_task(self, spec: TaskSpec) -> str:
        self._mutable()
        if spec.task_id in self.tasks or spec.task_id == EXTERNAL:
            raise ValueError(f"duplicate or reserved task id {spec.task_id!r}")
        self.tasks[spec.task_id] = spec
        return spec.task_id

    def add_edge(self, src: str, dst: str, capacity: int = 4) -> int:
        self._mutable()
        for end in (src, dst):
            if end != EXTERNAL and end not in self.tasks:
                raise ValueError(f"unknown edge endpoint {end!r}")
        self.edges.append(Edge(src=src, dst=dst, capacity=capacity))
        return len(self.edges) - 1

    def add_dismissal(self, producer: str, group: Iterable[str]) -> None:
        self._mutable()
        self.rules.append(DismissalRule(producer=producer, group=tuple(group)))

    # -- validation and identity ------------------------------------------

    def validate(self) -> list[str]:
        return self._analyse()[0]

    def _analyse(self) -> tuple[list[str], list[str]]:
        """(problems, topological order) from one successor map.

        The order is Kahn's, queueing each batch of successors a task
        releases in sorted order; it covers every task only when there is no
        cycle. Scans follow it, so it must not change.
        """
        problems = []
        has_input = dict.fromkeys(self.tasks, False)
        indeg = dict.fromkeys(self.tasks, 0)
        succ: dict[str, list[str]] = {tid: [] for tid in self.tasks}
        for edge in self.edges:
            if edge.src == edge.dst:
                problems.append(f"self-loop on {edge.src}")
            elif edge.dst != EXTERNAL:
                has_input[edge.dst] = True
            if edge.src in self.tasks and edge.dst in self.tasks:
                indeg[edge.dst] += 1
                succ[edge.src].append(edge.dst)
        problems += [f"task {tid} has no input edge"
                     for tid, ok in has_input.items() if not ok]
        queue = deque(sorted(t for t, d in indeg.items() if d == 0))
        order = []
        while queue:
            tid = queue.popleft()
            order.append(tid)
            released = []
            for nxt in succ[tid]:
                indeg[nxt] -= 1
                if indeg[nxt] == 0:
                    released.append(nxt)
            queue.extend(sorted(released))
        if len(order) != len(self.tasks):
            problems.append("graph contains a cycle")
        for rule in self.rules:
            if rule.producer not in self.tasks:
                problems.append(f"dismissal producer {rule.producer} unknown")
                continue
            if len(set(rule.group)) != len(rule.group):
                problems.append(f"dismissal group of {rule.producer} has duplicates")
            reachable: set[str] = set()
            stack = [rule.producer]
            while stack:
                for nxt in succ[stack.pop()]:
                    if nxt not in reachable:
                        reachable.add(nxt)
                        stack.append(nxt)
            for member in rule.group:
                if member not in self.tasks:
                    problems.append(f"dismissal member {member} unknown")
                elif member == rule.producer:
                    problems.append(f"dismissal group of {rule.producer} contains producer")
                elif member not in reachable:
                    problems.append(f"{rule.producer} does not reach group member {member}")
        return problems, order

    def freeze(self) -> "Dag":
        problems, order = self._analyse()
        if problems:
            raise ValueError("invalid dag: " + "; ".join(problems))
        self._frozen_id = self._content_hash()
        self._topo = order
        self._in_edges = {tid: [] for tid in self.tasks}
        self._out_edges = {tid: [] for tid in self.tasks}
        for idx, edge in enumerate(self.edges):
            if edge.dst in self.tasks:
                self._in_edges[edge.dst].append(idx)
            if edge.src in self.tasks:
                self._out_edges[edge.src].append(idx)
        self._rule_by_producer = {rule.producer: rule for rule in self.rules}
        self._topo_index = {tid: i for i, tid in enumerate(self._topo)}
        self._packed_bytes = PACK_HEADER_BYTES + self.total_code_bytes
        return self

    def _content_hash(self) -> str:
        canon = {
            "tasks": sorted(
                (t.task_id, t.kernel, t.attribute, t.code_bytes,
                 sorted(t.params.items()))
                for t in self.tasks.values()
            ),
            "edges": sorted((e.src, e.dst, e.capacity) for e in self.edges),
            "rules": sorted((r.producer, r.group) for r in self.rules),
        }
        blob = json.dumps(canon, sort_keys=True, default=str).encode()
        return hashlib.sha256(blob).hexdigest()[:16]

    # -- frozen accessors ---------------------------------------------------

    @property
    def dag_id(self) -> str:
        if self._frozen_id is None:
            raise RuntimeError("dag_id is only defined after freeze()")
        return self._frozen_id

    @property
    def topo_order(self) -> list[str]:
        return list(self._topo)

    def in_edges(self, task_id: str) -> list[int]:
        return list(self._in_edges[task_id])

    def out_edges(self, task_id: str) -> list[int]:
        return list(self._out_edges[task_id])

    def dismissal_rule(self, producer: str) -> DismissalRule | None:
        return self._rule_by_producer.get(producer)

    @property
    def total_code_bytes(self) -> int:
        return sum(t.code_bytes for t in self.tasks.values())

    @property
    def packed_bytes(self) -> int:
        """Header plus code: the dag part of a packed bundle (mem_pack)."""
        return self._packed_bytes

    def external_input_edges(self) -> list[int]:
        return [i for i, e in enumerate(self.edges) if e.src == EXTERNAL]


class BackpressureError(RuntimeError):
    """FIFO at capacity."""


class DagInstance:
    """Runtime state of one thread's dag: task states and FIFO contents.

    Readiness is kept incrementally, so a scan need not test every task:

    - ``missing[task]`` counts the task's live input edges (producer not
      dismissed) whose FIFO is empty. It changes when a FIFO goes from empty
      to one token (``push_token``), from one token to empty
      (``pop_inputs``), and when a producer is dismissed: its empty output
      edges stop being live, which is the arity adjustment that lets a join
      fire once the surviving producers have delivered.
    - ``_pending`` holds the sorted topological indices of the WAITING/READY
      tasks; a task leaves it when it is dispatched or dismissed.
    - ``_ready`` is the subset of ``_pending`` with nothing missing.

    ``is_ready`` and ``live_in_edges`` recompute readiness from scratch and
    serve as the oracle for this state.
    """

    def __init__(self, dag: Dag):
        dag.dag_id  # require frozen
        self.dag = dag
        self.states = {tid: TaskState.WAITING for tid in dag.tasks}
        self.fifos: dict[int, deque[Token]] = {i: deque() for i in range(len(dag.edges))}
        self.push_counts = {i: 0 for i in range(len(dag.edges))}
        self.pop_counts = {i: 0 for i in range(len(dag.edges))}
        self.outputs: dict[str, list[Token]] = {}
        self.missing = {tid: len(dag._in_edges[tid]) for tid in dag.tasks}
        self._pending = list(range(len(dag._topo)))
        self._ready: set[int] = set()

    def set_state(self, task_id: str, new: TaskState) -> None:
        cur = self.states[task_id]
        if new not in _TRANSITIONS[cur]:
            raise RuntimeError(f"illegal transition {cur.value} -> {new.value} for {task_id}")
        self.states[task_id] = new
        if new is TaskState.DISPATCHED or new is TaskState.DISMISSED:
            index = self.dag._topo_index[task_id]
            del self._pending[bisect_left(self._pending, index)]
            self._ready.discard(index)
        if new is TaskState.DISMISSED:
            for idx in self.dag._out_edges[task_id]:
                if not self.fifos[idx]:
                    self._input_satisfied(self.dag.edges[idx].dst)

    def _input_satisfied(self, task_id: str) -> None:
        """One more live input of ``task_id`` has a token (or stopped being live)."""
        if task_id in self.missing:
            self.missing[task_id] -= 1
            if self.missing[task_id] == 0 and self.states[task_id] in _PENDING:
                self._ready.add(self.dag._topo_index[task_id])

    def live_in_edges(self, task_id: str) -> list[int]:
        """Input edges whose producer was not dismissed (arity adjustment)."""
        out = []
        for idx in self.dag.in_edges(task_id):
            src = self.dag.edges[idx].src
            if src in self.states and self.states[src] is TaskState.DISMISSED:
                continue
            out.append(idx)
        return out

    def is_ready(self, task_id: str) -> bool:
        if self.states[task_id] not in _PENDING:
            return False
        return all(self.fifos[idx] for idx in self.live_in_edges(task_id))

    def ready_tasks(self) -> set[str]:
        return {self.dag._topo[i] for i in self._ready}

    def ready_ranks(self) -> list[tuple[int, str]]:
        """(rank, task) of each ready task, in topological order.

        ``rank`` is the task's 1-based position among the WAITING/READY tasks
        in topological order, i.e. how many of them a front-to-back walk
        visits up to and including this one.
        """
        topo, pending = self.dag._topo, self._pending
        return [(bisect_left(pending, i) + 1, topo[i]) for i in sorted(self._ready)]

    @property
    def pending_count(self) -> int:
        """Number of WAITING/READY tasks."""
        return len(self._pending)

    def push_token(self, edge_idx: int, token: Token) -> None:
        fifo = self.fifos[edge_idx]
        edge = self.dag.edges[edge_idx]
        if len(fifo) >= edge.capacity:
            raise BackpressureError(f"edge {edge_idx} at capacity")
        fifo.append(token)
        self.push_counts[edge_idx] += 1
        if len(fifo) == 1 and self.states.get(edge.src) is not TaskState.DISMISSED:
            self._input_satisfied(edge.dst)

    def pop_inputs(self, task_id: str) -> list[Token]:
        if not self.is_ready(task_id):
            raise RuntimeError(f"pop_inputs on non-ready task {task_id}")
        tokens = []
        for idx in self.live_in_edges(task_id):
            fifo = self.fifos[idx]
            tokens.append(fifo.popleft())
            self.pop_counts[idx] += 1
            if not fifo:
                self.missing[task_id] += 1
        if self.missing[task_id]:
            self._ready.discard(self.dag._topo_index[task_id])
        return tokens

    def apply_dismissal(self, rule: DismissalRule, observed_count: int) -> list[str]:
        """Dismiss the tail of the rule's group beyond the observed count.

        ``set_state`` makes the arity adjustment for each dismissed member.
        """
        if not 0 <= observed_count <= rule.max_count:
            raise ValueError(f"observed count must be in 0..{rule.max_count}")
        if self.states[rule.producer] is not TaskState.DONE:
            raise RuntimeError("dismissal producer has not completed")
        dismissed = []
        for member in rule.group[observed_count:]:
            if self.states[member] in (TaskState.DISPATCHED, TaskState.RUNNING,
                                       TaskState.DONE):
                raise RuntimeError(f"group member {member} already dispatched")
            if self.states[member] is not TaskState.DISMISSED:
                self.set_state(member, TaskState.DISMISSED)
                dismissed.append(member)
        return dismissed

    def is_complete(self) -> bool:
        return all(s in (TaskState.DONE, TaskState.DISMISSED)
                   for s in self.states.values())


# ---------------------------------------------------------------------------
# plain-text dag description format


def dump_dag(dag: Dag) -> str:
    """Render `task`, `edge` and `dismiss` records, one per line."""
    lines = []
    for spec in dag.tasks.values():
        lines.append(f"task {spec.task_id} {spec.kernel} {spec.attribute} {spec.code_bytes}")
    for edge in dag.edges:
        lines.append(f"edge {edge.src} {edge.dst} {edge.capacity}")
    for rule in dag.rules:
        lines.append(f"dismiss {rule.producer} {rule.max_count} " + " ".join(rule.group))
    return "\n".join(lines) + "\n"


def load_dag(text: str) -> Dag:
    dag = Dag()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        kind = parts[0]
        try:
            if kind == "task":
                tid, kernel, attr, code_bytes = parts[1:5]
                dag.add_task(TaskSpec(task_id=tid, kernel=kernel, attribute=attr,
                                      code_bytes=int(code_bytes)))
            elif kind == "edge":
                src, dst, cap = parts[1:4]
                dag.add_edge(src, dst, int(cap))
            elif kind == "dismiss":
                producer, count = parts[1], int(parts[2])
                group = parts[3:]
                if len(group) != count:
                    raise ValueError(f"dismiss group size {len(group)} != {count}")
                dag.add_dismissal(producer, group)
            else:
                raise ValueError(f"unknown record kind {kind!r}")
        except (IndexError, ValueError) as exc:
            raise ValueError(f"dag description line {lineno}: {exc}") from None
    return dag
