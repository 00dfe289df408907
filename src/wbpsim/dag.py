"""Worst-case dataflow graphs: attribute-tagged tasks, software FIFOs,
and runtime dismissal of conditional task groups.

A ``Dag`` is a mutable builder until ``freeze()`` validates it and computes a
structural content hash; after that it is immutable and safe to share. Each
running thread owns a ``DagInstance`` carrying per-task state and one token
slot per edge, plus incrementally maintained readiness (see ``DagInstance``).
A thread is one activation of its dag and each task fires once, so an edge
carries at most one token in the thread's life and one slot is enough.
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
    DISPATCHED = "dispatched"
    DONE = "done"
    DISMISSED = "dismissed"


# Legal forward transitions; dismissal is allowed only before dispatch.
_TRANSITIONS = {
    TaskState.WAITING: {TaskState.DISPATCHED, TaskState.DISMISSED},
    TaskState.DISPATCHED: {TaskState.DONE},
    TaskState.DONE: set(),
    TaskState.DISMISSED: set(),
}


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
    """Builder plus frozen template for one processing chain.

    Thread inputs enter on edges from ``EXTERNAL``. Every edge ends on a task,
    so ``freeze`` refuses an edge into ``EXTERNAL``: a thread's outputs leave
    only as its tasks' ``thread_output``.
    """

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

    def add_edge(self, src: str, dst: str) -> int:
        self._mutable()
        for end in (src, dst):
            if end != EXTERNAL and end not in self.tasks:
                raise ValueError(f"unknown edge endpoint {end!r}")
        self.edges.append(Edge(src=src, dst=dst))
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
            elif edge.dst == EXTERNAL:
                problems.append(f"edge from {edge.src} into EXTERNAL")
                continue
            else:
                has_input[edge.dst] = True
            if edge.src in self.tasks:
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
            "edges": sorted((e.src, e.dst) for e in self.edges),
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
        """Header plus code: the dag part of the bundle that a placement ships
        when the dag is not resident on the cluster."""
        return self._packed_bytes

    def external_input_edges(self) -> list[int]:
        return [i for i, e in enumerate(self.edges) if e.src == EXTERNAL]


class DagInstance:
    """Runtime state of one thread's dag: task states and edge slots.

    ``fifos[edge]`` is the edge's one token slot, None while empty; pushing
    onto a full slot raises. Every edge ends on a task, so a thread's outputs
    leave only through ``outputs[task]``, the task's thread-output token.

    Readiness is kept incrementally, so a scan need not test every task:

    - ``missing[task]`` counts the task's live input edges (producer not
      dismissed) whose slot is empty. It changes when a slot fills
      (``push_token``), when it empties (``pop_inputs``), and when a
      producer is dismissed: its empty output edges stop being live, which
      is the arity adjustment that lets a join fire once the surviving
      producers have delivered.
    - ``_pending`` holds the sorted topological indices of the WAITING
      tasks; a task leaves it when it is dispatched or dismissed.
    - ``_ready[attribute]`` holds the indices in ``_pending`` with nothing
      missing, split by task attribute, so a scan can rank only the tasks
      an idle tile can take.

    ``is_ready`` and ``live_in_edges`` recompute readiness from scratch and
    serve as the oracle for this state.
    """

    def __init__(self, dag: Dag):
        dag.dag_id  # require frozen
        self.dag = dag
        self.states = {tid: TaskState.WAITING for tid in dag.tasks}
        self.fifos: list[Token | None] = [None] * len(dag.edges)
        self.outputs: dict[str, Token] = {}
        self.missing = {tid: len(dag._in_edges[tid]) for tid in dag.tasks}
        self._pending = list(range(len(dag._topo)))
        self._ready: dict[str, set[int]] = {attr: set() for attr in ATTRIBUTES}

    def set_state(self, task_id: str, new: TaskState) -> None:
        cur = self.states[task_id]
        if new not in _TRANSITIONS[cur]:
            raise RuntimeError(f"illegal transition {cur.value} -> {new.value} for {task_id}")
        self.states[task_id] = new
        if new is TaskState.DISPATCHED or new is TaskState.DISMISSED:
            index = self.dag._topo_index[task_id]
            del self._pending[bisect_left(self._pending, index)]
            self._ready[self.dag.tasks[task_id].attribute].discard(index)
        if new is TaskState.DISMISSED:
            for idx in self.dag._out_edges[task_id]:
                if self.fifos[idx] is None:
                    self._input_satisfied(self.dag.edges[idx].dst)

    def _input_satisfied(self, task_id: str) -> None:
        """One more live input of ``task_id`` has a token (or stopped being live)."""
        self.missing[task_id] -= 1
        if self.missing[task_id] == 0 and self.states[task_id] is TaskState.WAITING:
            self._ready[self.dag.tasks[task_id].attribute].add(
                self.dag._topo_index[task_id])

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
        if self.states[task_id] is not TaskState.WAITING:
            return False
        return all(self.fifos[idx] is not None for idx in self.live_in_edges(task_id))

    def ready_tasks(self) -> set[str]:
        return {self.dag._topo[i] for ready in self._ready.values() for i in ready}

    def ready_ranks(self, attributes: Iterable[str] = ATTRIBUTES
                    ) -> list[tuple[int, str]]:
        """(rank, task) of each ready task of ``attributes``, in topological
        order.

        ``rank`` is the task's 1-based position among all WAITING tasks
        in topological order, i.e. how many of them a front-to-back walk
        visits up to and including this one, whatever their attributes.
        """
        topo, pending = self.dag._topo, self._pending
        indices: list[int] = []
        for attr in attributes:
            indices += self._ready[attr]
        indices.sort()
        return [(bisect_left(pending, i) + 1, topo[i]) for i in indices]

    @property
    def pending_count(self) -> int:
        """Number of WAITING tasks."""
        return len(self._pending)

    def push_token(self, edge_idx: int, token: Token) -> None:
        if self.fifos[edge_idx] is not None:
            raise RuntimeError(f"edge {edge_idx} already holds a token")
        self.fifos[edge_idx] = token
        edge = self.dag.edges[edge_idx]
        if self.states.get(edge.src) is not TaskState.DISMISSED:
            self._input_satisfied(edge.dst)

    def pop_inputs(self, task_id: str, edges: list[int]) -> list[Token]:
        """Take the tokens of a ready task's ``edges``, its ``live_in_edges``."""
        index = self.dag._topo_index[task_id]
        ready = self._ready[self.dag.tasks[task_id].attribute]
        if index not in ready:
            raise RuntimeError(f"pop_inputs on non-ready task {task_id}")
        tokens = []
        for idx in edges:
            tokens.append(self.fifos[idx])
            self.fifos[idx] = None
        self.missing[task_id] += len(edges)
        if edges:
            ready.discard(index)
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
            if self.states[member] in (TaskState.DISPATCHED, TaskState.DONE):
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
    """Render `task`, `edge SRC DST` and `dismiss` records, one per line."""
    lines = []
    for spec in dag.tasks.values():
        lines.append(f"task {spec.task_id} {spec.kernel} {spec.attribute} {spec.code_bytes}")
    for edge in dag.edges:
        lines.append(f"edge {edge.src} {edge.dst}")
    for rule in dag.rules:
        lines.append(f"dismiss {rule.producer} {rule.max_count} " + " ".join(rule.group))
    return "\n".join(lines) + "\n"
