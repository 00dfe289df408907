"""Dataflow graph semantics: building, validation, FIFOs, dismissal."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wbpsim.dag import (ATTRIBUTES, Dag, DagInstance, TaskSpec, TaskState,
                        Token, dump_dag)


def spec(tid, kernel="scramble", attr="ANY", code=1024):
    return TaskSpec(task_id=tid, kernel=kernel, attribute=attr, code_bytes=code)


def chain(n):
    dag = Dag()
    prev = None
    for i in range(n):
        dag.add_task(spec(f"t{i}"))
        if prev is None:
            dag.add_edge("EXTERNAL", f"t{i}")
        else:
            dag.add_edge(prev, f"t{i}")
        prev = f"t{i}"
    return dag


def tok(n=8, payload="x"):
    return Token(payload=payload, byte_size=n)


# -- construction -----------------------------------------------------------


def test_add_task_and_duplicate_rejection():
    dag = Dag()
    dag.add_task(spec("a"))
    assert len(dag.tasks) == 1
    with pytest.raises(ValueError):
        dag.add_task(spec("a"))
    dag.add_task(spec("b"))
    assert dag.tasks["a"].task_id == "a" and dag.tasks["b"].task_id == "b"


def test_add_edge_endpoint_checks():
    dag = Dag()
    dag.add_task(spec("a"))
    dag.add_edge("EXTERNAL", "a")
    dag.add_edge("a", "a")  # accepted here, rejected by validate()
    with pytest.raises(ValueError):
        dag.add_edge("a", "missing")


def test_validate_reports_violations():
    ok = chain(2)
    assert ok.validate() == []
    loop = Dag()
    loop.add_task(spec("a"))
    loop.add_edge("EXTERNAL", "a")
    loop.add_edge("a", "a")
    assert loop.validate() == ["self-loop on a", "graph contains a cycle"]
    cyc = Dag()
    cyc.add_task(spec("a"))
    cyc.add_task(spec("b"))
    cyc.add_edge("EXTERNAL", "a")
    cyc.add_edge("a", "b")
    cyc.add_edge("b", "a")
    assert cyc.validate() == ["graph contains a cycle"]
    orphan = Dag()
    orphan.add_task(spec("a"))
    assert orphan.validate() == ["task a has no input edge"]
    # A self-loop is no input edge, and problems come in a fixed order.
    only_loop = Dag()
    only_loop.add_task(spec("a"))
    only_loop.add_edge("a", "a")
    assert only_loop.validate() == ["self-loop on a", "task a has no input edge",
                                    "graph contains a cycle"]
    # A thread output leaves through thread_output, never on an edge.
    sink = chain(1)
    sink.add_edge("t0", "EXTERNAL")
    assert sink.validate() == ["edge from t0 into EXTERNAL"]


def test_validate_checks_dismissal_reachability():
    dag = Dag()
    for t in ("p", "g0", "g1", "other"):
        dag.add_task(spec(t))
    dag.add_edge("EXTERNAL", "p")
    dag.add_edge("p", "g0")
    dag.add_edge("p", "g1")
    dag.add_edge("EXTERNAL", "other")
    dag.add_dismissal("p", ["g0", "g1"])
    assert dag.validate() == []
    bad = Dag()
    for t in ("p", "g0"):
        bad.add_task(spec(t))
    bad.add_edge("EXTERNAL", "p")
    bad.add_edge("EXTERNAL", "g0")
    bad.add_dismissal("p", ["g0"])
    assert bad.validate() == ["p does not reach group member g0"]
    rules = Dag()
    for t in ("p", "g0", "g1"):
        rules.add_task(spec(t))
    rules.add_edge("EXTERNAL", "p")
    rules.add_edge("p", "g0")
    rules.add_edge("EXTERNAL", "g1")
    rules.add_dismissal("ghost", ["g0"])
    rules.add_dismissal("p", ["g0", "g0", "p", "nobody", "g1"])
    assert rules.validate() == [
        "dismissal producer ghost unknown",
        "dismissal group of p has duplicates",
        "dismissal group of p contains producer",
        "dismissal member nobody unknown",
        "p does not reach group member g1",
    ]


def test_dag_id_stable_under_insertion_order():
    a = Dag()
    a.add_task(spec("x"))
    a.add_task(spec("y"))
    a.add_edge("EXTERNAL", "x")
    a.add_edge("x", "y")
    b = Dag()
    b.add_task(spec("y"))
    b.add_task(spec("x"))
    b.add_edge("x", "y")
    b.add_edge("EXTERNAL", "x")
    assert a.freeze().dag_id == b.freeze().dag_id


def test_dag_id_differs_on_structure_change():
    a = chain(2).freeze()
    b = chain(3).freeze()
    assert a.dag_id != b.dag_id


def test_frozen_dag_rejects_mutation():
    dag = chain(2).freeze()
    with pytest.raises(RuntimeError):
        dag.add_task(spec("z"))


# -- instance state ------------------------------------------------------------


def test_ready_requires_all_live_inputs():
    # diamond: src -> a, src -> b, join needs both parents' tokens
    dag = Dag()
    for t in ("src", "a", "b", "join"):
        dag.add_task(spec(t))
    dag.add_edge("EXTERNAL", "src")
    e_sa = dag.add_edge("src", "a")
    e_sb = dag.add_edge("src", "b")
    e_aj = dag.add_edge("a", "join")
    e_bj = dag.add_edge("b", "join")
    dag.freeze()
    inst = DagInstance(dag)
    assert inst.ready_tasks() == set()
    inst.push_token(0, tok())
    assert inst.ready_tasks() == {"src"}
    inst.push_token(e_aj, tok())
    assert "join" not in inst.ready_tasks()
    inst.push_token(e_bj, tok())
    assert "join" in inst.ready_tasks()
    del e_sa, e_sb


def test_edge_holds_one_token():
    dag = chain(1).freeze()
    inst = DagInstance(dag)
    first = tok(payload="1")
    inst.push_token(0, first)
    with pytest.raises(RuntimeError, match="edge 0 already holds a token"):
        inst.push_token(0, tok(payload="2"))
    assert inst.pop_inputs("t0", inst.live_in_edges("t0")) == [first]
    assert inst.fifos[0] is None


def test_pop_on_non_ready_rejected():
    dag = chain(2).freeze()
    inst = DagInstance(dag)
    with pytest.raises(RuntimeError):
        inst.pop_inputs("t1", inst.live_in_edges("t1"))


def fan_out_dag(group_size=20):
    dag = Dag()
    dag.add_task(spec("blind"))
    dag.add_task(spec("sink"))
    dag.add_edge("EXTERNAL", "blind")
    group = []
    for i in range(group_size):
        tid = f"dec{i:02d}"
        dag.add_task(spec(tid))
        dag.add_edge("blind", tid)
        dag.add_edge(tid, "sink")
        group.append(tid)
    dag.add_dismissal("blind", group)
    return dag.freeze()


def run_producer(inst):
    inst.push_token(0, tok())
    inst.set_state("blind", TaskState.DISPATCHED)
    inst.set_state("blind", TaskState.DONE)


@pytest.mark.parametrize("observed,expected_dismissed", [(20, 0), (0, 20), (3, 17)])
def test_apply_dismissal_prunes_tail(observed, expected_dismissed):
    dag = fan_out_dag()
    inst = DagInstance(dag)
    run_producer(inst)
    rule = dag.dismissal_rule("blind")
    dismissed = inst.apply_dismissal(rule, observed)
    assert len(dismissed) == expected_dismissed
    assert dismissed == [f"dec{i:02d}" for i in range(observed, 20)]
    for tid in dismissed:
        assert inst.states[tid] is TaskState.DISMISSED
        assert tid not in inst.ready_tasks()


def test_dismissal_adjusts_join_arity():
    dag = fan_out_dag(group_size=3)
    inst = DagInstance(dag)
    run_producer(inst)
    inst.apply_dismissal(dag.dismissal_rule("blind"), 1)
    # sink now only waits for dec00's token
    edge = dag.in_edges("sink")[0]
    assert dag.edges[edge].src == "dec00"
    inst.push_token(edge, tok())
    inst.set_state("dec00", TaskState.DISPATCHED)
    inst.set_state("dec00", TaskState.DONE)
    assert "sink" in inst.ready_tasks()
    assert len(inst.pop_inputs("sink", inst.live_in_edges("sink"))) == 1


def test_dismissal_rejects_bad_count_and_dispatched_members():
    dag = fan_out_dag(group_size=2)
    inst = DagInstance(dag)
    run_producer(inst)
    with pytest.raises(ValueError):
        inst.apply_dismissal(dag.dismissal_rule("blind"), 3)
    inst.push_token(dag.in_edges("dec00")[0], tok())
    inst.set_state("dec00", TaskState.DISPATCHED)
    with pytest.raises(RuntimeError):
        inst.apply_dismissal(dag.dismissal_rule("blind"), 0)


def test_is_complete_accounts_dismissed():
    dag = fan_out_dag(group_size=2)
    inst = DagInstance(dag)
    assert not inst.is_complete()
    run_producer(inst)
    inst.apply_dismissal(dag.dismissal_rule("blind"), 0)
    for tid in ("sink",):
        inst.set_state(tid, TaskState.DISPATCHED)
        inst.set_state(tid, TaskState.DONE)
    assert inst.is_complete()


def test_state_transition_guard():
    dag = chain(1).freeze()
    inst = DagInstance(dag)
    with pytest.raises(RuntimeError):
        inst.set_state("t0", TaskState.DONE)


# -- description file ------------------------------------------------------------


def test_dump_dag_records():
    assert dump_dag(fan_out_dag(group_size=2)) == (
        "task blind scramble ANY 1024\n"
        "task sink scramble ANY 1024\n"
        "task dec00 scramble ANY 1024\n"
        "task dec01 scramble ANY 1024\n"
        "edge EXTERNAL blind\n"
        "edge blind dec00\n"
        "edge dec00 sink\n"
        "edge blind dec01\n"
        "edge dec01 sink\n"
        "dismiss blind 2 dec00 dec01\n")


# -- incremental readiness against the oracle ------------------------------------


def diamond_with_dismissal():
    # src fans out to a and b, which join; src may dismiss a, b or both.
    dag = Dag()
    for t in ("src", "a", "b", "join"):
        dag.add_task(spec(t))
    dag.add_edge("EXTERNAL", "src")
    for src, dst in (("src", "a"), ("src", "b"), ("a", "join"), ("b", "join")):
        dag.add_edge(src, dst)
    dag.add_dismissal("src", ("a", "b"))
    return dag.freeze()


def small_rx_dag():
    from wbpsim.kernels import OfdmConfig, PolarCode
    from wbpsim.workload import LinkConfig, build_rx_dag
    return build_rx_dag(LinkConfig(polar=PolarCode.design(64, 32), rate_match_e=64,
                                   ofdm=OfdmConfig(32, 8), bp_iters=4,
                                   users_per_slot=3))


READINESS_DAGS = {"diamond": diamond_with_dismissal(), "rx": small_rx_dag()}
# Forward path of a task that is not dismissed.
NEXT_STATE = {TaskState.WAITING: TaskState.DISPATCHED,
              TaskState.DISPATCHED: TaskState.DONE}


def assert_readiness_matches_oracle(inst):
    order = inst.dag.topo_order
    pending = [t for t in order if inst.states[t] is TaskState.WAITING]
    assert inst.ready_tasks() == {t for t in order if inst.is_ready(t)}
    assert inst.ready_ranks() == [(pending.index(t) + 1, t)
                                  for t in pending if inst.is_ready(t)]
    assert inst.pending_count == len(pending)
    # Filtering by attribute keeps each task's rank among all pending tasks.
    for size in range(len(ATTRIBUTES) + 1):
        for attributes in itertools.combinations(ATTRIBUTES, size):
            assert inst.ready_ranks(attributes) == [
                (rank, t) for rank, t in inst.ready_ranks()
                if inst.dag.tasks[t].attribute in attributes]


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(sorted(READINESS_DAGS)),
       st.lists(st.tuples(st.sampled_from(("push", "pop", "advance", "dismiss",
                                           "apply")),
                          st.integers(0, 63), st.integers(0, 20)),
                max_size=80))
def test_incremental_readiness_matches_oracle(name, ops):
    dag = READINESS_DAGS[name]
    inst = DagInstance(dag)
    tasks = dag.topo_order
    for op, pick, count in ops:
        task = tasks[pick % len(tasks)]
        state = inst.states[task]
        if op == "push":
            try:
                inst.push_token(pick % len(dag.edges), tok())
            except RuntimeError:  # the edge already holds a token
                pass
        elif op == "pop":
            if inst.is_ready(task):
                inst.pop_inputs(task, inst.live_in_edges(task))
            else:
                with pytest.raises(RuntimeError):
                    inst.pop_inputs(task, inst.live_in_edges(task))
        elif op == "advance" and state in NEXT_STATE:
            inst.set_state(task, NEXT_STATE[state])
        elif op == "dismiss" and state is TaskState.WAITING:
            inst.set_state(task, TaskState.DISMISSED)
        elif op == "apply" and dag.rules:
            rule = dag.rules[pick % len(dag.rules)]
            try:
                inst.apply_dismissal(rule, count % (rule.max_count + 1))
            except RuntimeError:  # producer not done or a member dispatched
                pass
        assert_readiness_matches_oracle(inst)
