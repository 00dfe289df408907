import numpy as np
import pytest

from wbpsim.dag import Dag, TaskSpec, Token
from wbpsim.scheduler import BodyResult


def linear_dag(n_tasks: int, kernel: str = "scramble", attr: str = "ANY",
               code_bytes: int = 2048, tag: str = "t") -> Dag:
    """EXTERNAL -> t0 -> t1 -> ... -> t{n-1}, default capacities."""
    dag = Dag()
    prev = None
    for i in range(n_tasks):
        tid = dag.add_task(TaskSpec(task_id=f"{tag}{i}", kernel=kernel,
                                    attribute=attr, code_bytes=code_bytes))
        if prev is None:
            dag.add_edge("EXTERNAL", tid)
        else:
            dag.add_edge(prev, tid)
        prev = tid
    return dag.freeze()


def make_passthrough_body(cost_items=(("assemble", 64, 1),), token_bytes=64):
    """Body that forwards a fixed-size token along every out edge."""

    def body(spec, payloads, thread):
        n_out = len(thread.dag.out_edges(spec.task_id))
        token = Token(payload=spec.task_id, byte_size=token_bytes)
        if n_out:
            return BodyResult([token] * n_out, list(cost_items))
        return BodyResult([], list(cost_items), thread_output=token)

    return body


def input_token(nbytes: int = 64) -> Token:
    return Token(payload=b"in", byte_size=nbytes)


def declared_inputs(thread) -> list[Token]:
    """Synthesizer that builds one ``input_token`` per declared input size."""
    return [input_token(nbytes) for nbytes in thread.input_sizes]


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
