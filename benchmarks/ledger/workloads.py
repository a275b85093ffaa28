"""The four workloads, each driving the system through its public API only.

Why each exists, and what it is predicted *not* to show:

``tc_reach``     in-process default ``Session()``, right-linear ``path(bf)``
                 over a layered DAG.  The fixpoint (eval, rewriting,
                 relations, compilemod) does nearly all the work; server and
                 client do none.  A kernel or push-by-default change must
                 show here.
``sp_agg``       the paper's Figure 3 shortest path: aggregate selections,
                 list-valued path terms, arithmetic.  The same eval layer
                 used differently (aggregates, terms, builtins): the control
                 on which a TC-kernel change predicts *no change*.
``wire_lookup``  a ``python -m repro.server`` child and two ``RemoteSession``
                 connections doing indexed base-relation lookups.
                 Evaluation is trivial, so client codec, framing, dispatch
                 and the db-lock hand-off are nearly all the time; a
                 fixpoint change predicts no change.
``live_update``  ``Session(memo=True)`` with four live views: the write side
                 of eval (maintenance, memo, live).  A read-path gain that
                 costs commits, or the reverse, shows here.
"""

from __future__ import annotations

from time import perf_counter
from typing import Callable, Dict, List, Optional, Sequence, Set

from repro import Session
from repro.client import RemoteSession
from repro.errors import CoralError

from .gen import ClientOps, Edge, Inputs
from .oracle import EdgeState, Failures, check_set, check_shortest
from .proc import Reaper, ServerProcess

TC_MODULE = """
module tc.
export path(bf).
path(X, Y) :- edge(X, Y).
path(X, Y) :- edge(X, Z), path(Z, Y).
end_module.
"""

#: Figure 3 of the paper, verbatim
SP_MODULE = """
module s_p.
export s_p(bfff).
@aggregate_selection p(X, Y, P, C) (X, Y) min(C).
@aggregate_selection p(X, Y, P, C) (X, Y, C) any(P).
s_p(X, Y, P, C) :- s_p_length(X, Y, C), p(X, Y, P, C).
s_p_length(X, Y, min(<C>)) :- p(X, Y, P, C).
p(X, Y, P1, C1) :- p(X, Z, P, C), edge(Z, Y, EC),
                   append([edge(Z, Y)], P, P1), C1 = C + EC.
p(X, Y, [edge(X, Y)], C) :- edge(X, Y, C).
end_module.
"""

LOOKUP_INDEX = "@make_index edge(X, Y) (X).\n"

AUDIT_EVERY = 25  # live views are compared with BFS at every 25th step


def facts(edges: Sequence[Edge]) -> str:
    return "".join(
        "edge(%s).\n" % ", ".join(map(str, edge)) for edge in edges
    )


class Client:
    """One closed-loop client: it waits for each reply before its next op."""

    #: when the last live-view callback of the current commit fired
    last_notify: Optional[float] = None

    def __init__(self, ops: ClientOps, target) -> None:
        self.ops = ops
        self.target = target  # a Session or a RemoteSession: same calls

    def insert(self, edge: Edge) -> bool:
        return self.target.insert("edge", *edge)

    def delete(self, edge: Edge) -> bool:
        return self.target.delete("edge", *edge)

    def query(self, key: int):
        raise NotImplementedError

    def check(self, answers, state: EdgeState, key: int) -> Optional[str]:
        """None, or why ``answers`` (what ``query`` returned) is wrong."""
        raise NotImplementedError

    def audit(self, state: EdgeState) -> List[Optional[str]]:
        """Extra standing checks (live views); one verdict per check."""
        return []


class ReachClient(Client):
    def query(self, key: int):
        return self.target.query(f"path({key}, Y)").all()

    def check(self, answers, state, key):
        return check_set([a["Y"] for a in answers], state.reachable(key))


class ShortestPathClient(Client):
    def query(self, key: int):
        return self.target.query(f"s_p({key}, Y, P, C)").all()

    def check(self, answers, state, key):
        got = [
            (a["Y"], [(e.args[0].value, e.args[1].value) for e in a["P"]], a["C"])
            for a in answers
        ]
        return check_shortest(got, state, key)


class LookupClient(Client):
    def query(self, key: int):
        return self.target.query(f"edge({key}, Y)").all()

    def check(self, answers, state, key):
        return check_set([a["Y"] for a in answers], state.successors(key))


class LiveClient(ReachClient):
    """Reads are memoized; four subscribed goals are folded from their
    snapshot and deltas, and compared with BFS by ``audit``."""

    def __init__(self, ops: ClientOps, target, views: List[int],
                 failures: Failures) -> None:
        super().__init__(ops, target)
        self.folded: List[tuple] = []  # (key, the view's current answers)
        for key in views:
            failures.attempt()
            answers: Set[int] = set()
            try:
                view = target.subscribe(f"path({key}, Y)", self._sink(answers))
            except CoralError as exc:
                failures.fail(f"subscription to path({key}, Y) refused: {exc}")
                continue
            answers.update(tup.args[1].value for tup in view.snapshot())
            self.folded.append((key, answers))

    def _sink(self, answers: Set[int]) -> Callable:
        def on_deltas(deltas) -> None:
            for sign, tup in deltas:
                if sign > 0:
                    answers.add(tup.args[1].value)
                else:
                    answers.discard(tup.args[1].value)
            self.last_notify = perf_counter()

        return on_deltas

    def audit(self, state):
        return [
            check_set(sorted(answers), state.reachable(key))
            for key, answers in self.folded
        ]


class Workload:
    """One set-up of one workload: what ``setup_s`` times."""

    def __init__(self, inputs: Inputs, failures: Failures) -> None:
        self.inputs = inputs
        self.failures = failures
        self.clients: List[Client] = []

    def close(self) -> None:
        raise NotImplementedError

    def counters(self) -> Dict[str, float]:
        """The program's own counters, flattened (``eval.*``, ``memo.*``,
        ``live.*``, ``server.*``); the traced pass reports their deltas."""
        raise NotImplementedError

    def warm_up(self) -> None:
        """One read per query form per client, so compiling the form is
        part of set-up and not of the first timed query."""
        for client in self.clients:
            client.query(client.ops.warm_key)


class InProcess(Workload):
    module = TC_MODULE
    memo = False
    client_class = ReachClient

    def __init__(self, inputs: Inputs, failures: Failures, reaper: Reaper,
                 traced_server: bool = False) -> None:
        # same signature as WireLookup; nothing here starts a process
        super().__init__(inputs, failures)
        self.session = self.make_session()
        self.session.consult_string(facts(inputs.edges) + self.module)
        self.clients = [self.make_client(inputs.clients[0])]
        self.warm_up()

    def make_session(self) -> Session:
        return Session(memo=True) if self.memo else Session()

    def make_client(self, ops: ClientOps) -> Client:
        return self.client_class(ops, self.session)

    def close(self) -> None:
        self.session.close()

    def counters(self):
        flat = {f"eval.{k}": v for k, v in self.session.stats.snapshot().items()}
        if self.session.memo is not None:
            flat.update(
                {f"memo.{k}": v for k, v in self.session.memo.snapshot().items()}
            )
        if self.session.live is not None:
            flat.update(
                {f"live.{k}": v for k, v in self.session.live.snapshot().items()}
            )
        return flat


class TcReach(InProcess):
    pass


class SpAgg(InProcess):
    module = SP_MODULE
    client_class = ShortestPathClient


class LiveUpdate(InProcess):
    memo = True

    def make_client(self, ops):
        return LiveClient(ops, self.session, self.inputs.views, self.failures)


class WireLookup(Workload):
    def __init__(self, inputs: Inputs, failures: Failures, reaper: Reaper,
                 traced_server: bool = False) -> None:
        super().__init__(inputs, failures)
        self.server = ServerProcess(reaper, traced=traced_server).start()
        self.sessions: List[RemoteSession] = []
        try:
            for ops in inputs.clients:
                session = RemoteSession("127.0.0.1", self.server.port)
                self.sessions.append(session)
                self.clients.append(LookupClient(ops, session))
            self.sessions[0].consult_string(LOOKUP_INDEX + facts(inputs.edges))
            self.warm_up()
        except BaseException:
            self.close()
            raise

    def close(self) -> Optional[dict]:
        """Returns the traced server's final dump, if it was traced."""
        for session in self.sessions:
            try:
                session.close()
            except (CoralError, OSError):
                pass  # the server is going away regardless
        self.sessions = []
        return self.server.stop()

    def counters(self):
        stats = self.sessions[0].stats()
        flat = {f"eval.{k}": v for k, v in stats["eval"].items()}
        flat["server.requests"] = stats["requests"]
        errors = stats["metrics"].get("server.errors", {}).get("values", {})
        flat["server.errors"] = sum(errors.values())
        return flat


WORKLOADS = {
    "tc_reach": TcReach,
    "sp_agg": SpAgg,
    "wire_lookup": WireLookup,
    "live_update": LiveUpdate,
}
