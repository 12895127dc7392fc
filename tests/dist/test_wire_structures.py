"""Unit tests for the GPA wire structures (Fig. 1/3's data items) and
the derived-fact ledger they are applied to."""

import os
import pickle
import subprocess
import sys
from itertools import permutations

import pytest

import repro

from repro.core.derivations import fact_ref
from repro.core.terms import Constant
from repro.dist.derived import DerivedFact, DerivedTable, FactRef, ResultMsg, WireDerivation
from repro.dist.gpa import (
    Candidate,
    GatherMsg,
    JoinToken,
    Partial,
    StoreMsg,
)
from repro.dist.localized import (
    LocalRuntime,
    LocalizedEngine,
    Placement,
)
from repro.net.network import GridNetwork
from repro.streams.tuples import StreamTuple, TupleID


def ref(pred="r", value=1, src=0, ts=1.0):
    return FactRef(pred, (Constant(value),), TupleID(src, ts, 0))


class TestFactRef:
    def test_equality_includes_id(self):
        assert ref() == ref()
        assert ref(ts=2.0) != ref(ts=1.0)

    def test_term_equality(self):
        """1 and 1.0 are one fact, as in the central store: one key."""
        assert ref(value=1) == ref(value=1.0)
        assert {ref(value=1): "held"}[ref(value=1.0)] == "held"
        assert ref(value=1) != ref(value="1")

    def test_size(self):
        assert ref().size() == 3  # 2 + one atomic arg


class TestWireDerivation:
    def test_facts_in_body_order(self):
        """A derivation lists one fact per positive subgoal, in body
        order, as the central record does: the same facts matched by
        swapped subgoals (a self-join) are two derivations."""
        d1 = WireDerivation(0, (ref("r"), ref("s")))
        assert d1 == WireDerivation(0, (ref("r"), ref("s")))
        assert d1 != WireDerivation(0, (ref("s"), ref("r")))
        assert len({d1, WireDerivation(0, (ref("r"), ref("s")))}) == 1
        assert WireDerivation(0, (ref(value=1),)) == WireDerivation(0, (ref(value=1.0),))

    def test_identity_rule_sensitive(self):
        assert WireDerivation(0, (ref(),)) != WireDerivation(1, (ref(),))

    def test_size_two_symbols_per_fact(self):
        d = WireDerivation(0, (ref(), ref("s")))
        assert d.size() == 1 + 4


def test_pickled_refs_find_their_equals():
    """A reference or derivation pickled in a process with another
    string-hash salt (a shard worker, a checkpoint) is still found in a
    dict here: the hash cached there does not travel."""
    seed = int(os.environ.get("PYTHONHASHSEED") or 0) + 1
    script = (
        "import pickle, sys\n"
        "from repro.core.terms import Constant\n"
        "from repro.dist.derived import FactRef, WireDerivation\n"
        "from repro.streams.tuples import TupleID\n"
        "f = FactRef('r', (Constant('abc'),), TupleID(0, 1.0, 0))\n"
        "d = WireDerivation(0, (f, f))\n"
        "hash(f), hash(d)\n"
        "sys.stdout.buffer.write(pickle.dumps((f, d)))\n"
    )
    src = os.path.dirname(os.path.dirname(repro.__file__))
    env = dict(os.environ, PYTHONHASHSEED=str(seed), PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, check=True
    ).stdout
    f, d = pickle.loads(out)
    here = FactRef("r", (Constant("abc"),), TupleID(0, 1.0, 0))
    assert {here: 1}.get(f) == 1
    assert {WireDerivation(0, (here, here)): 1}.get(d) == 1


class TestPartial:
    def test_used_is_positional(self):
        """One slot per positive subgoal: the same fact matched by
        another subgoal is another partial result."""
        p1 = Partial([], 0, (ref(), None), None)
        p2 = Partial([], 0, (ref(), None), None)
        assert p1.used == p2.used
        p3 = Partial([], 0, (None, ref()), None)
        assert p1.used != p3.used
        assert (p1.missing, Partial([], 0, (ref(), ref()), None).missing) == (1, 0)

    def test_size_positive(self):
        assert Partial([], 0, (None,), None).size() == 1
        assert Partial([], 0, (ref(), None), None).size() == 3


class TestMessages:
    def test_store_msg_size(self):
        tup = StreamTuple("r", (1, "a"), TupleID(0, 1.0, 0))
        msg = StoreMsg("ins", tup, [1, 2], None)
        assert msg.payload_symbols == tup.size()

    def test_join_token_refresh_size(self):
        token = JoinToken(
            rule_id=0, op="ins", update_ts=1.0, trigger=ref(),
            trigger_negated=False,
            partials=[Partial([], 0, (ref(),), None)],
            candidates=[], path=[1, 2], exclude_id=None,
        )
        token.refresh_size()
        small = token.payload_symbols
        token.candidates.append(
            Candidate((Constant(1),), WireDerivation(0, (ref(),)), [])
        )
        token.refresh_size()
        assert token.payload_symbols > small

    def test_result_msg_size_includes_derivation(self):
        d = WireDerivation(0, (ref(), ref("s")))
        msg = ResultMsg("j", (Constant(1),), d, "add", 1.0)
        assert msg.payload_symbols == 1 + 1 + d.size()

    def test_local_result_msg_size(self):
        """A k-fact record costs 2k + 1 symbols, as GPA's derivation
        does, and a watched negated atom two; the stamp is unsized."""
        args, atom = (Constant(1),), ("b", (Constant(0), Constant(1)))
        msg = ResultMsg("j", args, RECORD, "add", (0.0, 0, 0), kind="loc_result")
        assert msg.payload_symbols == 1 + 1 + (2 * 2 + 1)
        assert msg.payload_symbols == ResultMsg("j", args, DERIVATION, "add", 1.0).payload_symbols
        msg = ResultMsg("j", args, RECORD, "add", (0.0, 0, 0), (atom, atom), kind="loc_result")
        assert msg.payload_symbols == 1 + 1 + (2 * 2 + 1) + 2 * 2

    def test_replica_msg_size(self):
        """A replica is its fact: the rule -1 derivation naming the fact
        itself and the stamp are unsized."""
        args = (Constant(1), Constant(2))
        msg = ResultMsg("j", args, (-1, fact_ref(("j", args))), "add", (0.0, 0, 0),
                        kind="loc_replica", category="replica")
        assert msg.payload_symbols == 1 + 2

    def test_gather_msg(self):
        msg = GatherMsg("j", (Constant(1), Constant("a")), request_id=3)
        assert msg.kind == "gpa_gather"
        assert msg.payload_symbols == 3


JOIN_DELAY = 0.165


def stamp(op, negated, update_ts=1.0):
    return JoinToken(
        rule_id=0, op=op, update_ts=update_ts, trigger=ref(),
        trigger_negated=negated, partials=[], candidates=[], path=[],
        exclude_id=None,
    ).stamp(JOIN_DELAY)


def test_only_a_deleted_support_is_stamped_ahead():
    assert stamp("ins", False) == stamp("ins", True) == stamp("del", True) == 1.0
    assert stamp("del", False) == 1.0 + JOIN_DELAY


#: What the subtractions of a support deleted at 1.0 are stamped.
DELETED_AT = stamp("del", False)


DERIVATION = WireDerivation(0, (ref("r"), ref("s")))
#: The same derivation as a localized engine holds it: the central record.
RECORD = (0, fact_ref(("r", (Constant(1),))), fact_ref(("s", (Constant(1),))))


def replay_ledger(script):
    """The script applied to a bare ledger, on GPA's derivation."""
    fact = DerivedFact()
    for op, stamp in script:
        fact.apply(op, DERIVATION, stamp)
    return fact


class PlacementNode:
    """The script delivered as ``ResultMsg``s to a localized
    placement node, the derivation (the central record) watching
    ``b(0)``; checks that the fact is visible and watches ``b(0)``
    exactly while it has a live derivation."""

    ARGS = (Constant(0),)
    BLOCKER = ("b", ARGS)

    def __init__(self):
        placements = {p: Placement(0) for p in "qrsb"}
        self.engine = LocalizedEngine(
            "q(X) :- r(X), s(X), not b(X).", GridNetwork(1), placements
        ).install()

    def __call__(self, script):
        engine = self.engine
        runtime = engine.runtimes[0] = LocalRuntime()
        node = engine.network.node(0)
        for op, stamp in script:
            engine._on_result(node, ResultMsg(
                "q", self.ARGS, RECORD, op, stamp, (self.BLOCKER,), kind="loc_result"
            ))
        fact = runtime.placed.get(("q", self.ARGS))
        live = bool(fact.derivations)
        assert fact.visible == live == (self.ARGS in runtime.tables.get("q", {}))
        watching = {atom: list(w) for atom, w in runtime.watches.items() if w}
        key = (("q", self.ARGS), RECORD)
        assert watching == ({self.BLOCKER: [key]} if live else {})
        return fact


class TestDerivedFactLedger:
    """``DerivedFact.apply`` is order-independent: every arrival order
    of one derivation's stamped updates ends in the state timestamp order
    gives — on the method itself, and through a localized placement
    node's result handler."""

    @pytest.fixture(params=["ledger", "placement-node"])
    def replay(self, request):
        """A replay and the derivation it applies the script to."""
        if request.param == "ledger":
            return replay_ledger, DERIVATION
        return PlacementNode(), RECORD

    @staticmethod
    def outcome_of(fact):
        return (
            set(fact.derivations),
            {d: (op, stamp) for d, (op, _d, stamp) in fact.ledger.items()},
        )

    @pytest.mark.parametrize("script, outcome", [
        # A blocker born at b cancels the support's add, stamped before it
        # (or, were it possible, with it: a sub wins the tie).
        ([("add", 0.0), ("sub", 0.3)], ("sub", 0.3)),
        ([("add", 0.3), ("sub", 0.3)], ("sub", 0.3)),
        # Blocker in, out (the re-add carries the deletion time), in again.
        ([("add", 0.0), ("sub", 0.3), ("add", 0.5), ("sub", 0.7)], ("sub", 0.7)),
        # ... or a second blocker that died before the first: the re-add,
        # stamped with the later deletion, survives both.
        ([("add", 0.0), ("sub", 0.3), ("add", 0.9), ("sub", 0.7)], ("add", 0.9)),
        # Fault-tolerant replica sets deliver every result k times.
        ([("add", 0.0), ("sub", 0.3)] * 3, ("sub", 0.3)),
        ([("add", 0.0), ("sub", 0.3), ("add", 0.5)] * 2, ("add", 0.5)),
        # A deleted support (at 1.0): the add that raced its deletion
        # mark is stamped inside join_delay and goes; one stamped past
        # it names a tuple id that never returns, and would stay.
        ([("add", 0.2), ("sub", DELETED_AT), ("add", 1.1)], ("sub", DELETED_AT)),
        ([("add", 0.2), ("sub", DELETED_AT), ("add", 1.2)], ("add", 1.2)),
    ])
    def test_every_arrival_order_ends_in_timestamp_order(self, replay, script, outcome):
        replay, derivation = replay
        expected = (
            {derivation} if outcome[0] == "add" else set(), {derivation: outcome}
        )
        in_order = sorted(script, key=lambda update: (update[1], update[0] == "sub"))
        assert self.outcome_of(replay(in_order)) == expected
        for order in permutations(script):
            assert self.outcome_of(replay(order)) == expected, order

    def test_expire_forgets_tombstones_only(self):
        live, dead = WireDerivation(0, (ref(),)), WireDerivation(1, (ref(),))
        table = DerivedTable()
        fact = table.fact("q", (Constant(0),))
        fact.apply("add", live, 0.1)
        fact.apply("sub", dead, 0.2)
        assert table.expire(0.1) == 0
        assert table.expire(0.2) == 1
        assert set(fact.ledger) == set(fact.derivations) == {live}
        assert table.memory_tuples() == 1

    def test_expire_drops_a_fact_it_leaves_empty(self):
        table = DerivedTable()
        table.fact("q", (Constant(0),)).apply("sub", DERIVATION, 0.2)
        assert table.memory_tuples() == 2 and table.tombstones() == 1
        assert table.expire(0.2) == 2  # the tombstone, then its fact
        assert len(table) == 0 and table.get(("q", (Constant(0),))) is None
