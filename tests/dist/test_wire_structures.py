"""Unit tests for the GPA wire structures (Fig. 1/3's data items)."""

import pytest

from repro.core.terms import Constant
from repro.dist.gpa import (
    Candidate,
    FactRef,
    GatherMsg,
    JoinToken,
    Partial,
    ResultMsg,
    StoreMsg,
    WireDerivation,
)
from repro.streams.tuples import StreamTuple, TupleID


def ref(pred="r", value=1, src=0, ts=1.0):
    return FactRef(pred, (Constant(value),), TupleID(src, ts, 0))


class TestFactRef:
    def test_equality_includes_id(self):
        assert ref() == ref()
        assert ref(ts=2.0) != ref(ts=1.0)

    def test_key_excludes_id(self):
        assert ref(ts=1.0).key() == ref(ts=2.0).key()

    def test_size(self):
        assert ref().size() == 3  # 2 + one atomic arg


class TestWireDerivation:
    def test_identity_order_insensitive(self):
        d1 = WireDerivation(0, (ref("r"), ref("s")))
        d2 = WireDerivation(0, (ref("s"), ref("r")))
        assert d1.identity() == d2.identity()

    def test_identity_rule_sensitive(self):
        assert (
            WireDerivation(0, (ref(),)).identity()
            != WireDerivation(1, (ref(),)).identity()
        )

    def test_size_two_symbols_per_fact(self):
        d = WireDerivation(0, (ref(), ref("s")))
        assert d.size() == 1 + 4


class TestPartial:
    def test_dedup_key_covers_and_ids(self):
        p1 = Partial([], 0, (ref(),), frozenset([0]))
        p2 = Partial([], 0, (ref(),), frozenset([0]))
        assert p1.dedup_key() == p2.dedup_key()
        p3 = Partial([], 0, (ref(),), frozenset([1]))
        assert p1.dedup_key() != p3.dedup_key()

    def test_size_positive(self):
        assert Partial([], 0, (), frozenset()).size() == 1
        assert Partial([], 0, (ref(),), frozenset([0])).size() == 3


class TestMessages:
    def test_store_msg_size(self):
        tup = StreamTuple("r", (1, "a"), TupleID(0, 1.0, 0))
        msg = StoreMsg("ins", tup, [1, 2], None)
        assert msg.payload_symbols == tup.size()

    def test_join_token_refresh_size(self):
        token = JoinToken(
            rule_id=0, op="ins", update_ts=1.0, trigger=ref(),
            trigger_negated=False,
            partials=[Partial([], 0, (ref(),), frozenset([0]))],
            candidates=[], path=[1, 2], exclude_id=None,
        )
        token.refresh_size()
        small = token.payload_symbols
        token.candidates.append(
            Candidate((Constant(1),), WireDerivation(0, (ref(),)), [], "add")
        )
        token.refresh_size()
        assert token.payload_symbols > small

    def test_result_msg_size_includes_derivation(self):
        d = WireDerivation(0, (ref(), ref("s")))
        msg = ResultMsg("j", (Constant(1),), d, "add", 1.0)
        assert msg.payload_symbols == 1 + 1 + d.size()

    def test_gather_msg(self):
        msg = GatherMsg("j", (Constant(1), Constant("a")), request_id=3)
        assert msg.kind == "gpa_gather"
        assert msg.payload_symbols == 3
