"""Filing against the eager reference store.

The central fixpoint files each rule call (``DerivationStore.file``):
its head rows and, for a vector batch, the row arrays of its positive
subgoals.  The store records the filed calls when it is first read or
written otherwise.  Here one program and one update script run twice in
lockstep: once as the code runs, and once eagerly — every vector
batch's records built as it is emitted, before the XY stage filter
(``FiringBatch.restrict``) sees it, and every call recorded into
:class:`ReferenceStore` (``test_store_differential``) as it is absorbed.

After ``evaluate()`` a script interleaves store reads with
``IncrementalEvaluator`` inserts and deletes; any of them may be the
first to touch the filed calls.  At every read the store must answer as
the reference does and hold the same facts and derivations, in the
reference's order: filing order, then the maintainers' own.

The programs are the join grammar of ``test_gpa_join_plans.cases``, the
XY grammar of ``test_xy_stages.staged_programs`` and the aggregate
programs of ``test_incremental``, whose fold records through
``add_batch`` in the middle of the fixpoint.
"""

from contextlib import contextmanager

import networkx as nx
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core import vector as core_vector
from repro.core.derivations import Derivation, fact_ref, spell_record
from repro.core.eval import Database, evaluate
from repro.core.incremental import IncrementalEvaluator
from repro.core.parser import parse_program
from repro.core.terms import to_term

from tests.dist.test_gpa_join_plans import ARITY, cases, facts as join_facts
from .test_incremental import AGGREGATES, AGGREGATE_FACTS
from .test_store_differential import ReferenceStore, brute_supporters
from .test_xy_stages import nodes, staged_programs, stages


def _derivation(record):
    return Derivation(*spell_record(record))


def _fact(ref):
    return spell_record((0, ref))[1][0]


class EagerStore(ReferenceStore):
    """:class:`ReferenceStore` as a database's store: each call recorded,
    a ``Derivation`` per firing, the moment it is filed or added."""

    def file(self, rel, rows, batch):
        heads = [(rel.name, rel.terms_rows[row]) for row in rows]
        for i, record in zip(batch.index.tolist(), batch.records):
            self.add(heads[i], _derivation(record))

    def add_batch(self, head_refs, batch):
        return [head_refs[i] for i, record in zip(batch.index.tolist(), batch.records)
                if self.add(_fact(head_refs[i]), _derivation(record))]


@contextmanager
def eager_records():
    """Vector batches with their records built at emission and no row
    arrays: the stage filter and the store see records only."""
    emit = core_vector._emit

    def eager(*args):
        batch = emit(*args)
        batch.records  # built now, from the unfiltered row arrays
        batch.body = None
        return batch

    core_vector._emit = eager
    try:
        yield
    finally:
        core_vector._emit = emit


def attempt(call, eager):
    """``call()``'s outcome: what it returned, or the type it raised."""
    try:
        if eager:
            with eager_records():
                return call()
        return call()
    except Exception as exc:  # both runs must raise alike
        return type(exc)


def in_ref_order(remove_support):
    """``remove_support`` handing back the emptied facts sorted by ref,
    the order the production store states.  The reference store walks a
    set there, and the order a deletion cascade takes changes the order
    the store records in, so both runs cascade in one order."""
    return lambda removed: sorted(remove_support(removed), key=fact_ref)


def acyclic(snapshot):
    graph = nx.DiGraph()
    graph.add_nodes_from(snapshot)
    graph.add_edges_from((head, body) for head, derivations in snapshot.items()
                         for d in derivations for body in d.body_facts)
    return nx.is_directed_acyclic_graph(graph)


READS = ("len", "facts", "snapshot", "derivations_of", "has_fact", "supporters", "verify")


def read(kind, store, maintainer, fact):
    """``kind`` read off ``store`` (``maintainer`` its maintainer)."""
    if kind == "len":
        return len(store)
    if kind == "facts":
        return list(store.facts())
    if kind == "snapshot":
        return store.snapshot()
    if kind == "verify":
        return maintainer.verify_locally_nonrecursive()
    return getattr(store, kind)(fact)


def expected(kind, reference, fact):
    """What ``kind`` must read, from the reference store."""
    snapshot = reference.snapshot()
    if kind == "facts":
        return list(snapshot)
    if kind == "verify":
        return acyclic(snapshot)
    if kind == "supporters":
        return brute_supporters(snapshot, fact)
    return read(kind, reference, None, fact)


def run_lockstep(data, program_text, base, updates):
    """Evaluate ``program_text`` over ``base`` in both runs, then play a
    drawn script of reads and of updates drawn from ``updates``."""
    program = parse_program(program_text)
    dbs = [Database(), Database()]
    dbs[1].derivations = EagerStore()
    for db in dbs:
        for pred, args in base:
            db.assert_fact(pred, args)
    outcomes = [attempt(lambda db=db: evaluate(program, db), eager)
                for eager, db in enumerate(dbs)]
    if isinstance(outcomes[0], type):
        assert outcomes[1] is outcomes[0]
        return
    assert not isinstance(outcomes[1], type), outcomes[1]
    runs = [IncrementalEvaluator(program, db=db) for db in dbs]
    store, reference = dbs[0].derivations, dbs[1].derivations
    for each in (store, reference):
        each.remove_support = in_ref_order(each.remove_support)
    ops = st.one_of(
        st.tuples(st.sampled_from(READS), st.just(None)),
        st.tuples(st.sampled_from(["insert", "delete"]), updates),
    )
    for kind, update in data.draw(st.lists(ops, max_size=8), label="script"):
        if update is not None:
            outcomes = [attempt(lambda run=run: getattr(run, kind)(*update), eager)
                        for eager, run in enumerate(runs)]
            assert outcomes[0] == outcomes[1], (kind, update)
            if outcomes[0] is not None:
                return  # an update raised alike in both: the script ends
            continue
        # A derived fact, a base one or, with neither, one nothing stores.
        candidates = sorted(set(reference.snapshot()) | {
            (pred, tuple(map(to_term, args))) for pred, args in base}, key=repr)
        fact = (data.draw(st.sampled_from(candidates), label="fact") if candidates
                else ("nothing", ()))
        got, want = read(kind, store, runs[0], fact), expected(kind, reference, fact)
        assert got == want, (kind, fact)
        assert store.snapshot() == reference.snapshot()
        assert list(store.facts()) == list(reference.snapshot())
    assert store.snapshot() == reference.snapshot()
    assert list(store.facts()) == list(reference.snapshot())


SETTINGS = dict(deadline=None, suppress_health_check=[
    HealthCheck.too_slow, HealthCheck.data_too_large, HealthCheck.filter_too_much,
])


@settings(max_examples=80, **SETTINGS)
@given(data=st.data(), case=cases())
def test_join_programs_file_as_they_fired(data, case):
    program, steps = case
    base = [(pred, args) for _gap, _node, pred, args, _retract in steps]
    updates = st.sampled_from(sorted(ARITY)).flatmap(
        lambda pred: st.tuples(st.just(pred), join_facts(pred)))
    run_lockstep(data, program, base, updates)


@settings(max_examples=60, **SETTINGS)
@given(data=st.data(), case=staged_programs())
def test_xy_programs_file_as_they_fired(data, case):
    program, base = case
    updates = st.one_of(
        st.sampled_from(base),
        st.tuples(st.just("e"), st.tuples(nodes, nodes)),
        st.tuples(st.just("start"), st.tuples(nodes, stages)),
    )
    run_lockstep(data, program, base, updates)


@pytest.mark.parametrize("name", sorted(AGGREGATES))
@settings(max_examples=25, **SETTINGS)
@given(data=st.data(), base=st.lists(AGGREGATE_FACTS, max_size=8))
def test_aggregate_programs_file_as_they_fired(name, data, base):
    run_lockstep(data, AGGREGATES[name], base, AGGREGATE_FACTS)
