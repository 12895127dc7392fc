"""Property-based tests: generated programs survive a repr/parse
round trip, and evaluation is insensitive to it."""

from hypothesis import given, settings, strategies as st

from repro.core.eval import Database, evaluate
from repro.core.parser import parse_program, parse_term
from repro.core.terms import Constant, spell_value

predicates = st.sampled_from(["p", "q", "r", "s"])
variables = st.sampled_from(["X", "Y", "Z"])
#: Constants as program text.  A string that would not lex back as one
#: symbol (a variable name, a number, a keyword, several tokens, empty)
#: is quoted; one holding ``"`` or a newline has no spelling at all (the
#: lexer has no escapes) and is left out.
strings = st.one_of(
    st.sampled_from(["a", "b", "c", "enemy"]),
    st.sampled_from(["Abc", "two words", "3", "", "not", "NOT", "mod", "_x", "a-b"]),
    st.text(st.characters(blacklist_characters='"\n', blacklist_categories=("Cs",)),
            max_size=4),
).map(lambda s: f'"{s}"')
#: Bools and floats whose repr has an exponent, as ``spell_value``
#: spells them (``True`` as ``1``, ``1e-05`` as ``0.00001``).
exponent_floats = st.one_of(
    st.floats(min_value=1e16, allow_infinity=False),
    st.floats(min_value=0.0, max_value=1e-5, exclude_min=True),
).flatmap(lambda x: st.sampled_from([x, -x]))
numbers = st.one_of(st.booleans(), exponent_floats)
scalars = st.one_of(st.integers(-5, 5).map(repr), numbers.map(spell_value), strings)
constants = st.recursive(
    scalars,
    lambda items: st.lists(items, min_size=2, max_size=3).map(
        lambda parts: f"({', '.join(parts)})"
    ),
    max_leaves=4,
)


@st.composite
def atoms(draw, arity_range=(1, 3), allow_vars=True):
    pred = draw(predicates)
    arity = draw(st.integers(*arity_range))
    args = []
    for _ in range(arity):
        if allow_vars and draw(st.booleans()):
            args.append(draw(variables))
        else:
            args.append(draw(constants))
    return f"{pred}{arity}({', '.join(args)})"


@st.composite
def safe_rules(draw):
    """A rule whose head variables all occur in the (single) positive
    body atom — safe by construction."""
    body_pred = draw(predicates)
    body_vars = ["X", "Y"]
    head_pred = draw(predicates)
    head_args = draw(
        st.lists(st.sampled_from(body_vars), min_size=1, max_size=2)
    )
    negated = draw(st.booleans())
    body = f"{body_pred}b(X, Y)"
    if negated:
        body += f", not {draw(predicates)}n({draw(st.sampled_from(body_vars))})"
    # Encode the arity in the head name so independently drawn rules
    # never give one predicate two arities.
    head = f"{head_pred}h{len(head_args)}"
    return f"{head}({', '.join(head_args)}) :- {body}."


@st.composite
def aggregate_rules(draw):
    """A safe rule with a head aggregate over ``Y`` (or ``count(_)``),
    grouped by ``X`` or by nothing."""
    function = draw(st.sampled_from(["count", "sum", "min", "max"]))
    var = "_" if function == "count" and draw(st.booleans()) else "Y"
    args = ["X"] * draw(st.integers(0, 1)) + [f"{function}({var})"]
    head = f"{draw(predicates)}{function}{len(args)}"
    return f"{head}({', '.join(args)}) :- {draw(predicates)}b(X, Y)."


@settings(max_examples=60, deadline=None)
@given(
    st.lists(safe_rules(), min_size=1, max_size=5),
    st.lists(atoms(allow_vars=False), max_size=4),
)
def test_repr_parse_roundtrip(rule_texts, facts):
    program = parse_program("\n".join(rule_texts + [f"{fact}." for fact in facts]))
    reparsed = parse_program(repr(program))
    assert reparsed.rules == program.rules
    assert reparsed.facts == program.facts


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.one_of(safe_rules(), aggregate_rules()), min_size=1, max_size=4),
    st.lists(
        st.tuples(predicates, st.integers(-3, 3), st.integers(-3, 3)),
        max_size=8,
    ),
)
def test_roundtrip_preserves_semantics(rule_texts, facts):
    program = parse_program("\n".join(rule_texts))
    reparsed = parse_program(repr(program))

    def run(prog):
        db = Database()
        for pred, a, b in facts:
            db.assert_fact(f"{pred}b", (a, b))
        evaluate(prog, db)
        return {p: db.rows(p) for p in db.predicates()}

    assert run(program) == run(reparsed)


@settings(max_examples=200, deadline=None)
@given(st.one_of(numbers, st.integers(), st.floats(allow_nan=False, allow_infinity=False)))
def test_number_constant_repr_parses_back(value):
    """A bool or finite float constant's repr parses back to an equal
    constant (``inf`` and ``nan`` have no spelling)."""
    assert parse_term(repr(Constant(value))) == Constant(value)
