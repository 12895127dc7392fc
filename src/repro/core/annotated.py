"""Annotated (probabilistic) deduction over uncertain facts.

Section II-B's *Extensions* paragraph singles out Probabilistic LP [35]
and Annotated Predicate Logic [29] as specialized logics "useful in the
context of sensor networks ... for reasoning with uncertain
information".  This module provides that extension: every fact carries a
confidence annotation in (0, 1]; a rule derivation's confidence combines
its body confidences with a T-norm, and alternative derivations of the
same fact combine with a T-conorm:

* conjunction (within a derivation): ``product`` (independent evidence)
  or ``min`` (fuzzy/possibilistic);
* disjunction (across derivations): ``max`` (best evidence) or
  ``noisy-or`` (independent corroboration).

Which facts hold does not depend on confidences: the annotated facts
are loaded into a :class:`~repro.core.eval.Database` and the program
runs once on :class:`~repro.core.eval.BottomUpEvaluator`, whose
derivation store records every derivation of every derived fact.
Confidences are then folded over that store, stratum by stratum, as a
monotone fixpoint on the confidence lattice; recursive programs converge
because confidences are bounded by 1 and updates are ignored below
``_TOLERANCE``.  Negated subgoals use certainty semantics: ``not
p(...)`` holds (with factor 1) when no ``p`` fact matches, as in every
other evaluation — stratification is still required.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional, Tuple

from .ast import Program
from .builtins import BuiltinRegistry, DEFAULT_REGISTRY
from .errors import EvaluationError, ProgramError
from .eval import ArgsTuple, BottomUpEvaluator, Database
from .safety import check_program_safety
from .stratify import classify
from .terms import to_term

FactConf = Dict[Tuple[str, ArgsTuple], float]

#: Confidence changes at or below this are not updates; a stratum that
#: still changes after ``_MAX_ROUNDS`` rounds is an error.
_TOLERANCE = 1e-6
_MAX_ROUNDS = 10_000


def _conj_product(values: Iterable[float]) -> float:
    out = 1.0
    for v in values:
        out *= v
    return out


def _conj_min(values: Iterable[float]) -> float:
    return min(values, default=1.0)


def _disj_max(old: float, new: float) -> float:
    return max(old, new)


def _disj_noisy_or(old: float, new: float) -> float:
    return 1.0 - (1.0 - old) * (1.0 - new)


_CONJ = {"product": _conj_product, "min": _conj_min}
_DISJ = {"max": _disj_max, "noisy-or": _disj_noisy_or}


class AnnotatedDatabase:
    """Facts with confidence annotations."""

    def __init__(self):
        self._conf: FactConf = {}
        self._by_pred: Dict[str, List[ArgsTuple]] = {}

    def assert_fact(self, predicate: str, args: Iterable, confidence: float = 1.0) -> None:
        if not 0.0 < confidence <= 1.0:
            raise EvaluationError(f"confidence {confidence} outside (0, 1]")
        key = (predicate, tuple(to_term(a) for a in args))
        previous = self._conf.get(key)
        if previous is None:
            self._by_pred.setdefault(predicate, []).append(key[1])
            self._conf[key] = confidence
        else:
            self._conf[key] = max(previous, confidence)

    def confidence(self, predicate: str, args: Iterable) -> float:
        key = (predicate, tuple(to_term(a) for a in args))
        return self._conf.get(key, 0.0)

    def rows(self, predicate: str) -> Dict[tuple, float]:
        """Value tuples with their confidence."""
        from .builtins import eval_term
        from .eval import _freeze_value

        out = {}
        for args in self._by_pred.get(predicate, ()):
            out[tuple(_freeze_value(eval_term(a)) for a in args)] = self._conf[
                (predicate, args)
            ]
        return out

    def _set(self, predicate: str, args: ArgsTuple, confidence: float) -> None:
        key = (predicate, args)
        if key not in self._conf:
            self._by_pred.setdefault(predicate, []).append(args)
        self._conf[key] = confidence


class AnnotatedEvaluator:
    """Bottom-up fixpoint evaluation with confidence annotations."""

    def __init__(
        self,
        program: Program,
        registry: Optional[BuiltinRegistry] = None,
        conjunction: str = "product",
        disjunction: str = "max",
    ):
        check_program_safety(program)
        for rule in program.rules:
            if rule.has_aggregates:
                raise ProgramError("annotated evaluation does not support aggregates")
        if conjunction not in _CONJ:
            raise ProgramError(f"unknown conjunction {conjunction!r}")
        if disjunction not in _DISJ:
            raise ProgramError(f"unknown disjunction {disjunction!r}")
        analysis = classify(program)
        if analysis.strata is None:
            raise ProgramError(
                "annotated evaluation requires a stratified program"
            )
        self.program = program
        self.registry = registry or DEFAULT_REGISTRY
        self.conj = _CONJ[conjunction]
        self.disj = _DISJ[disjunction]
        self.strata = analysis.strata

    def evaluate(self, db: AnnotatedDatabase) -> AnnotatedDatabase:
        for fact in self.program.facts:
            db.assert_fact(fact.predicate, fact.args, 1.0)
        # Externally asserted confidences: the base every round folds onto
        # (derivations are recombined from scratch each round so that
        # non-idempotent disjunctions like noisy-or count each distinct
        # derivation exactly once).
        base: FactConf = dict(db._conf)
        central = Database()
        for pred, args in base:
            central.assert_fact(pred, args)
        BottomUpEvaluator(self.program, self.registry).evaluate(central)
        store = central.derivations.snapshot()
        conf = db._conf
        for stratum in self.strata:
            # Derivations in a fixed order: a float fold is not associative.
            derived = [
                (key, [d.body_facts for d in sorted(derivations, key=repr)])
                for key, derivations in store.items() if key[0] in stratum
            ]
            for _round in range(_MAX_ROUNDS):
                # Jacobi rounds: every fact folds the confidences the
                # round started with; a body fact not reached yet is 0.
                changed = []
                for key, bodies in derived:
                    value = base.get(key, 0.0)
                    for body in bodies:
                        support = self.conj(conf.get(f, 0.0) for f in body)
                        if support > 0.0:
                            value = self.disj(value, support)
                    if abs(value - conf.get(key, 0.0)) > _TOLERANCE and value > 0.0:
                        changed.append((key, value))
                for (pred, args), value in changed:
                    db._set(pred, args, value)
                if not changed:
                    break
            else:
                raise EvaluationError(
                    f"annotated fixpoint did not converge in {_MAX_ROUNDS} rounds"
                )
        return db


def annotated_evaluate(
    program: Program,
    db: Optional[AnnotatedDatabase] = None,
    **kwargs,
) -> AnnotatedDatabase:
    """Convenience wrapper: evaluate ``program`` over annotated facts."""
    if db is None:
        db = AnnotatedDatabase()
    return AnnotatedEvaluator(program, **kwargs).evaluate(db)
