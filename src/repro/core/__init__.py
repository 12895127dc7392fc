"""Core deductive language: terms, rules, parsing, analysis, evaluation."""

from .ast import (
    AggregateSpec,
    Atom,
    BuiltinLiteral,
    Literal,
    Program,
    RelLiteral,
    Rule,
)
from .builtins import BuiltinRegistry, DEFAULT_REGISTRY, eval_term, value_to_term
from .derivations import (
    Derivation,
    DerivationStore,
    FactKey,
    ProofNode,
    build_proof_tree,
    is_locally_nonrecursive,
)
from .errors import (
    BuiltinError,
    EvaluationError,
    NetworkError,
    ParseError,
    PlanError,
    ProgramError,
    ReproError,
    SafetyError,
    StratificationError,
)
from .eval import BottomUpEvaluator, Database, Relation, evaluate
from .explain import explain
from .optimizer import Statistics, optimize_program, optimize_rule
from .parser import parse_atom, parse_program, parse_rule, parse_term
from .safety import check_program_safety, check_rule_safety
from .stratify import (
    Analysis,
    ProgramClass,
    XYStratification,
    classify,
    dependency_graph,
    find_xy_stratification,
    is_recursive,
    recursive_components,
    stratify,
)
from .terms import (
    Constant,
    FunctionTerm,
    NIL,
    Substitution,
    Term,
    Variable,
    is_list_term,
    list_elements,
    make_list,
    term_size,
    to_term,
)
from .unify import match, match_sequences, unify

__all__ = [
    "AggregateSpec", "Atom", "BuiltinLiteral", "Literal", "Program",
    "RelLiteral", "Rule", "BuiltinRegistry", "DEFAULT_REGISTRY",
    "eval_term", "value_to_term", "Derivation", "DerivationStore",
    "FactKey", "ProofNode", "build_proof_tree", "is_locally_nonrecursive",
    "BuiltinError", "EvaluationError", "NetworkError", "ParseError",
    "PlanError", "ProgramError", "ReproError", "SafetyError",
    "StratificationError", "explain",
    "Statistics", "optimize_program",
    "optimize_rule",
    "BottomUpEvaluator", "Database", "Relation", "evaluate", "parse_atom",
    "parse_program", "parse_rule",
    "parse_term", "check_program_safety", "check_rule_safety", "Analysis",
    "ProgramClass", "XYStratification", "classify", "dependency_graph",
    "find_xy_stratification", "is_recursive", "recursive_components",
    "stratify", "Constant", "FunctionTerm", "NIL", "Substitution", "Term",
    "Variable", "is_list_term", "list_elements", "make_list", "term_size",
    "to_term", "match", "match_sequences", "unify",
]
