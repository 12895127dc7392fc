"""Global term interning for columnar fact storage.

The columnar evaluation path (see :mod:`repro.core.vector`) represents
facts as rows of dense integer ids instead of tuples of Term objects.
This module owns the process-wide :class:`Interner` that maps every
distinct ground term to one id, together with the per-id metadata the
numpy join/filter kernels need:

* ``nums`` — the term's numeric payload as a float64 (when numeric);
* ``flags`` — F_NUM (numeric constant), F_INT (integer payload),
  F_SMALL (|value| < 2**25, safe for vectorized ``//``/``mod``),
  F_FN (function term, needs normalization before head emission).

Id equality coincides with term equality: the id table is keyed by the
terms themselves, so ``Constant(2)`` and ``Constant(2.0)`` — equal
terms — share one id, exactly like they collide in the set-based store
the columnar relation replaces.  The numeric metadata of an id is taken
from the *first* term interned for it; since relations also keep the
first-added term instance as the canonical row value, the vectorized
arithmetic sees the same payloads the tuple-at-a-time engine binds.
(Corner case: ``Constant(True) == Constant(1)``, so a bool interned
after the int inherits the numeric flags.  The set-based store conflates
the two identically; programs comparing bools against ints were already
outside the exact-arithmetic contract.)

Thread safety: the hot path is a plain dict hit; misses take a lock so
concurrent tenants (the serving layer) intern each term exactly once.
Ids are append-only for the life of the process — relations, caches and
sort orders may hold them indefinitely.
"""

from __future__ import annotations

import threading
from typing import Dict, List, Optional, Tuple

import numpy as np

from .builtins import BuiltinRegistry, eval_term, value_to_term
from .terms import Constant, FunctionTerm, Term

#: Flag bits (see module docstring).
F_NUM = 1
F_INT = 2
F_FN = 4
F_SMALL = 8

#: Integers above this are not exactly representable as float64, so the
#: vectorized kernels refuse them (the tuple engine's exact Python
#: arithmetic takes over).
MAX_EXACT_INT = 2 ** 53

#: Magnitude bound under which float64 ``//`` and ``mod`` agree with
#: Python integer semantics with room to spare.
SMALL_INT = 2 ** 25


#: Rows of numeric metadata an :class:`Interner` allocates up front
#: (``_grow`` doubles them as ids run past).
INITIAL_CAPACITY = 1024


class Interner:
    """Bidirectional Term <-> dense-id table with numeric metadata."""

    def __init__(self):
        self._ids: Dict[Term, int] = {}
        self._terms: List[Term] = []
        self._nums = np.zeros(INITIAL_CAPACITY, dtype=np.float64)
        self._flags = np.zeros(INITIAL_CAPACITY, dtype=np.uint8)
        #: numeric payload -> id of the first term interned with it;
        #: lets the kernels wrap computed numbers back into ids without
        #: building Constant objects per row.
        self._num_ids: Dict[float, int] = {}
        #: (id, id(registry)) -> id of the normalized term, for function
        #: terms flowing into rule heads.
        self._norm: Dict[Tuple[int, int], int] = {}
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._terms)

    # -- interning -------------------------------------------------------

    def intern(self, term: Term) -> int:
        """Return the id of ``term``, assigning a fresh one on first use."""
        tid = self._ids.get(term)
        if tid is not None:
            return tid
        with self._lock:
            tid = self._ids.get(term)
            if tid is not None:
                return tid
            tid = len(self._terms)
            if tid >= len(self._nums):
                self._grow(tid + 1)
            flags = 0
            num = 0.0
            if isinstance(term, FunctionTerm):
                flags = F_FN
            elif isinstance(term, Constant):
                v = term.value
                if (
                    isinstance(v, (int, float))
                    and not isinstance(v, bool)
                    and v == v  # not NaN
                    and abs(v) <= MAX_EXACT_INT
                ):
                    flags = F_NUM
                    num = float(v)
                    if isinstance(v, int):
                        flags |= F_INT
                    if abs(v) < SMALL_INT:
                        flags |= F_SMALL
                    self._num_ids.setdefault(num, tid)
            self._terms.append(term)
            self._nums[tid] = num
            self._flags[tid] = flags
            self._ids[term] = tid
            return tid

    def get(self, term: Term) -> Optional[int]:
        """The id of ``term`` if it has ever been interned, else None."""
        return self._ids.get(term)

    def term(self, tid: int) -> Term:
        """The canonical (first-interned) term for ``tid``."""
        return self._terms[tid]

    @property
    def terms(self) -> List[Term]:
        """The id -> term list (append-only; safe to index directly)."""
        return self._terms

    def _grow(self, need: int) -> None:
        cap = len(self._nums)
        while cap < need:
            cap *= 2
        nums = np.zeros(cap, dtype=np.float64)
        nums[: len(self._terms)] = self._nums[: len(self._terms)]
        flags = np.zeros(cap, dtype=np.uint8)
        flags[: len(self._terms)] = self._flags[: len(self._terms)]
        # Old arrays stay valid for concurrent readers; swap atomically.
        self._nums = nums
        self._flags = flags

    # -- bulk kernels ----------------------------------------------------

    def flags_of(self, ids: np.ndarray) -> np.ndarray:
        """Flag bytes for an id array (a gathered copy)."""
        return self._flags[ids]

    def nums_of(self, ids: np.ndarray) -> np.ndarray:
        """Numeric payloads for an id array (a gathered copy)."""
        return self._nums[ids]

    def intern_numeric(self, values, is_int: bool, n: int) -> np.ndarray:
        """Ids for a batch of computed numeric values.

        ``values`` is a float64 array of length ``n`` or a Python
        scalar; ``is_int`` says the whole batch carries integer-typed
        results (the kernels track int-ness per expression, mirroring
        Python's int/float propagation).
        """
        if not isinstance(values, np.ndarray):
            tid = self._intern_value(float(values), is_int)
            return np.full(n, tid, dtype=np.int64)
        uniq, inverse = np.unique(values, return_inverse=True)
        ids = np.empty(len(uniq), dtype=np.int64)
        for j, v in enumerate(uniq.tolist()):
            ids[j] = self._intern_value(v, is_int)
        return ids[inverse]

    def _intern_value(self, v: float, is_int: bool) -> int:
        tid = self._num_ids.get(v)
        if tid is not None:
            return tid
        return self.intern(Constant(int(v) if is_int else v))

    def normalize_ids(self, ids: np.ndarray, registry: BuiltinRegistry) -> np.ndarray:
        """Map function-term ids to the ids of their normalized forms.

        Mirrors what :func:`repro.core.eval.ground_head` does per row —
        ``value_to_term(eval_term(t, registry))`` — but computed once per
        distinct id and cached per registry identity.  Ids without the
        F_FN flag map to themselves.
        """
        uniq = np.unique(ids)
        fn_mask = (self._flags[uniq] & F_FN) != 0
        if not fn_mask.any():
            return ids
        rkey = id(registry)
        mapped = uniq.copy()
        changed = False
        for j in np.nonzero(fn_mask)[0].tolist():
            tid = int(uniq[j])
            nid = self._norm.get((tid, rkey))
            if nid is None:
                nid = self.intern(value_to_term(eval_term(self._terms[tid], registry)))
                self._norm[(tid, rkey)] = nid
            if nid != tid:
                mapped[j] = nid
                changed = True
        if not changed:
            return ids
        return mapped[np.searchsorted(uniq, ids)]


#: The process-wide interner every relation and kernel shares.
GLOBAL_INTERNER = Interner()
