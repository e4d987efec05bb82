"""Backend-neutral first-argument clause indexing.

The DEC-10 compiler's "close indexing method" (paper §3.1) dispatches a
call on the *principal functor of the first argument* so clauses whose
heads cannot possibly unify are never tried.  The WAM baseline already
compiles a ``switch_on_term`` dispatch; the PSI interpreter historically
tried clauses strictly in source order.  This module is the shared
analysis both backends consume:

* :func:`first_arg_descriptor` classifies a clause head's first argument
  into the four-way taxonomy ``var / const / list / struct`` with a
  backend-neutral key (Python ``int`` for integers, the atom *name* for
  atoms — ``"[]"`` for nil on both engines — and ``(name, arity)`` for
  structures).
* :class:`ClauseIndex` holds the per-predicate dispatch structure: hash
  buckets on constants and functor/arity, a list-cell chain, and the
  var-clause chain, supporting O(1) incremental ``add_clause`` (the
  ``assert`` path) and in-place ``remove_clause`` (the ``retract``
  path) — no full recompilation of the predicate.

Supersequence guarantee
-----------------------

``select(kind, key)`` returns clause ids **in source order**, and the
returned sequence is always a *subsequence* of source order that
contains every clause the call could unify with (equivalently: source
order is a supersequence of the selection, and the clauses dropped are
exactly ones whose first argument is a non-var term with a different
principal functor).  Therefore running the selected clauses in the
returned order produces the same answer sequence as running all clauses
in source order — first-argument indexing is solution-preserving, not
just solution-set-preserving.  The invariant is maintained eagerly:

* every bucket list is kept sorted by clause id (ids are assigned in
  source order and renumbered downward on removal, so id order *is*
  source order);
* a var-headed clause is appended to *every* bucket (and to the default
  var chain new buckets are seeded from), because an unbound or any
  concrete first argument can unify with it.

``tests/engine/test_index.py`` checks the guarantee property-style
against a brute-force oracle.
"""

from __future__ import annotations

from repro.prolog.terms import Atom, Struct, Term, Var, is_cons

#: First-argument taxonomy (both engines' clause indexing uses it).
KIND_VAR = "var"
KIND_CONST = "const"
KIND_LIST = "list"
KIND_STRUCT = "struct"


def first_arg_descriptor(head: Term) -> tuple[str, object]:
    """Classify ``head``'s first argument for indexing.

    Returns ``(kind, key)`` where ``kind`` is one of the ``KIND_*``
    constants and ``key`` is the backend-neutral dispatch key —
    ``None`` for var/list, the integer value or atom name for
    constants (nil is the name ``"[]"``), ``(functor, arity)`` for
    structures.  A head that is not a structure (an atom: arity-0
    predicate) indexes as var: there is no argument to dispatch on.
    """
    if not isinstance(head, Struct):
        return KIND_VAR, None
    arg = head.args[0]
    if isinstance(arg, Var):
        return KIND_VAR, None
    if isinstance(arg, int):
        return KIND_CONST, arg
    if isinstance(arg, Atom):
        return KIND_CONST, arg.name
    if is_cons(arg):
        return KIND_LIST, None
    assert isinstance(arg, Struct)
    return KIND_STRUCT, (arg.functor, arg.arity)


class ClauseIndex:
    """First-argument dispatch structure for one predicate.

    Clause ids are dense ``0..n-1`` positions into the owner's clause
    list, in source order.  The index is *eagerly merged*: each const
    and struct bucket already interleaves the var-headed clauses at
    their source positions, so ``select`` is a single dict probe with
    no merge step on the call path.
    """

    __slots__ = ("kinds", "keys", "var_ids", "list_ids",
                 "const_buckets", "struct_buckets")

    def __init__(self) -> None:
        #: Per-clause classification, position-aligned with the owner's
        #: clause list.
        self.kinds: list[str] = []
        self.keys: list[object] = []
        #: Clauses whose first argument is a variable (match anything).
        self.var_ids: list[int] = []
        #: Var clauses ∪ list-cell clauses, merged in source order.
        self.list_ids: list[int] = []
        #: key -> var clauses ∪ same-key clauses, merged in source order.
        self.const_buckets: dict[object, list[int]] = {}
        #: (functor, arity) -> same, for structure first arguments.
        self.struct_buckets: dict[tuple, list[int]] = {}

    def __len__(self) -> int:
        return len(self.kinds)

    # -- building / maintenance -------------------------------------------

    def add_clause(self, kind: str, key: object) -> int:
        """Append a clause with the given descriptor; return its id.

        Ids are appended in increasing order, so every bucket list
        stays sorted by construction — this is what makes ``select``
        order-preserving without ever sorting.
        """
        cid = len(self.kinds)
        self.kinds.append(kind)
        self.keys.append(key)
        if kind == KIND_VAR:
            # A var head can unify with any caller argument: it belongs
            # to every chain, current and future (new buckets are
            # seeded from var_ids below).
            self.var_ids.append(cid)
            self.list_ids.append(cid)
            for bucket in self.const_buckets.values():
                bucket.append(cid)
            for bucket in self.struct_buckets.values():
                bucket.append(cid)
        elif kind == KIND_CONST:
            bucket = self.const_buckets.get(key)
            if bucket is None:
                self.const_buckets[key] = bucket = list(self.var_ids)
            bucket.append(cid)
        elif kind == KIND_LIST:
            self.list_ids.append(cid)
        else:
            assert kind == KIND_STRUCT
            bucket = self.struct_buckets.get(key)
            if bucket is None:
                self.struct_buckets[key] = bucket = list(self.var_ids)
            bucket.append(cid)
        return cid

    def remove_clause(self, cid: int) -> None:
        """Remove clause ``cid`` and renumber higher ids down by one.

        Callers pop position ``cid`` from their own clause list in the
        same operation, keeping ids position-aligned.  The patch is in
        place — no bucket is rebuilt, only filtered and shifted.
        """
        self.kinds.pop(cid)
        self.keys.pop(cid)
        self.var_ids = _drop_and_shift(self.var_ids, cid)
        self.list_ids = _drop_and_shift(self.list_ids, cid)
        for key, bucket in list(self.const_buckets.items()):
            patched = _drop_and_shift(bucket, cid)
            if patched:
                self.const_buckets[key] = patched
            else:
                del self.const_buckets[key]
        for key, bucket in list(self.struct_buckets.items()):
            patched = _drop_and_shift(bucket, cid)
            if patched:
                self.struct_buckets[key] = patched
            else:
                del self.struct_buckets[key]

    # -- call-path selection ----------------------------------------------

    def select(self, kind: str, key: object) -> list[int]:
        """Candidate clause ids for a call whose (dereferenced) first
        argument has the given descriptor, in source order.

        ``kind == KIND_VAR`` means the caller's argument is unbound:
        every clause is a candidate.  A const/struct key with no bucket
        falls back to the var chain (only var-headed clauses can match
        an unknown constant).
        """
        if kind == KIND_VAR:
            return list(range(len(self.kinds)))
        if kind == KIND_CONST:
            bucket = self.const_buckets.get(key)
            return bucket if bucket is not None else self.var_ids
        if kind == KIND_LIST:
            return self.list_ids
        assert kind == KIND_STRUCT
        bucket = self.struct_buckets.get(key)
        return bucket if bucket is not None else self.var_ids

    def selects_exactly(self, kind: str, key: object) -> bool:
        """True when ``select`` would hit a dedicated chain (an index
        *hit*); False for the unbound-argument full scan."""
        return kind != KIND_VAR

    # -- verification helpers ---------------------------------------------

    def reference_select(self, kind: str, key: object) -> list[int]:
        """Brute-force oracle for ``select``: linear scan of the clause
        descriptors applying the unification-possibility rule directly.
        Used by tests to check the supersequence guarantee."""
        out = []
        for cid, (ckind, ckey) in enumerate(zip(self.kinds, self.keys)):
            if ckind == KIND_VAR or kind == KIND_VAR:
                out.append(cid)
            elif ckind == kind and ckey == key:
                out.append(cid)
        return out


def _drop_and_shift(ids: list[int], cid: int) -> list[int]:
    """Copy ``ids`` without ``cid``, decrementing every id above it."""
    return [i - 1 if i > cid else i for i in ids if i != cid]


def build_index(descriptors) -> ClauseIndex:
    """Build a :class:`ClauseIndex` from an iterable of ``(kind, key)``
    descriptors in source order (one per clause)."""
    index = ClauseIndex()
    for kind, key in descriptors:
        index.add_clause(kind, key)
    return index
