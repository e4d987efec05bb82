"""Prolog front end: terms, tokenizer, reader and writer.

This package is the shared source-language layer.  Both execution
engines (the PSI interpreter in :mod:`repro.core` and the DEC-10-style
compiled baseline in :mod:`repro.baseline`) consume the term AST
produced here.
"""

from repro.prolog.reader import Reader, parse_program, parse_term
from repro.prolog.terms import (
    NIL,
    Atom,
    Struct,
    Term,
    Var,
    clause_parts,
    cons,
    flatten_conjunction,
    is_cons,
    is_nil,
    list_elements,
    make_list,
    term_variables,
)
from repro.prolog.writer import term_to_string

__all__ = [
    "Atom", "Var", "Struct", "Term", "NIL",
    "cons", "make_list", "is_cons", "is_nil", "list_elements",
    "term_variables", "clause_parts", "flatten_conjunction",
    "Reader", "parse_term", "parse_program",
    "term_to_string",
]
