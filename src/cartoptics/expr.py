"""Textual morphism expressions.

Grammar (`;` composes left to right and binds looser than `*`):

    expr   := ten (';' ten)*
    ten    := atom ('*' atom)*
    atom   := 'graph' '(' expr ')'
            | ('copy'|'del'|'id') '[' obj? ']'
            | ('swap'|'pi1'|'pi2') '[' obj ',' obj ']'
            | NAME
            | '(' expr ')'
    obj    := NAME+            -- whitespace-separated sort names
    NAME   := [A-Za-z_]\\w*      -- for a generator, none of copy del id swap pi1 pi2 graph

A bare NAME is a generator of the signature.  Empty brackets denote the unit
object.
"""

from __future__ import annotations

import re

from .signature import NAME, Obj, Signature, SignatureError
from .term import WORDS, Copy, Delete, Gen, Id, Term, graph

# One token per match, as (text, position, kind), the kind being the group
# that matched: a name; the '[' of a whole bracket of sort names and commas,
# which the match skips to its ']' (names in it end at a space or comma, so
# one that is not closed is given up in linear time); a mark; or any other
# character, which is an error.
_N = NAME.pattern
_SCAN = re.compile(rf"\s*(?:({_N})|(\[)[\s,]*(?:{_N}(?:[\s,]+{_N})*[\s,]*)?\]|([;*()\[\],])|(\S))")
_WORD, _OBJS, _MARK, _BAD, _END = 1, 2, 3, 4, 5
# The structure maps by word, with how many objects each takes in brackets.
_MAPS = {word: (make, 1 if make in (Copy, Delete, Id) else 2) for make, word in WORDS.items()}


class ExprError(ValueError):
    """Parse error with a character position."""

    def __init__(self, message: str, pos: int):
        super().__init__(f"at position {pos}: {message}")
        self.pos = pos


def _tokens(src: str, start: int = 0):
    return ((m[k := m.lastindex], m.start(k), k) for m in _SCAN.finditer(src, start))


def _scan(src: str) -> list[tuple[str, int, int]]:
    """The tokens of src, ending with an end token at len(src)."""
    toks = list(_tokens(src))
    for text, pos, kind in toks:
        if kind == _BAD:
            raise ExprError(f"unexpected character {text!r}", pos)
    toks.append(("", len(src), _END))
    return toks


def _check(tok: tuple[str, int, int], want: str | None = None) -> tuple[str, int, int]:
    """tok, which must not be the end, and must be `want` if given."""
    text, pos, kind = tok
    if kind == _END:
        raise ExprError("unexpected end of expression", pos)
    if want is not None and text != want:
        raise ExprError(f"expected {want!r}, found {text!r}", pos)
    return tok


def parse_term(src: str, sig: Signature) -> Term:
    """Parse an expression into a well-typed term over the signature.

    Open '(' and 'graph(' groups go on a stack, so nesting is not bounded by
    the interpreter's recursion limit.
    """
    next_tok = iter(_scan(src)).__next__

    def objs() -> list[Obj]:
        """The objects in the brackets after a structure map's word."""
        _, start, kind = _check(next_tok(), "[")
        if kind == _OBJS:
            try:
                return [sig.obj(*names.split()) for names in src[start + 1 : src.index("]", start)].split(",")]
            except SignatureError:
                pass  # an unknown sort
        # report the first token after '[' that is not a known sort name or a comma
        known = {s.name for s in sig.sorts}
        for text, pos, kind in _tokens(src, start + 1):
            if kind == _WORD and text not in known:
                raise ExprError(f"unknown sort {text!r}", pos)
            if kind != _WORD and text != ",":
                raise ExprError(f"expected a sort name, found {text!r}", pos)
        raise ExprError("unexpected end of expression", len(src))

    def atom(text: str, pos: int, kind: int) -> Term:
        """An atom other than a group."""
        if text in _MAPS:
            make, arity = _MAPS[text]
            args = objs()
            if len(args) != arity:
                takes = "one object" if arity == 1 else "two comma-separated objects"
                raise ExprError(f"{text} takes {takes}", pos)
            return make(*args)
        if kind != _WORD:
            raise ExprError(f"unexpected {text!r}", pos)
        try:
            return Gen(sig.generator(text))
        except SignatureError:
            raise ExprError(f"unknown generator {text!r}", pos) from None

    # each open group: whether it is a graph, and the enclosing composite and product so far
    groups: list[tuple[bool, Term | None, Term | None]] = []
    seq: Term | None = None  # the ';'-composite of the current group so far
    ten: Term | None = None  # the '*'-product of the current ten so far
    while True:
        text, pos, kind = _check(next_tok())
        if text == "(" or text == "graph":
            if text == "graph":
                _check(next_tok(), "(")
            groups.append((text == "graph", seq, ten))
            seq = ten = None
            continue
        t = atom(text, pos, kind)
        while True:  # fold the atom in; a closing ')' makes its group the next atom
            ten = t if ten is None else ten @ t
            op, pos, kind = tok = next_tok()
            if op == "*":
                break
            seq = ten if seq is None else seq >> ten
            ten = None
            if op == ";":
                break
            if not groups:
                if kind != _END:
                    raise ExprError(f"unexpected {op!r}", pos)
                return seq
            _check(tok, ")")
            is_graph, outer_seq, ten = groups.pop()
            t = graph(seq) if is_graph else seq
            seq = outer_seq
