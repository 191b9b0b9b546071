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

A bare NAME is a generator of the signature.  Empty brackets denote the unit
object.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .signature import Obj, Signature, UNIT
from .term import Copy, Delete, Gen, Id, Proj1, Proj2, Swap, Term, graph

_TOKEN = re.compile(r"\s*([A-Za-z_]\w*|[;*()\[\],])")


class ExprError(ValueError):
    """Parse error with a character position."""

    def __init__(self, message: str, pos: int):
        super().__init__(f"at position {pos}: {message}")
        self.pos = pos


@dataclass
class _Tok:
    text: str
    pos: int


def _tokenize(src: str) -> list[_Tok]:
    out = []
    pos = 0
    while pos < len(src):
        m = _TOKEN.match(src, pos)
        if m is None:
            if src[pos:].strip():
                bad = len(src) - len(src[pos:].lstrip())
                raise ExprError(f"unexpected character {src[bad]!r}", bad)
            break
        out.append(_Tok(m.group(1), m.start(1)))
        pos = m.end()
    return out


class _Parser:
    def __init__(self, src: str, sig: Signature):
        self.toks = _tokenize(src)
        self.sig = sig
        self.sort_names = {s.name for s in sig.sorts}
        self.i = 0
        self.end = len(src)

    def peek(self) -> _Tok | None:
        return self.toks[self.i] if self.i < len(self.toks) else None

    def take(self) -> _Tok:
        t = self.peek()
        if t is None:
            raise ExprError("unexpected end of expression", self.end)
        self.i += 1
        return t

    def expect(self, text: str) -> _Tok:
        t = self.take()
        if t.text != text:
            raise ExprError(f"expected {text!r}, found {t.text!r}", t.pos)
        return t

    def parse(self) -> Term:
        """The whole expression; open '(' and 'graph(' groups go on a stack.

        Each group remembers its head token and the enclosing expression's
        composite and product so far, so nesting is not bounded by the
        interpreter's recursion limit.
        """
        groups: list[tuple[_Tok, Term | None, Term | None]] = []
        seq: Term | None = None  # the ';'-composite of the current group so far
        ten: Term | None = None  # the '*'-product of the current ten so far
        while True:
            t = self.take()
            if t.text in ("(", "graph"):
                if t.text == "graph":
                    self.expect("(")
                groups.append((t, seq, ten))
                seq = ten = None
                continue
            atom = self.leaf(t)
            while True:  # fold the atom in; a closing ')' makes its group the next atom
                ten = atom if ten is None else ten @ atom
                nxt = self.peek()
                op = None if nxt is None else nxt.text
                if op == "*":
                    break
                seq = ten if seq is None else seq >> ten
                ten = None
                if op == ";":
                    break
                if not groups:
                    if nxt is not None:
                        raise ExprError(f"unexpected {op!r}", nxt.pos)
                    return seq
                self.expect(")")
                head, outer_seq, ten = groups.pop()
                atom = graph(seq) if head.text == "graph" else seq
                seq = outer_seq
            self.take()  # the '*' or ';'

    def leaf(self, t: _Tok) -> Term:
        """An atom other than a group, starting at token t."""
        if t.text in ("copy", "del", "id"):
            objs = self.bracket_objs(t)
            if len(objs) != 1:
                raise ExprError(f"{t.text} takes one object", t.pos)
            return {"copy": Copy, "del": Delete, "id": Id}[t.text](objs[0])
        if t.text in ("swap", "pi1", "pi2"):
            objs = self.bracket_objs(t)
            if len(objs) != 2:
                raise ExprError(f"{t.text} takes two comma-separated objects", t.pos)
            return {"swap": Swap, "pi1": Proj1, "pi2": Proj2}[t.text](objs[0], objs[1])
        if re.fullmatch(r"[A-Za-z_]\w*", t.text):
            if not self.sig.has_generator(t.text):
                raise ExprError(f"unknown generator {t.text!r}", t.pos)
            return Gen(self.sig.generator(t.text))
        raise ExprError(f"unexpected {t.text!r}", t.pos)

    def bracket_objs(self, head: _Tok) -> list[Obj]:
        self.expect("[")
        groups: list[list[str]] = [[]]
        while True:
            t = self.take()
            if t.text == "]":
                break
            if t.text == ",":
                groups.append([])
                continue
            if not re.fullmatch(r"[A-Za-z_]\w*", t.text):
                raise ExprError(f"expected a sort name, found {t.text!r}", t.pos)
            if t.text not in self.sort_names:
                raise ExprError(f"unknown sort {t.text!r}", t.pos)
            groups[-1].append(t.text)
        if groups == [[]]:
            return [UNIT]
        return [self.sig.obj(*names) for names in groups]


def parse_term(src: str, sig: Signature) -> Term:
    """Parse an expression into a well-typed term over the signature."""
    return _Parser(src, sig).parse()
