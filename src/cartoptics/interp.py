"""Interpretations, instrumented evaluation, and extensional equality.

An interpretation assigns a total semantics to every generator, over the
carriers its sorts declare.  The default interpretation of a signature reads
it off the declarations; a table given in its place is checked as a declared
one is, at the generator's first application.

`evaluate` is the one evaluator, of a term or a canonical form: it checks
a value tuple against the domain once and runs `term.run` or
`normal.run_form`, which count into the `CostReport` they are given, in one
update when the pass ends: one count per generator application (a form
applies each row once) and one copy per wire a term duplicates.
Identities, deletions, swaps and projections are free.  `term.run` is also
the walker `normalize` uses to evaluate in the syntactic model.  Applying a
table generator is one lookup of its argument tuple in the table's row index.

Exhaustive equality is one column pass per term: `term.run` moves a column
(one wire's value for every input tuple of a block) where it would move a
value, and each generator looks its rows up for the whole column at once.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Iterator

import numpy as np

from .normal import CanonicalForm, run_form
from .signature import FiniteCarrier, Generator, Obj, Signature, SignatureError, check_table
from .term import Blocks, Term, TermTypeError, run

TUPLE_CAP = 10**6
_BLOCK = 4096  # input tuples per column pass of the exhaustive check
Runner = Callable[[tuple, Callable], tuple]  # (input values, apply) -> output values


class EnumerationCapError(RuntimeError):
    """Exhaustive enumeration would exceed the input-tuple cap."""


class UnsupportedInterpretation(RuntimeError):
    """The requested operation needs finite carriers."""


class CarrierMismatch(ValueError):
    """A value does not inhabit the carrier it was used at."""


@dataclass
class CostReport:
    generator_counts: Counter = field(default_factory=Counter)
    copies: int = 0
    peak_residual_slots: int = 0
    peak_residual_bytes: int = 0

    def total_evals(self, names) -> int:
        return sum(v for k, v in self.generator_counts.items() if k in names)

    def to_json(self) -> dict:
        return {
            "generator_counts": dict(sorted(self.generator_counts.items())),
            "copies": self.copies,
            "peak_residual_slots": self.peak_residual_slots,
            "peak_residual_bytes": self.peak_residual_bytes,
        }


def obj_bytes(obj: Obj) -> int:
    """Bytes a value of obj holds: one per finite wire, eight per real coordinate."""
    return sum(1 if isinstance(s.carrier, FiniteCarrier) else 8 * s.carrier.dimension for s in obj)


class Interp:
    """Semantics for generators, by name: a lookup table in `tables` or a function in `fns`.

    Carriers are the ones the sorts declare.  A table given in place of a
    generator's own is checked with `signature.check_table`, as a declared
    table is when its generator is made, and every table is indexed once, at
    the generator's first application, by a dict from each input tuple to its
    row; an argument tuple that is not a row raises CarrierMismatch.  Its
    function, if it has no table, is looked up in `fns` at every call.
    """

    def __init__(
        self,
        tables: dict[str, tuple[tuple[int, ...], ...]] | None = None,
        fns: dict[str, Callable[[tuple], tuple]] | None = None,
    ):
        self.tables = dict(tables or {})
        self.fns = dict(fns or {})
        self._row_index: dict[str, tuple] = {}  # see _build_index

    @staticmethod
    def from_signature(sig: Signature) -> "Interp":
        tables = {g.name: g.table for g in sig.generators if g.table is not None}
        fns = {g.name: g.fn for g in sig.generators if g.fn is not None}
        return Interp(tables, fns)

    def _build_index(self, gen: Generator) -> tuple | None:
        """(rows, columns): a table generator's checked row index, kept by name.

        `rows` maps each input tuple, in row-major order over the domain's
        carriers, to its output row; `columns` is the table transposed to
        one tuple per output.  None for a generator without a table, whose
        function is looked up at each call.  A table that fails
        `check_table` raises SignatureError and is not kept; the generator's
        own table, checked when the generator was made, is not checked
        again.  Keyed by name: hashing a Generator hashes its table.
        """
        table = self.tables.get(gen.name)
        if table is None:
            return None
        if table is not gen.table:
            try:
                check_table(gen.dom, gen.cod, table)
            except SignatureError as e:
                raise SignatureError(f"generator {gen.name}: {e}") from None
        table = tuple(map(tuple, table))
        inputs = itertools.product(*[range(s.carrier.size) for s in gen.dom])
        index = self._row_index[gen.name] = (dict(zip(inputs, table)), tuple(zip(*table)))
        return index

    def apply(self, gen: Generator, args: tuple) -> tuple:
        index = self._row_index.get(gen.name) or self._build_index(gen)
        if index is not None:
            try:
                return index[0][args]
            except KeyError:
                raise CarrierMismatch(
                    f"generator {gen.name}: arguments {args!r} are not a row of its table"
                ) from None
        fn = self.fns.get(gen.name)
        if fn is None:
            raise UnsupportedInterpretation(f"no semantics for generator {gen.name}")
        out = tuple(fn(args))
        if len(out) != len(gen.cod):
            raise CarrierMismatch(
                f"generator {gen.name} returned {len(out)} values, expected {len(gen.cod)}"
            )
        return out

    def column_apply(self, count: int) -> Callable[[Generator, tuple], tuple]:
        """`apply` over columns: lists of `count` values, one per input tuple."""

        def apply(gen: Generator, cols: tuple) -> tuple:
            index = self._row_index.get(gen.name) or self._build_index(gen)
            if index is None:
                # a function: point by point, with apply's checks
                points = zip(*cols) if cols else itertools.repeat((), count)
                return tuple(map(list, zip(*[self.apply(gen, p) for p in points])))
            rows, columns = index
            if len(cols) == 1:  # a value is its row's number: index each output column
                idx = cols[0]
                return tuple([[c[i] for i in idx] for c in columns])
            if cols:  # a list, not map(rows.__getitem__, ...), which adds to the collector's count
                return tuple(map(list, zip(*[rows[p] for p in zip(*cols)])))
            return tuple([[v] * count for v in rows[()]])

        return apply


def check_values(obj: Obj, values: tuple, what: str = "input") -> None:
    """Validate a value tuple against an object's carriers; an error names `what` and the entry."""
    if len(values) != len(obj):
        raise CarrierMismatch(f"{what}: expected {len(obj)} values for {obj}, got {len(values)}")
    for i, (v, s) in enumerate(zip(values, obj)):
        c = s.carrier
        if isinstance(c, FiniteCarrier):
            if isinstance(v, bool) or not (isinstance(v, (int, np.integer)) and 0 <= v < c.size):
                raise CarrierMismatch(f"{what}: [{i}]: value {v!r} not in finite carrier of {s.name}")
        else:
            arr = np.asarray(v)
            if arr.shape != (c.dimension,):
                raise CarrierMismatch(
                    f"{what}: [{i}]: value for {s.name} has shape {arr.shape}, expected ({c.dimension},)"
                )


def check_identity_env(cod_pair: tuple[Obj, Obj]) -> None:
    """The identity environment answers b with b itself, so B' must be B."""
    b_obj, b_back = cod_pair
    if b_obj != b_back:
        raise TermTypeError(
            f"identity environment needs matching boundary: {b_obj} vs {b_back}",
            expected=b_obj,
            actual=b_back,
        )


def evaluate(
    x: Term | Blocks | CanonicalForm, values: tuple, interp: Interp, report: CostReport | None = None
) -> tuple:
    """Run a term or stage chain, or a canonical form row by row, on checked values; count into `report` if given."""
    check_values(x.dom, values)
    if isinstance(x, CanonicalForm):
        return run_form(x, tuple(values), interp.apply, report)
    return run(x, tuple(values), interp.apply, report)


def enumerate_inputs(obj: Obj) -> Iterator[tuple]:
    """All value tuples of a finite object, row-major, capped."""
    sizes = []
    for s in obj:
        if not isinstance(s.carrier, FiniteCarrier):
            raise UnsupportedInterpretation(f"sort {s.name} is not finite")
        sizes.append(s.carrier.size)
    count = math.prod(sizes)
    if count > TUPLE_CAP:
        message = f"{count} input tuples for {obj} exceeds the cap of {TUPLE_CAP}"
        if len(message) > 200:  # spelled in full only while short
            message = (
                f"about 10^{math.log10(count):.1f} input tuples for {len(obj)} sorts "
                f"({obj[0].name} ... {obj[-1].name}) exceeds the cap of {TUPLE_CAP}"
            )
        raise EnumerationCapError(message)
    return itertools.product(*[range(n) for n in sizes])


def extensional_counterexample(f: Term, g: Term, interp: Interp) -> tuple | None:
    """First input where f and g disagree under a finite interpretation.

    The inputs go through both terms in row-major blocks, one column per
    wire; the first block with a mismatch ends the check.
    """
    if f.dom != g.dom or f.cod != g.cod:
        raise TermTypeError(
            f"extensional comparison needs equal boundaries: "
            f"({f.dom} -> {f.cod}) vs ({g.dom} -> {g.cod})"
        )
    return first_disagreement(f.dom, partial(run, f), partial(run, g), interp)


def first_disagreement(dom: Obj, f: Runner, g: Runner, interp: Interp) -> tuple | None:
    """First input in dom where two runners disagree under a finite interpretation.

    A runner pushes a tuple of input columns through a morphism with a
    column apply, as `term.run` does, and returns the output columns.
    """
    inputs = enumerate_inputs(dom)
    while block := list(itertools.islice(inputs, _BLOCK)):
        cols = tuple(map(list, zip(*block)))
        apply = interp.column_apply(len(block))
        fs, gs = f(cols, apply), g(cols, apply)
        if fs != gs:
            for x, a, b in zip(block, zip(*fs), zip(*gs)):
                if a != b:
                    return x
    return None


def eq_extensional(f: Term, g: Term, interp: Interp) -> bool:
    """Exhaustive extensional equality over finite carriers (never sampled)."""
    return extensional_counterexample(f, g, interp) is None
