"""Sorts, objects, generators and signatures of the term language.

An object is a tuple of sorts and the monoidal product is tuple
concatenation, so associativity and unitality of the tensor hold on the nose.
Generators declare their boundary objects together with default semantics:
a total lookup table for finite carriers, or a vector function for real
carriers.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass
from typing import Callable

SIGNATURE_FORMAT_VERSION = "1"

# A sort or generator name, as the term syntax (`expr`) spells it, and the
# syntax's words, which name no generator: the structure maps, paired with
# their classes in this order by `term.WORDS`, and graph.
NAME = re.compile(r"[A-Za-z_]\w*")
RESERVED = ("copy", "del", "id", "swap", "pi1", "pi2", "graph")


class SignatureError(ValueError):
    """Raised for malformed signatures or signature files."""


def _check_name(name: str, reserved: tuple[str, ...] = ()) -> None:
    if not (isinstance(name, str) and NAME.fullmatch(name)):
        raise SignatureError(f"name: expected an identifier, got {name!r}")
    if name in reserved:
        raise SignatureError(f"name: {name!r} is a reserved word")


@dataclass(frozen=True)
class FiniteCarrier:
    """A finite set {0, ..., size-1}."""

    size: int

    def __post_init__(self) -> None:
        if self.size < 1:
            raise SignatureError(f"finite carrier size must be >= 1, got {self.size}")


@dataclass(frozen=True)
class RealVector:
    """A real vector space of fixed dimension, values are float64 arrays."""

    dimension: int

    def __post_init__(self) -> None:
        if self.dimension < 1:
            raise SignatureError(f"real carrier dimension must be >= 1, got {self.dimension}")


Carrier = FiniteCarrier | RealVector


@dataclass(frozen=True)
class Sort:
    name: str
    carrier: Carrier

    def __post_init__(self) -> None:
        _check_name(self.name)


class Obj(tuple):
    """A tuple of sorts, equal to any tuple of the same sorts; `a @ b` concatenates, and a slice is an `Obj`."""

    __slots__ = ()

    def __matmul__(self, other: "Obj") -> "Obj":
        return Obj(self + other)

    def __getitem__(self, ix):
        got = tuple.__getitem__(self, ix)
        return Obj(got) if isinstance(ix, slice) else got

    def __repr__(self) -> str:
        return f"Obj(sorts={tuple.__repr__(self)})"

    def __str__(self) -> str:
        return " * ".join(s.name for s in self) or "1"  # a sort's name is never empty


UNIT = Obj()


@dataclass(frozen=True)
class Generator:
    """A primitive morphism dom -> cod.

    Exactly one of `table` and `fn` gives the default semantics.  A table has
    one row per input tuple, enumerated in row-major order over the declared
    finite carriers (last coordinate fastest); each row lists one value per
    output sort.  `fn` takes a tuple of float64 arrays, one per input sort, and
    returns a tuple, one per output sort.  The builtins (`primitives`) also take
    arrays with leading batch axes and map each vector along the last axis.
    """

    name: str
    dom: Obj
    cod: Obj
    table: tuple[tuple[int, ...], ...] | None = None
    fn: Callable[[tuple], tuple] | None = None

    def __post_init__(self) -> None:
        _check_name(self.name, RESERVED)
        if len(self.cod) == 0:
            raise SignatureError("cod: must be non-empty")
        if (self.table is None) == (self.fn is None):
            raise SignatureError("exactly one of table/fn required")
        if self.table is not None:
            check_table(self.dom, self.cod, self.table)


def check_table(dom: Obj, cod: Obj, table: tuple[tuple[int, ...], ...]) -> None:
    """Check a finite lookup table for totality and well-typedness; errors lead with `table...:`."""
    sizes = []
    for s in dom + cod:
        if not isinstance(s.carrier, FiniteCarrier):
            raise SignatureError(f"table: sort {s.name} is not finite")
        sizes.append(s.carrier.size)
    want = math.prod(sizes[: len(dom)])
    if len(table) != want:
        raise SignatureError(f"table: {len(table)} rows, expected {want}")
    if _in_carriers(table, sizes[len(dom) :]):
        return
    for r, row in enumerate(table):  # the first bad entry, located
        if len(row) != len(cod):
            raise SignatureError(f"table[{r}]: {len(row)} entries, expected {len(cod)}")
        for c, (v, s) in enumerate(zip(row, cod)):
            if isinstance(v, bool) or not (isinstance(v, int) and 0 <= v < s.carrier.size):
                raise SignatureError(
                    f"table[{r}][{c}]: expected an integer in the carrier of sort {s.name}, got {v!r}"
                )


def _in_carriers(table: tuple[tuple[int, ...], ...], sizes: list[int]) -> bool:
    """Whether each row holds one int per size, below that size: the common case, in one pass."""
    for row in table:
        if len(row) != len(sizes):
            return False
        for v, n in zip(row, sizes):
            if v.__class__ is not int or not 0 <= v < n:
                return False
    return True


@dataclass(frozen=True)
class Signature:
    sorts: tuple[Sort, ...]
    generators: tuple[Generator, ...]

    def __post_init__(self) -> None:
        by_sort: dict[str, Sort] = {}
        for s in self.sorts:
            if s.name in by_sort:
                raise SignatureError(f"duplicate sort name {s.name}")
            by_sort[s.name] = s
        by_gen: dict[str, Generator] = {}
        for g in self.generators:
            if g.name in by_gen:
                raise SignatureError(f"duplicate generator name {g.name}")
            for s in g.dom + g.cod:
                known = by_sort.get(s.name)
                if known is not s and known != s:
                    raise SignatureError(f"generator {g.name}: unknown sort {s.name}")
            by_gen[g.name] = g
        object.__setattr__(self, "_sorts_by_name", by_sort)
        object.__setattr__(self, "_gens_by_name", by_gen)
        object.__setattr__(self, "_min_depths", {})

    def sort(self, name: str) -> Sort:
        try:
            return self._sorts_by_name[name]  # type: ignore[attr-defined]
        except KeyError:
            raise SignatureError(f"unknown sort {name}") from None

    def generator(self, name: str) -> Generator:
        try:
            return self._gens_by_name[name]  # type: ignore[attr-defined]
        except KeyError:
            raise SignatureError(f"unknown generator {name}") from None

    def obj(self, *names: str) -> Obj:
        return Obj(self.sort(n) for n in names)

    def min_depths(self, dom: Obj) -> dict[Sort, int]:
        """Least wire depth at which each sort is producible from dom.

        Kept per domain on the signature, so a lookup hashes no tables; the
        dict is shared between callers and must not be changed.
        """
        depth = self._min_depths.get(dom)  # type: ignore[attr-defined]
        if depth is not None:
            return depth
        depth = {s: 0 for s in dom}
        changed = True
        while changed:
            changed = False
            for g in self.generators:
                if all(s in depth for s in g.dom):
                    d = 1 + max((depth[s] for s in g.dom), default=0)
                    for s in g.cod:
                        if depth.get(s, d + 1) > d:
                            depth[s] = d
                            changed = True
        self._min_depths[dom] = depth  # type: ignore[attr-defined]
        return depth


def _string(raw: dict, key: str, where: str) -> str:
    value = raw.get(key)
    if not isinstance(value, str):
        raise SignatureError(f"{where}.{key}: expected a string, got {value!r}")
    return value


def _list(value: object, where: str) -> list:
    if not isinstance(value, list):
        raise SignatureError(f"{where}: expected a list")
    return value


def _parse_carrier(raw: object, where: str) -> Carrier:
    if not isinstance(raw, dict) or len(raw) != 1:
        raise SignatureError(f"{where}: expected {{\"finite\": n}} or {{\"real\": n}}")
    (kind, value), = raw.items()
    make = {"finite": FiniteCarrier, "real": RealVector}.get(kind)
    if make is None:
        raise SignatureError(f"{where}: unknown carrier kind {kind!r}")
    if isinstance(value, bool) or not isinstance(value, int) or value < 1:
        raise SignatureError(f"{where}.{kind}: expected an integer >= 1, got {value!r}")
    return make(value)


def _lookup_obj(names: object, key: str, by_name: dict[str, Sort]) -> Obj:
    for j, n in enumerate(_list(names, "." + key)):
        if not (isinstance(n, str) and n in by_name):
            raise SignatureError(f".{key}[{j}]: unknown sort {n!r}")
    return Obj([by_name[n] for n in names])


def parse_signature(data: dict) -> Signature:
    """Build a Signature from decoded JSON, with location-bearing errors."""
    if not isinstance(data, dict):
        raise SignatureError("signature: top level must be an object")
    sorts = []
    for i, raw in enumerate(_list(data.get("sorts"), "sorts")):
        where = f"sorts[{i}]"
        if not isinstance(raw, dict) or "carrier" not in raw:
            raise SignatureError(f"{where}: expected {{name, carrier}}")
        name, carrier = _string(raw, "name", where), _parse_carrier(raw["carrier"], f"{where}.carrier")
        try:
            sorts.append(Sort(name, carrier))
        except SignatureError as e:
            raise SignatureError(f"{where}.{e}") from None
    by_name = {s.name: s for s in sorts}
    gens = []
    for i, raw in enumerate(_list(data.get("generators"), "generators")):
        try:  # a message starts where the location inside the entry goes
            if not isinstance(raw, dict):
                raise SignatureError(": expected a generator object")
            name = _string(raw, "name", "")
            dom = _lookup_obj(raw.get("dom"), "dom", by_name)
            cod = _lookup_obj(raw.get("cod"), "cod", by_name)
            if "table" in raw and "builtin" in raw:
                raise SignatureError(": table and builtin both given")
            if "table" in raw:
                rows = _list(raw["table"], ".table")
                for r, row in enumerate(rows):
                    if not isinstance(row, list):
                        raise SignatureError(f".table[{r}]: expected a list")
                semantics = {"table": tuple(map(tuple, rows))}
            elif "builtin" in raw:
                from . import primitives

                builtin = _string(raw, "builtin", "")
                try:
                    semantics = {"fn": primitives.resolve(builtin, dom, cod)}
                except SignatureError as e:
                    raise SignatureError(f": {e}") from None
            else:
                raise SignatureError(": one of table/builtin required")
            try:
                gens.append(Generator(name, dom, cod, **semantics))
            except SignatureError as e:
                raise SignatureError(f".{e}") from None
        except SignatureError as e:  # the entry's location, spelled out only on failure
            raise SignatureError(f"generators[{i}]{e}") from None
    return Signature(tuple(sorts), tuple(gens))


def read_json(path: str):
    """The JSON data in a file; a syntax error names the file, line and column."""
    with open(path, "r", encoding="utf-8") as f:
        try:
            return json.load(f)
        except json.JSONDecodeError as e:
            raise ValueError(f"{path}:{e.lineno}:{e.colno}: {e.msg}") from None


def load_signature(path: str) -> Signature:
    try:
        return parse_signature(read_json(path))
    except SignatureError as e:
        raise SignatureError(f"{path}: {e}") from None


def carrier_to_json(c: Carrier) -> dict:
    if isinstance(c, FiniteCarrier):
        return {"finite": c.size}
    return {"real": c.dimension}


def signature_to_json(sig: Signature) -> dict:
    gens = []
    for g in sig.generators:
        entry: dict = {"name": g.name, "dom": [s.name for s in g.dom], "cod": [s.name for s in g.cod]}
        if g.table is not None:
            entry["table"] = [list(r) for r in g.table]
        elif hasattr(g.fn, "builtin_name"):
            entry["builtin"] = g.fn.builtin_name
        else:
            raise SignatureError(f"generator {g.name}: semantics is neither a table nor a builtin")
        gens.append(entry)
    return {
        "sorts": [{"name": s.name, "carrier": carrier_to_json(s.carrier)} for s in sig.sorts],
        "generators": gens,
    }


def dump_signature(sig: Signature, path: str) -> None:
    text = json.dumps(signature_to_json(sig), indent=2, sort_keys=True)
    with open(path, "w", encoding="utf-8") as f:
        f.write(text + "\n")
