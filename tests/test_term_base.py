"""Every term class takes `==`, `hash` and `repr` from `Term`, and none of them recurses.

A dataclass generates these methods unless it is declared `eq=False,
repr=False`, and the generated ones recurse once per term level, so a term a
thousand levels deep could not be compared, hashed or printed.  A later term
kind declared without those flags, or with its own `dom`/`cod`, would bring
that back without failing any test on small terms; this module fails then.
"""

import dataclasses

import pytest

from cartoptics import UNIT, Id, Seq, Ten, Term

KINDS = Term.__subclasses__()
METHODS = ("__eq__", "__hash__", "__repr__")


def own_members(kind: type) -> list[str]:
    """The shared methods and boundary fields that `kind` declares itself."""
    declared = set(vars(kind)) | set(vars(kind).get("__annotations__", {}))
    return sorted(declared & {*METHODS, "dom", "cod"})


def test_the_nine_kinds():
    assert sorted(k.__name__ for k in KINDS) == [
        "Copy", "Delete", "Gen", "Id", "Proj1", "Proj2", "Seq", "Swap", "Ten"
    ]


def test_every_kind_inherits_the_methods_and_boundary_of_term():
    assert {k.__name__: own_members(k) for k in KINDS} == {k.__name__: [] for k in KINDS}
    for kind in KINDS:
        assert [getattr(kind, m) for m in METHODS] == [getattr(Term, m) for m in METHODS]


def test_checker_sees_generated_methods_and_redeclared_fields():
    @dataclasses.dataclass(frozen=True)
    class Generated(Term):
        pass

    @dataclasses.dataclass(frozen=True, eq=False, repr=False)
    class Redeclared(Term):
        dom: object = dataclasses.field(init=False, compare=False)

    assert own_members(Generated) == ["__eq__", "__hash__", "__repr__"]
    assert own_members(Redeclared) == ["dom"]


def test_only_seq_and_ten_hold_terms():
    # `Term.__eq__` pushes the children of these two and compares every other field by value
    holders = {k.__name__ for k in KINDS for f in dataclasses.fields(k) if f.type == "Term"}
    assert holders == {"Seq", "Ten"}


@pytest.mark.parametrize("nest", ["left", "right", "tensor"])
def test_methods_walk_terms_deeper_than_the_recursion_limit(A, nest):
    def build() -> Term:
        t = Id(A)
        for _ in range(5000):
            t = Seq(t, Id(A)) if nest == "left" else Seq(Id(A), t) if nest == "right" else Ten(Id(UNIT), t)
        return t

    t1, t2 = build(), build()
    assert t1 == t2 and hash(t1) == hash(t2)
    assert t1 != Seq(t2, Id(t2.cod))
    assert repr(t1) == f"{type(t1).__name__}({str(t1)!r})"
