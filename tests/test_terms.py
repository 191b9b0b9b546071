"""Term construction, typing discipline, and combinators."""

import pytest

from cartoptics import (
    Copy,
    Delete,
    Gen,
    Generator,
    Id,
    Obj,
    Proj1,
    Proj2,
    Seq,
    Swap,
    Ten,
    TermTypeError,
    UNIT,
    graph,
    pairing,
    select_wire,
)


class TestObjAlgebra:
    def test_concat(self, sig, A, B):
        assert tuple(A @ B) == (sig.sort("A"), sig.sort("B"))
        assert len(A @ B @ A) == 3
        assert A @ UNIT == A
        assert UNIT @ A == A

    def test_slicing_returns_obj(self, A, B):
        abab = A @ B @ A @ B
        assert abab[1:3] == B @ A
        assert isinstance(abab[:2], Obj)
        assert abab[0].name == "A"

    def test_str(self, A, B):
        assert str(A @ B) == "A * B"
        assert str(UNIT) == "1"


class TestTyping:
    def test_gen_boundaries(self, f, h, A, B):
        assert f.dom == A and f.cod == B
        assert h.dom == A @ B and h.cod == A

    def test_seq_mismatch(self, f, A, B):
        with pytest.raises(TermTypeError, match="cannot compose"):
            Seq(f, f)
        try:
            Seq(f, f)
        except TermTypeError as err:
            assert err.expected == B
            assert err.actual == A

    def test_operators(self, f, g, A, B):
        fg = f >> g
        assert isinstance(fg, Seq)
        assert fg.dom == A and fg.cod == A
        ff = f @ f
        assert isinstance(ff, Ten)
        assert ff.dom == A @ A and ff.cod == B @ B

    def test_structure_maps(self, A, B):
        assert Copy(A @ B).cod == A @ B @ A @ B
        assert Delete(A).cod == UNIT
        assert Swap(A, B).dom == A @ B and Swap(A, B).cod == B @ A
        assert Proj1(A, B).cod == A
        assert Proj2(A, B).cod == B

    def test_terms_are_hashable(self, f, g):
        assert len({f >> g, f >> g, f @ g}) == 2

    def test_equality_is_structural(self, sig, f, g, A, B):
        twin = Generator("f", A, B, table=((1,), (2,)))  # f again, a separate object
        assert Gen(twin) == f and hash(Gen(twin)) == hash(f)
        assert (Gen(twin) >> g) @ Id(A) == (f >> g) @ Id(A)
        assert f >> g != f @ g
        assert (f >> g) >> f != f >> (g >> f)  # one boundary, other bracketing
        assert Proj1(A, A) != Proj2(A, A)
        assert Swap(A, B) != Swap(B, A)
        assert Gen(sig.generator("e")) != Gen(Generator("e", A, A, table=((0,), (1,))))
        assert (f == 1) is False and f.__eq__(1) is NotImplemented

    def test_repr_shows_the_term_text(self, f, g, A, B):
        assert repr(f >> g) == "Seq('(f ; g)')"
        assert repr(f @ g) == "Ten('(f * g)')"
        assert repr(f) == "Gen('f')"
        assert repr(Swap(A, B)) == "Swap('swap[A,B]')"


class TestCombinators:
    def test_graph_boundary(self, f, A, B):
        assert graph(f).dom == A
        assert graph(f).cod == A @ B

    def test_pairing(self, f, A, B):
        p = pairing([f, Id(A)], A)
        assert p.dom == A and p.cod == B @ A
        assert pairing([], A) == Delete(A)
        assert pairing([f], A) == f

    def test_pairing_rejects_wrong_domain(self, f, B):
        with pytest.raises(TermTypeError, match="pairing"):
            pairing([f], B)

    def test_select_wire(self, A, B):
        obj = A @ B @ A
        # middle wire: drop the first sort, then keep the head of the rest
        assert select_wire(obj, 1) == Proj2(A, B @ A) >> Proj1(B, A)
        assert select_wire(A, 0) == Id(A)
        with pytest.raises(TermTypeError, match="out of range"):
            select_wire(obj, 3)

    def test_str_rendering(self, f, g):
        assert str(f >> g) == "(f ; g)"
        assert str(f @ g) == "(f * g)"
