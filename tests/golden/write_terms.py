"""Write `tests/golden/terms.pickle`: terms of all nine kinds, pickled.

`tests/test_term_base.py` loads the file and compares it with `terms()`
built by the code under test, so a change to how terms are stored or
constructed must still load pickles written before it.  The file was written
by the code before term nodes became slotted classes; rewrite it only for a
deliberate change to the pickle format, and say why:

    PYTHONPATH=src python tests/golden/write_terms.py
"""

import pickle
from pathlib import Path

from cartoptics import (
    Copy,
    Delete,
    FiniteCarrier,
    Gen,
    Generator,
    Id,
    Obj,
    Proj1,
    Proj2,
    Sort,
    Swap,
)
from cartoptics.term import Block, chain_term

GOLDEN = Path(__file__).resolve().parent / "terms.pickle"


def terms() -> list:
    """Three terms over the signature of `tests/conftest.py`; `f >> g` occurs twice, by identity, in the first."""
    a, b = Sort("A", FiniteCarrier(2)), Sort("B", FiniteCarrier(3))
    A, B = Obj((a,)), Obj((b,))
    f = Gen(Generator("f", A, B, table=((1,), (2,))))
    g = Gen(Generator("g", B, A, table=((0,), (1,), (0,))))
    h = Gen(Generator("h", A @ B, A, table=((0,), (1,), (0,), (1,), (0,), (1,))))
    shared = f >> g
    return [
        Copy(A) >> (shared @ Id(A)) >> Swap(A, A) >> Proj1(A, A) >> shared,
        Copy(A) >> (Id(A) @ f) >> Proj2(A, B) >> g >> Copy(A) >> (Id(A) @ Delete(A)) >> Copy(A) >> (Id(A) @ f) >> h,
        chain_term(A @ A, [Block(1, shared), Block(0, Swap(A, A))]),
    ]


if __name__ == "__main__":
    GOLDEN.write_bytes(pickle.dumps(terms(), protocol=4))
