"""Which optics are secretly the same lens?

Optics that differ only in how they package their residual should count as
the same process. The equivalence is generated by comparison cells: maps
between residuals making both squares commute. This script builds a small
family of optics over a 2-element carrier, decides every cell between them
exactly (by matching, not by enumerating candidate maps), and prints the
connected components next to each component's flattened get/put behaviour.
"""

from cartoptics import (
    Copy,
    FiniteCarrier,
    Gen,
    Generator,
    Id,
    Interp,
    Obj,
    Optic,
    Proj1,
    Proj2,
    Signature,
    Sort,
    UNIT,
    erase,
    normalize,
    pi0_classes,
    read_back,
    search_cells,
)

a = Sort("A", FiniteCarrier(2))
sig = Signature((a,), (Generator("f", Obj((a,)), Obj((a,)), table=((1,), (0,))),))
A = Obj((a,))
f = Gen(sig.generator("f"))
interp = Interp.from_signature(sig)

unary = [Id(A), f]
family = [Optic(UNIT, fw, bw) for fw in unary for bw in unary]
family += [
    Optic(A, Copy(A) >> (u @ v), p >> w)
    for u in unary
    for v in unary
    for p in (Proj1(A, A), Proj2(A, A))
    for w in unary
]

print(f"Family: {len(family)} optics A -> A over the map f(a) = 1 - a,")
print("with residuals ranging over the unit object and A itself.")
print()

sample = search_cells(family, interp)
classes = pi0_classes(sample)
print(f"The exact search found {sum(sample.counts)} cells, over {len(sample.cells)} ordered")
print(f"pairs of optics, giving {len(classes)} connected components:")
print()

for c in classes:
    l = erase(family[c[0]])
    get = read_back(normalize(l.get))
    put = read_back(normalize(l.put))
    residuals = sorted({str(family[i].residual) for i in c})
    print(f"  optics {c}")
    print(f"    get: {get}")
    print(f"    put: {put}")
    print(f"    residuals in class: {residuals}")

fibers = {}
for i, o in enumerate(family):
    l = erase(o)
    fibers.setdefault((normalize(l.get), normalize(l.put)), []).append(i)
match = {frozenset(c) for c in classes} == {frozenset(v) for v in fibers.values()}

print()
print(f"Components coincide with the fibers of erasure: {match}")
print("Every component collects exactly the optics whose erasure is the same")
print("get/put pair, across different residual shapes: the components of the")
print("optic category over this signature are the lenses.")
