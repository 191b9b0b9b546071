"""The round trip between lenses and optics, and the cell that mediates it.

Every lens runs as an optic whose residual is the whole input (reify);
every optic flattens back to a lens by inlining its forward pass (erase).
Erasing a reified lens gives the lens back exactly. The other round trip
does not return the same optic, but a canonical comparison cell connects
the two, and that cell is not arbitrary: corrupting its witness is caught.
"""

import random

from cartoptics import (
    Interp,
    check_adjunction,
    coherence_suite,
    counit,
    erase,
    lens_normal_eq,
    reify,
)
from cartoptics.sampling import random_lens, random_optic, random_signature

rng = random.Random(7)
sig = random_signature(random.Random(7))
interp = Interp.from_signature(sig)

l = random_lens(rng, sig)
print("Round trip on a random lens: erase(reify(l)) == l up to normal form:")
print(f"  {lens_normal_eq(erase(reify(l)), l)}")
print()

o = random_optic(rng, sig)
cell = counit(o, interp)
print("Round trip on a random optic: reify(erase(o)) is a different optic")
print(f"(residual {cell.src.residual} vs {o.residual}), but the canonical")
print("cell between them validates against both squares.")
print()

print("Law suite over random samples (checked / failed). The last law below")
print("doctors each canonical witness and requires the squares to reject it:")
report = check_adjunction(sig, interp, random.Random(1), n_samples=60)
for name, law in report.laws.items():
    print(f"  {name:<22} {law.checked:>4} / {len(law.failures)}")
print(f"  all passed: {report.passed}")
print()

print("Composition coherence (reifying a composite vs composing reifications):")
coh = coherence_suite(sig, interp, random.Random(2), n_pairs=60, n_triples=25)
for name, law in coh.laws.items():
    print(f"  {name:<22} {law.checked:>4} / {len(law.failures)}")
print(f"  all passed: {coh.passed}")
