"""Build the resolution of R/I^s and watch every structural check pass.

The complex for s=1 is the classical exterior-algebra resolution; for
s >= 2 extra tagged generators appear, the differential mixes the
boundary (wedge factor -> coefficient) with a transfer (wedge factor ->
tag), and the result is still a free resolution.  Everything below is
exact arithmetic; nothing is sampled or approximated.
"""

from koszulpow import (RegularSequenceSpec, build_k_ris, koszul_complex,
                       verify_complex, verify_identities, verify_exactness)
from koszulpow.morse import MorseMatching

spec = RegularSequenceSpec.variables(2)        # R = Q[x1,x2], I = (x1,x2)

print("== the classical case: s = 1 ==")
plain = koszul_complex(spec)
print("dims:", plain.dims())
for line in plain.report_lines():
    print(" ", line)

print()
print("== the second power: s = 2 ==")
c = build_k_ris(spec, 2)
print("dims:", c.dims())
print("generators carry a wedge part e{...} and a tag part t(...):")
for line in c.report_lines():
    print(" ", line)

print()
print("d o d = 0 (symbolic):", verify_complex(c).ok)
ids = verify_identities(spec, 2)
print("transfer identities:", ids.summary())

print()
print("== the Morse complex M that verify ranks ==")
morse = MorseMatching(c, 2, tensored=False)
m = morse.complex()
print("K's module ranks:", c.dims(), " M's:", m.dims(),
      "(the Eagon-Northcott Betti numbers of I^2)")
print("certificate on K's own entries:", morse.failure or "holds")
for line in m.report_lines():
    print(" ", line)

print()
print("== exactness, slice by slice (ranked on M, which has K's homology) ==")
rep = verify_exactness(spec, 2, max_internal=6)
for line in rep.grid_lines():
    print(" ", line)
print("degree-0 dims match the independent Hilbert function:", rep.ok)
print("Hilbert of R/I^2 by degree:", [rep.hilbert[d] for d in range(7)])
