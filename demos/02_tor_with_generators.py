"""Tor of R/I against R/I^s: ranks, explicit generators, and the
vanishing product table.

Three routes compute the same ranks: the critical cells of the
certified Morse matching on the tensored complex, a cokernel count
through the transfer map, and the column sums of the degree-2 page of
the filtration spectral sequence.
For s >= 2 every product of positive-degree classes is a boundary; the
s = 1 control shows that vanishing is a real phenomenon, not an artifact
of the bookkeeping.
"""

from koszulpow import RegularSequenceSpec, tor, koszul_regularity_probe
from koszulpow.parse import parse_poly

spec = RegularSequenceSpec.variables(2)

print("== s = 2 ==")
rep = tor(spec, 2)
print("ranks by degree:", rep.ranks)
print("routes agree:", rep.routes_agree)
for name, ranks in sorted(rep.routes.items()):
    print(f"  {name:>10}: {ranks}")
print("generators (residue classes):")
for n, gens in enumerate(rep.generator_strings()):
    print(f"  degree {n}: {gens}")
print("all pairwise products of positive-degree classes vanish:",
      rep.products.all_zero)

print()
print("== s = 1 control: the product table is NOT zero ==")
control = tor(spec, 1)
for line in control.products.lines():
    print(" ", line)

print()
print("== the regularity probe catches a bad sequence ==")
bad = RegularSequenceSpec.explicit([parse_poly("x1", 2),
                                    parse_poly("x1", 2)])
probe = koszul_regularity_probe(bad)
print(probe.summary())
good = koszul_regularity_probe(spec)
print(good.summary())
