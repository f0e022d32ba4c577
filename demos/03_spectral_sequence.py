"""The filtration spectral sequence: from a double complex to collapse.

Filtering the resolution by tag level gives a double complex whose
columns die after tensoring with R/I, so page 1 is the full grid of cells
with the transfer as its differential.  Page 2 is then supported only at
the unit cell and the last column, and its column sums already equal the
Tor ranks: the sequence collapses, and the code certifies that by exact
rank accounting rather than by trust.
"""

from koszulpow import (RegularSequenceSpec, q_module, verify_identities,
                       e1_page, e2_page, collapse_check, support_blocks)
from koszulpow.spectral import off_support_cells

spec = RegularSequenceSpec.variables(2)
s = 3

print("double complex cells (tag level p, wedge degree q) -> dim:")
for p in range(s):
    for q in range(spec.n_gens + 1):
        print(f"  ({p},{q}): {q_module(spec, p, q).dim}")
print("transfer identities:", verify_identities(spec, s).summary())

print()
p1 = e1_page(spec, s)
for line in p1.grid_lines():
    print(line)

print()
p2 = e2_page(spec, s)
for line in p2.grid_lines():
    print(line)
print("cells outside the predicted support:", off_support_cells(p2))

print()
rep = collapse_check(spec, s)
for line in rep.lines():
    print(line)

print()
print("== block structure of a transfer map ==")
blocks = support_blocks(*p1.d1[(0, 2)])
for b in blocks.blocks:
    print(f"  support {set(b.support)}: shape {b.shape}")
print("blockwise divisors merged:", blocks.merged_divisors)
print("whole-matrix divisors:    ", blocks.global_divisors)
print("decomposition is faithful:", blocks.ok)
