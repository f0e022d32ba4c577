"""Freeness over the integers, certified by elementary divisors.

Running the whole construction over Z instead of a field, every tensored
differential turns out to have only unit elementary divisors.  That is a
certificate: images are direct summands, the homology is free, and ranks
cannot change under base change to any field.  The rank probes over F_2,
F_3, F_5 confirm it, and a cooked-up matrix shows what a failure would
look like.
"""

from koszulpow import (ZZ, RegularSequenceSpec, freeness_check,
                       divisor_report, smith_normal_form)

spec = RegularSequenceSpec.variables(2, domain=ZZ)

for s in (1, 2, 3):
    rep = freeness_check(spec, s)
    print(f"s={s}: {rep.summary()}")
    for n, divs in sorted(rep.divisors.items()):
        print(f"  degree {n}: divisors {list(divs)}")
    print(f"  ranks by field: "
          + ", ".join(f"{k}={list(v.values())}"
                      for k, v in sorted(rep.rank_by_field.items())))

print()
print("== what failure looks like ==")
# the Smith form reads sparse rows (column -> entry); divisor_report dense ones
print("SNF of [[2,4],[6,8]]:",
      smith_normal_form([{0: 2, 1: 4}, {0: 6, 1: 8}]).diagonal)
bad = divisor_report({1: [[2, 0], [0, 3]]})
print("certificate verdict:", bad.summary())
