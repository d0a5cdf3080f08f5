#!/usr/bin/env python3
"""Shrinking trajectory families and their small-gap exponents.

A family gamma_r of curves with endpoint gap r carries three matrices per r:
the endpoint-variation matrix A(r), its velocity-column inverse, and the
flow Jacobian J(r).  The rates at which det A, |A^{-1} e_v| and det J scale
as r -> 0 decide whether the family can certify kernel positivity down to
the diagonal.  Two built-in families bracket the landscape:

  straight   - kinematically admissible but naive; its rates (4, -2, 5)
               miss the critical targets (2, -1/2, 6): det A and the
               inverse column overshoot theirs, the Jacobian falls short,
               and the report flags it as non-critical.
  log_osc    - logarithmically oscillating in the gap; it hits the det and
               inverse-column targets, at the price of a kinetic-relation
               defect that only closes like a power of the oscillation
               scale (the integral form of the relation does close).

Usage:
    python3 demos/trajectory_families.py
"""
from kolkit.trajectories import check_properties, log_oscillatory_family, straight_family

ROWS = (
    ("det A rate        ", "det_A_exponent", "det_A_rate"),
    ("inv column rate   ", "inv_column_exponent", "inv_column_rate"),
    ("jacobian rate     ", "jacobian_exponent", "jacobian_rate"),
    ("kinetic residual  ", "kinetic_residual", "kinetic_relation"),
    ("kinetic (integral)", "kinetic_residual_integral", "kinetic_relation_integral"),
)

for name, family in (("straight", straight_family(1.0)),
                     ("log_osc", log_oscillatory_family(1.0))):
    rep = check_properties(family)
    print(f"== {name} ==")
    for label, attr, flag in ROWS:
        val = getattr(rep, attr)
        print(f"  {label} {val:>12.4e}   pass={rep.pass_flags[flag]}")
    print(f"  endpoints exact    pass={rep.pass_flags['endpoints']}")
    print(f"  critical overall   {rep.pass_flags['critical']}")
    if rep.warnings:
        for w in rep.warnings:
            print(f"  note: {w}")
    print()

print("neither family is critical: the straight one decays too fast, the")
print("oscillating one trades the pointwise kinetic relation for the sharp")
print("rates. the gap between them is exactly what makes the small-gap")
print("positivity question delicate.")
