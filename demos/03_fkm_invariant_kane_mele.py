"""The Z2 invariant of the spin-orbit honeycomb model, computed three ways
across the staggered-potential phase transition.

delta : boundary connection integrals (time-reversal symmetric frames on the
        two symmetric loops) minus the half-zone curvature integral, mod 2.
kappa : ratio of square-rooted Wess-Zumino amplitudes times the reduced 3D
        winding term, snapped to +-1.
z2    : lattice link-variable method with Kramers-constrained boundary
        frames (independent oracle).

The transition sits at lambda_v = 3 sqrt(3) lambda_so; everywhere else the
three computations and the sign identity kappa = (-1)^delta must agree.
"""

import numpy as np

from topoinv import (builtin_model, delta_invariant, kappa_invariant,
                     lattice_z2, make_projector_family, z2_ingredients)
from topoinv.core import TRSOperator

LAMBDA_SO = 0.3
theta = TRSOperator.standard(4)
boundary = 3 * np.sqrt(3) * LAMBDA_SO
print(f"transition at lambda_v = {boundary:.4f}\n")
print(f"{'lambda_v':>9} | {'delta':>6} | {'kappa':>6} | {'lattice':>8} | "
      f"{'sqrt phase T0':>22} | agree")
print("-" * 80)

for lv in [0.0, 0.5, 1.0, 1.4, 1.8, 2.2, 2.8]:
    spec = builtin_model("kane_mele", {"lambda_so": LAMBDA_SO, "lambda_v": lv})
    fam = make_projector_family(spec)
    # half zone 49 x 64 points; the boundary loops take 2 * n2 = 128
    ingredients = z2_ingredients(fam, theta, n1=48, n2=64)
    d = delta_invariant(ingredients)
    kap = kappa_invariant(ingredients)
    z2 = lattice_z2(fam, theta, n1=24, n2=48)
    sq = ingredients.wz["T0"].sqrt_amplitude
    consistent = (d.snapped is not None and kap.snapped == (-1) ** d.snapped
                  and z2.snapped == d.snapped)
    ds = "?" if d.snapped is None else str(d.snapped)
    ks = "?" if kap.snapped is None else f"{kap.snapped:+d}"
    print(f"{lv:9.2f} | {ds:>6} | {ks:>6} | {z2.snapped:8d} | "
          f"{sq.real:+.4f}{sq.imag:+.4f}j | {consistent}")

print("\nwith Rashba coupling the spin blocks mix; the machinery is unchanged:")
spec = builtin_model("kane_mele", {"lambda_so": LAMBDA_SO, "lambda_v": 1.0,
                                   "lambda_r": 0.4})
fam = make_projector_family(spec)
ingredients = z2_ingredients(fam, theta, n1=48, n2=64)
d = delta_invariant(ingredients)
kap = kappa_invariant(ingredients)
z2 = lattice_z2(fam, theta, n1=24, n2=48)
print(f"lambda_r=0.4: delta={d.snapped} kappa={kap.snapped} lattice={z2.snapped}")
