"""Wess-Zumino machinery on U(N)-valued torus fields: windings, normal
forms, the product-formula anomaly, the anomaly-free adjoint formula, and
the equality of the amplitude with the Berry phase.
"""

import numpy as np

from topoinv import (build_trs_frame, builtin_model, make_projector_family,
                     normal_form_field, winding_pair, wz_amplitude_phi)
from topoinv.core import TRSOperator
from topoinv.wz import (apw_functional, inverse_field, product_field,
                        pw_functional, random_unwindable_field)

print("normal forms diag(e^{i(n k1 + m k2)}, 1, ...) carry the homotopy data:")
for n, m in [(1, 0), (0, 1), (2, -1)]:
    w1, w2 = winding_pair(normal_form_field(n, m, 2))
    print(f"  windings of normal({n:+d},{m:+d}) = ({w1.snapped:+d},{w2.snapped:+d})")

print("\nproduct formula defect PW[g,h] on normal forms (the anomaly):")
for (ng, mg), (nh, mh) in [((1, 0), (0, 1)), ((2, 0), (0, 1)), ((1, 1), (1, -1))]:
    g = normal_form_field(ng, mg, 2)
    h = normal_form_field(nh, mh, 2)
    val = pw_functional(g, h)
    combo = ng * mh - mg * nh
    tag = "anomalous (odd)" if combo % 2 else "trivial mod 2 pi"
    print(f"  PW[({ng},{mg}),({nh},{mh})] = {val / np.pi:+.6f} pi   <- {tag}")

print("\nadjoint version APW[g,h] always lands in 2 pi Z:")
for (ng, mg), (nh, mh) in [((1, 0), (0, 1)), ((1, 1), (1, -1))]:
    g = normal_form_field(ng, mg, 2)
    h = normal_form_field(nh, mh, 2)
    print(f"  APW[({ng},{mg}),({nh},{mh})] = {apw_functional(g, h) / np.pi:+.6f} pi")

print("\n... and for random smooth fields with explicit extensions:")
for seed in range(3):
    g, ext_g = random_unwindable_field(32, 3, seed=seed)
    h, ext_h = random_unwindable_field(32, 3, seed=seed + 100)
    ext_ghg = product_field(product_field(ext_g, ext_h), inverse_field(ext_g))
    val = apw_functional(g, h, ext_ghg=ext_ghg, ext_h=ext_h)
    print(f"  seed {seed}: |exp(i APW) - 1| = {abs(np.exp(1j * val) - 1):.2e}")

print("\nthe amplitude of exp(2 pi i t P(k)) is the Berry phase; with time")
print("reversal the square root is well defined and tracks the Z2 index:")
theta = TRSOperator.standard(4)
for lv, label in [(0.4, "topological"), (2.5, "trivial")]:
    spec = builtin_model("kane_mele", {"lambda_so": 0.3, "lambda_v": lv})
    fam = make_projector_family(spec, fermi_level=0.0)
    parts = {}
    for name, k1 in (("T0", 0.0), ("Tpi", np.pi)):
        parts[name] = wz_amplitude_phi(build_trs_frame(fam.loop(0, k1), theta,
                                                       n_grid=128))
    ratio = parts["Tpi"].sqrt_amplitude / parts["T0"].sqrt_amplitude
    print(f"  {label:>11}: sqrt-amplitude ratio Tpi/T0 = "
          f"{ratio.real:+.6f}{ratio.imag:+.6f}j")
