"""Berry phase of a band projector along a momentum loop, four ways.

The winding two-level model h(k) = cos(k1) sx + sin(k1) sy has flat bands at
+-1; its lower band picks up a Berry phase of exactly -1 around the k1 loop.
We compute that number by
  1. integrating the connection of a trivializing frame,
  2. the determinant of the parallel-transport holonomy,
  3. the gauge-invariant overlap-product (link variable) method,
  4. the Wess-Zumino amplitude of exp(2 pi i t P(k)),
and watch all four agree to near machine precision.
"""

import numpy as np

from topoinv import (berry_connection, berry_phase, build_frame, builtin_model,
                     make_projector_family, overlap_berry_phase,
                     parallel_transport, wilson_holonomy,
                     wz_amplitude_phi)

family = make_projector_family(builtin_model("flat_two_band"))
loop = family.loop(1, 0.0)   # fix k2, walk the k1 circle

print("transporting the lower band around the loop, with its periodic trivialization W ...")
tr = parallel_transport(loop, n_grid=256)   # 4 Magnus steps per grid interval
print(f"  intertwining residual : {tr.intertwine_residual:.2e}")
print(f"  W periodicity residual: {tr.w_periodicity:.2e}")

frame = build_frame(tr)   # e_a(k) = W(k) e_a(k0), e_a(k0) the eigenbasis of P(k0)
conn = berry_connection(frame)
phase = berry_phase(conn)
print(f"\n1. frame connection:   loop integral of A = {conn.loop_integral:+.12f}"
      f"  (pi = {np.pi:.12f})")
print(f"   Berry phase        = {phase.raw:+.12f}")

det = np.linalg.det(wilson_holonomy(tr))
print(f"2. holonomy det      = {det:+.12f}")

oracle = overlap_berry_phase(loop, n_grid=2048)
print(f"3. overlap product   = {oracle:+.12f}")

amp = wz_amplitude_phi(tr)   # phi = W psi W^-1 through the same trivialization
print(f"4. WZ amplitude      = {amp.amplitude:+.12f}"
      f"   (action representative {amp.raw_action:+.6f})")

spread = max(abs(phase.raw - det), abs(phase.raw - oracle),
             abs(phase.raw - amp.amplitude))
print(f"\nlargest pairwise disagreement: {spread:.2e}")
