"""Watch the box observables stop commuting with the clock.

At the final measurement (t = 0 in the backward convention) the clock
reading commutes with everything.  Toward the emission event the
commutators grow: linearly (then quadratically) in free fall, and as
sin/cos oscillations on a spring, recommuting at every full period.
"""

import math

from photonbox import BoxParams, FreeFall, Harmonic, PhysConstants, closed_form_grid

consts = PhysConstants(hbar=1.0, c=1.0, g=1.0)
ff = BoxParams(M=1000.0, m=1.0, potential=FreeFall())
ho = BoxParams(M=1000.0, m=1.0, potential=Harmonic(k=1000.0))

print("free fall: chi(P, Qcl) grows like g*t, chi(Q, Qcl) like g*t^2/(2M)")
print(f"{'t':>8} {'chi_p_qcl':>14} {'chi_q_qcl':>14}")
ts = (0.0, 0.5, 1.0, 2.0, 4.0, 8.0)
_, chis = closed_form_grid(consts, ff, ts)
for t, (cp, cq) in zip(ts, chis.tolist()):
    print(f"{t:>8.2f} {cp:>14.6e} {cq:>14.6e}")

print()
print("harmonic suspension (omega = 1): oscillation and revival")
print(f"{'omega*t':>8} {'chi_p_qcl':>14} {'chi_q_qcl':>14}")
fractions = {"pi/2": 0.25, "pi": 0.5, "3pi/2": 0.75, "2pi": 1.0}  # of a period
_, chis = closed_form_grid(consts, ho, [2.0 * math.pi * frac for frac in fractions.values()])
for label, (cp, cq) in zip(fractions, chis.tolist()):
    print(f"{label:>8} {cp:>14.6e} {cq:>14.6e}")

print()
print("at omega*t = 2*pi both commutators return to zero: the spring has")
print("swallowed the which-mass information and weighing tells you nothing")
print("about when the shutter opened.")
