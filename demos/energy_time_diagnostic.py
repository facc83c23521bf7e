"""Compare the operational product against the textbook-style one.

The headline quantity is dE*dT built from the weighing and the clock
reading.  A more familiar-looking pairing divides the box Hamiltonian
spread into the clock spread; this script evaluates that version too,
under both conventions for the elapsed-time denominator, and shows it is
reported but never asserted against the bound.
"""

from photonbox import (
    BoxParams,
    Denominator,
    FreeFall,
    PhysConstants,
    Route,
    closed_form_grid,
    prepare_post_measurement_state,
    propagate_state,
    time_energy_diagnostic,
)

consts = PhysConstants(hbar=1.0, c=1.0, g=1.0)
box = BoxParams(M=1000.0, m=1.0, potential=FreeFall())
state0 = prepare_post_measurement_state(Route.P, 0.5, 0.0, consts)
ts = (0.5, 1.0, 2.0, 4.0)
frames, _ = closed_form_grid(consts, box, ts)
states = [propagate_state(frame, state0, box.m, hbar=consts.hbar) for frame in frames]

print("free fall, momentum route, device_dx = 0.5")
print(f"{'t':>6} {'dH':>12} {'dqcl':>12} {'denominator':>12} {'lhs':>12}")
for t, state in zip(ts, states):
    d = time_energy_diagnostic(state, t, consts, box, box.m)
    print(f"{t:>6.2f} {d.dH:>12.8f} {d.dqcl:>12.8f} {d.denom:>12.8f} {d.lhs:>12.8f}")

print()
print("same, but dividing by the mean clock rate instead of the reading")
print(f"{'t':>6} {'denominator':>12} {'lhs':>12} {'hbar/2':>8}")
for t, state in zip(ts, states):
    d = time_energy_diagnostic(
        state, t, consts, box, box.m, denominator=Denominator.MEAN_CLOCK_RATE
    )
    print(f"{t:>6.2f} {d.denom:>12.8f} {d.lhs:>12.8f} {d.bound:>8}")

print()
print("the ratio dH*dqcl/denominator has no guaranteed floor; depending on")
print("the convention it drifts on either side of hbar/2, which is why the")
print("engine treats it as a diagnostic and reserves the asserted bound for")
print("the operational product dE*dT.")
