"""Check the coefficient algebra against literal matrix mechanics.

The engine never represents operators as matrices; it tracks five real
coefficients per observable.  This script rebuilds q, p, and the clock
reading as dense truncated number-basis matrices, integrates the same
equations of motion, the clock's among them (fourth-order steps, each leg
folded into one power of the step map and applied to only the matrix
entries it can reach), and compares the commutators, dense matrix
products, entry by entry: all four times and both clock pairs come from
one (4, 3, n, n) stack of frames and one stacked commutator.
"""

import numpy as np

from photonbox import (
    BoxParams,
    Harmonic,
    OracleConfig,
    Pair,
    PhysConstants,
    build_workspace,
    closed_form_grid,
    oracle_commutator,
    oracle_evolve_grid,
)

consts = PhysConstants(hbar=1.0, c=1.0, g=1.0)
box = BoxParams(M=1000.0, m=1.0, potential=Harmonic(k=1000.0))

config = OracleConfig(n=60, buffer=8, step=1e-3)
ws = build_workspace(config, consts)
rsize = config.n - config.buffer
print(f"truncated basis: {config.n} levels, comparing the leading {rsize}x{rsize} block")

comm = (ws.q0 @ ws.p0 - ws.p0 @ ws.q0) / (1j * consts.hbar)
ccr_dev = np.max(np.abs(comm[:rsize, :rsize] - np.eye(rsize)))
print(f"canonical commutator block deviation at build time: {ccr_dev:.3e}")
print()

print(f"{'t':>6} {'pair':>8} {'engine chi':>14} {'block dev':>12} {'probe dev':>12}")
ts = (0.5, 1.0, 2.0, 4.0)
_, chis = closed_form_grid(consts, box, ts)
frames = oracle_evolve_grid(ws, consts, box, ts)  # (time, Q/P/Qcl, n, n)
# [P, Qcl] and [Q, Qcl] at every time, in the column order of chis
chi = oracle_commutator(ws, frames[:, 1::-1], frames[:, 2:])
block = chi[..., :rsize, :rsize] - chis[..., None, None] * np.eye(rsize)
block_dev = np.abs(block).max(axis=(-2, -1))
probe_dev = np.abs(chi[..., 0, 0] - chis)  # the vacuum expectation values
for t, refs, blocks, probes in zip(ts, chis, block_dev, probe_dev):
    for pair, ref, blk, prb in zip((Pair.P_QCL, Pair.Q_QCL), refs, blocks, probes):
        print(f"{t:>6.2f} {pair.value:>8} {ref:>14.6e} {blk:>12.3e} {prb:>12.3e}")

print()
print("the dense matrices agree with the five-coefficient bookkeeping to")
print("integrator precision, so nothing about the closed forms leans on")
print("the affine shortcut being assumed in advance.")
