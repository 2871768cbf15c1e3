"""Descent flows reproducing the sphere branch.

With area penalized and volume rewarded (lam1=1, lam2=-1) the unique critical
shape is the round sphere of radius -2*lam1/lam2 = 2.  The penalized energy
has a strict maximum there along the sphere family, so the reproduction
vehicle is descent on the squared-residual norm, whose global minimum is the
critical sphere.
"""

import numpy as np

import helfrich as hf
from helfrich.energy import EnergyParams
from helfrich.flow import FlowConfig, best_fit_sphere, flow_run

seed_mesh = hf.perturbed_sphere(2.0, 0.05, 3)
_, r0, rms0 = best_fit_sphere(seed_mesh)
print(f"seed: perturbed sphere, best-fit radius {r0:.4f}, sphericity rms {rms0:.4f}")

print("\n=== residual-norm descent, (lam1, lam2) = (1, -1) ===")
cfg = FlowConfig(mode="residual_descent", initial_step=0.1,
                 max_iterations=40, grad_tol=1e-8, log_every=2)
trace = flow_run(seed_mesh, EnergyParams(0.0, 1.0, -1.0), cfg)
for row in trace.rows:
    print(f"  it {row.iteration:3d}  objective {row.objective:10.3e}  "
          f"fit radius {row.fit_radius:.5f}  rms {row.fit_rms:.2e}")
last = trace.rows[-1]
print(f"verdict: {trace.verdict}, stop reason {trace.meta['stop_reason']} "
      f"({trace.message})")
print(f"{trace.iterations} iterations, {trace.meta['jacobian_builds']} Jacobian builds")
print(f"endpoint radius {last.fit_radius:.5f} vs predicted 2.0 "
      f"({abs(last.fit_radius - 2) / 2:.3%} off), rms {last.fit_rms:.2e}")

print("\n=== pure bending descent, (lam1, lam2) = (0, 0) ===")
cfg2 = FlowConfig(mode="energy_descent", initial_step=0.05,
                  max_iterations=1500, grad_tol=1e-10, log_every=5)
trace2 = flow_run(seed_mesh, EnergyParams(), cfg2)
for row in trace2.rows:
    print(f"  it {row.iteration:4d}  willmore {row.energy:.6f}  "
          f"rms {row.fit_rms:.2e}")
print(f"verdict: {trace2.verdict} ({trace2.message})")
w = trace2.rows[-1].energy
print(f"final Willmore {w:.6f} is {abs(w / (4 * np.pi) - 1):.3%} from 4*pi")

print("\n=== area-only penalty shrinks the sphere forever ===")
cfg3 = FlowConfig(mode="energy_descent", initial_step=0.05,
                  max_iterations=30, grad_tol=1e-13, log_every=10)
trace3 = flow_run(hf.icosphere(1.0, 2), EnergyParams(0.0, 1.0, 0.0), cfg3)
for row in trace3.rows:
    print(f"  it {row.iteration:3d}  area {row.area:.4f}")
print(f"verdict: {trace3.verdict} (no closed critical shape on this branch)")
