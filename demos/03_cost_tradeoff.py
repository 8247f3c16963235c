#!/usr/bin/env python3
"""Preparation cost vs measurement cost, bounded by initial coherence.

Reaching the conventional accuracy target with postselection costs
C_p = (F / f_m) R_p N preparations and C_m = (F / F_m) R_m N detections.
Sweeping the postselection angle traces a boundary in the (C_p, C_m) plane
below which no scheme can operate; the bound's right-hand side is set by the
l1 coherence of the initial state, 2 arccos(sqrt(1 - C^2)). Only a maximally
coherent preparation reaches both minima jointly, and an incoherent one never
enters the advantage region C_m / (R_m N) < 1.
"""

import numpy as np

import wva_costlab as w

basis = w.ReferenceBasis.standard()
rates = w.CostRates(r_p=1.0, r_m=1.0, n_samples=1)

print("== boundary curves for three preparations ==")
for theta in (np.pi / 8, np.pi / 6, np.pi / 4):
    coherence = w.l1_coherence(basis.superposition(theta), basis)
    curve = w.boundary_curve(theta)
    head, tail = curve[0].cost, curve[-1].cost
    print(
        f"theta = {theta:.4f}  C_l1 = {coherence:.4f}: "
        f"curve ({head.cp_norm:.3f}, {head.cm_norm:.3f}) -> "
        f"({tail.cp_norm:.3f}, {tail.cm_norm:.2e}), {len(curve)} points, "
        f"max |slack| = {max(abs(s.slack) for s in curve):.1e}"
    )
print("the left endpoint shows the floor: min C_m/(R_m N) = 1 - C_l1^2 at C_p = R_p N")

print("\n== a few named cost points (theta = pi/6, leading order) ==")
for alpha in (-np.pi / 6, -np.pi / 4, -np.pi / 3):
    point = w.CostPoint.scaled(*w.leading_costs(np.pi / 6, alpha), rates)
    slack = w.tradeoff_slack(point, w.l1_coherence(basis.superposition(np.pi / 6), basis))
    print(
        f"alpha = {alpha:+.4f}: (cp, cm) = ({point.cp_norm:.4f}, {point.cm_norm:.4f})"
        f"  slack = {slack:+.1e}  region = {w.classify_region(point)}"
    )

print("\n== incoherent preparations never reach the advantage region ==")
meter = basis.superposition(np.pi / 4)
rho = w.DensityMatrix.mixture([0.3, 0.7], [basis.ket0, basis.ket1])
for alpha in (-0.8, 0.0, 0.9):
    setup = w.WvaSetup(rho, basis.superposition(alpha), meter, basis.sigma(), basis.sigma(), 0.0349)
    p, _ = w.postselect_mixed(setup)
    fm = w.fm_exact(setup)
    point = w.cost_point(4.0, p * fm, fm, rates)
    print(f"alpha = {alpha:+.2f}: cm_norm = {point.cm_norm:.6f} -> {w.classify_region(point)}")

print("\n== the published form of the bound cannot be saturated ==")
theta = np.pi / 8
printed = w.boundary_curve(theta, printed_form=True)
print(
    f"theta = pi/8 with the unsquared right-hand side: the saturating branch"
    f" misses the bound by up to {max(s.slack for s in printed):.3f} rad"
)
print("(the corrected, squared form is the library default; the other is behind")
print(" printed_form=True / --compat-printed-bound for comparison)")
