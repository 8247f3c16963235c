#!/usr/bin/env python3
"""Simulate the photon-counting estimation campaign end to end.

Each trial prepares single photons until 700 pass postselection, reads the
survivors out in the recombined meter basis, and estimates g by maximum
likelihood from the minus-count fraction. Repeating the trial many times
turns the estimator variance into an empirical information value,
F_m ~ 1 / (nu * var), which lands the campaign as one point in the cost
plane next to the theory curve.

Worth knowing: with only ~700 survivors the expected minus count at small g
can be a handful of photons, and there the estimator variance is visibly
inflated over its asymptotic value (the empirical F_m undershoots the exact
one by ~20% at g = 0.0349, alpha = -pi/6). That is a property of the counting
protocol itself, reproduced faithfully here.
"""

import numpy as np

import wva_costlab as w

theta = np.pi / 6
basis = w.ReferenceBasis.standard()

print("== one trial under the microscope ==")
config = w.ExperimentConfig(
    theta=theta,
    alpha=-np.pi / 6,
    g_true=0.0349,
    stopping=w.FixedPostselected(700),
    n_reps=1000,
    master_seed=1,
)
counts = w.run_trial(config, 0)
print(f"counts: {counts}")
print(f"estimate from this trial: g = {w.mle_g(counts, theta, config.alpha):.6f}"
      f"  (true {config.g_true})")
print(f"wave-plate settings that realize it: "
      f"{ {k: round(v, 5) for k, v in w.hwp_settings(theta, config.alpha, config.g_true).items()} }")

print("\n== campaigns across the postselection sweep ==")
print(f"{'g':>7} {'alpha':>8} | {'p_emp':>7} {'fm_emp':>8} {'fm_exact':>8} "
      f"{'ratio':>6} | {'cp_emp':>7} {'cm_emp':>7} {'slack':>7}")
for g in (0.0349, 0.0698):
    for alpha in (-np.pi / 6, -np.pi / 5, -np.pi / 4.5, -np.pi / 4):
        report = w.run_campaign(
            w.ExperimentConfig(theta, alpha, g, w.FixedPostselected(700), 1000, 1)
        )
        print(
            f"{g:7.4f} {alpha:8.4f} | {report.p_empirical:7.4f}"
            f" {report.fm_empirical:8.3f} {report.fm_exact:8.3f}"
            f" {report.fm_empirical / report.fm_exact:6.3f} |"
            f" {report.cost_empirical.cp_norm:7.4f}"
            f" {report.cost_empirical.cm_norm:7.4f}"
            f" {report.slack_empirical:+7.4f}"
        )

print("\nratios near 1 mean the maximum-likelihood readout attains the")
print("information bound; the shortfall at g = 0.0349, alpha = -pi/6 is the")
print("small-count inflation described in the module docstring.")

print("\n== determinism ==")
again = w.run_campaign(
    w.ExperimentConfig(theta, -np.pi / 6, 0.0349, w.FixedPostselected(700), 1000, 1)
)
first = w.run_campaign(
    w.ExperimentConfig(theta, -np.pi / 6, 0.0349, w.FixedPostselected(700), 1000, 1)
)
print(f"two campaigns with the same master seed are identical: {again == first}")
