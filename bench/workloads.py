"""The four benchmark workloads: inputs, the timed call, and correctness gates.

Every workload hands out its items in decks. A deck has a fixed composition
and a seeded order, so a run of whole decks always has the same mix, and the
deck is the window over which throughput is taken. The timed call touches
only the package; checks against the closed-form oracle run outside it.

Oracle (real pure input, k = cos(a+t)/cos(a-t), D = cos^2 g + k^2 sin^2 g):
    p = cos^2(a-t) D,  F_m = 4 k^2 / D^2,  p F_m = 4 cos^2(a+t) / D,
    q = k^2 sin^2 g / D  (conditional minus fraction).
Real mixed input with Bloch vector (r_x, 0, r_z):
    p = (1 + r_z cos 2a + r_x sin 2a cos 2g) / 2.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
import time
import warnings
from typing import NamedTuple, Optional

import numpy as np

import reference
import wva_costlab as w
from wva_costlab import experiment as wexp

BASIS = w.ReferenceBasis.standard()
SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]])
SIGMA_Z = np.diag([1.0, -1.0])
RATES = w.CostRates(1.0, 1.0, 1)

# Relative deviations below this are within the rounding error of the oracle
# expressions themselves, so they are reported as this floor.
ORACLE_FLOOR = 1e-12
EXACT_TOL = 1e-5
MIXED_P_TOL = 1e-9
CUTOFF = 1e-2  # sampled points keep |cos(alpha +- theta)| above this


def rel_err(value, reference):
    return max(abs(value / reference - 1.0), ORACLE_FLOOR)


def pure_oracle(theta, alpha, g):
    """(p, F_m, p F_m, q) from the closed forms."""
    c_plus, c_minus = math.cos(alpha + theta), math.cos(alpha - theta)
    k = c_plus / c_minus
    d = math.cos(g) ** 2 + k * k * math.sin(g) ** 2
    return c_minus**2 * d, 4.0 * k * k / d**2, 4.0 * c_plus**2 / d, k * k * math.sin(g) ** 2 / d


def draw_pure_point(rng):
    """theta in (0, pi/4], alpha in [-pi/2, pi/2], g log-uniform in [1e-3, 0.1]."""
    while True:
        theta = math.pi / 4.0 - rng.uniform(0.0, math.pi / 4.0)  # excludes 0, includes pi/4
        alpha = rng.uniform(-math.pi / 2.0, math.pi / 2.0)
        if abs(math.cos(alpha + theta)) > CUTOFF and abs(math.cos(alpha - theta)) > CUTOFF:
            return theta, alpha, 10.0 ** rng.uniform(-3.0, -1.0)


def edge_points():
    """The corner of the sampled domain where the oracle deviation is largest.

    theta = pi/4, |cos(alpha - theta)| just above the cutoff and the smallest
    g. Putting these first in every run makes ``oracle_max_rel_err`` report
    the domain's worst case instead of whichever points a seed happens to draw.
    """
    delta = math.asin(CUTOFF * 1.00001)
    theta = math.pi / 4.0
    return [(theta, theta - math.pi / 2.0 + delta, 1e-3), (theta, theta - math.pi / 2.0 - delta, 1e-3)]


def classify_ood(call):
    """True when the package rejects an out-of-domain call with a WvaError."""
    with warnings.catch_warnings(), np.errstate(all="ignore"):
        warnings.simplefilter("ignore")
        try:
            call()
        except w.WvaError:
            return True
        except Exception:  # a non-WvaError escape is a defect, not a crash of the run
            return False
    return False


class Outcome(NamedTuple):
    """Result of checking one item."""

    ok: bool  # passed its gates
    err: Optional[float] = None  # largest relative deviation from the oracle
    ood: bool = False  # an out-of-domain request
    rejected: bool = False  # ... that the package rejected as documented


class Workload:
    name = ""
    deck_size = 0
    uses_processes = False

    def __init__(self, seed, root):
        self.seed = seed
        self.root = root

    def rng(self, *key):
        return np.random.default_rng([self.seed, *key])

    def deck(self, index):
        raise NotImplementedError

    def run(self, item):
        raise NotImplementedError

    def check(self, item, result):
        raise NotImplementedError

    def reference(self):
        """Seconds taken by one run of the fixed reference work (reference.py)."""
        start = time.perf_counter()
        reference.block()
        return time.perf_counter() - start

    def ood_panel(self):
        """Out-of-domain calls, run untimed once per run: list of callables."""
        return []

    def finish(self):
        """Checks that need the whole run; returns False on a failure."""
        return True


class ExactSweep(Workload):
    """One item is one pure-input scenario point, as the ``qfi`` subcommand computes it."""

    name = "exact-sweep"
    deck_size = 25

    def deck(self, index):
        rng = self.rng(index)
        points = [draw_pure_point(rng) for _ in range(self.deck_size)]
        if index == 0:
            points[:2] = edge_points()
        return points

    def run(self, item):
        return qfi_report(*item)

    def check(self, item, result):
        theta, alpha, g = item
        p, fm, pfm, omega = result
        p_o, fm_o, pfm_o, q_o = pure_oracle(theta, alpha, g)
        p_plus, p_minus = wexp._readout_probabilities.__wrapped__(theta, alpha, g)
        err = max(rel_err(p, p_o), rel_err(fm, fm_o), rel_err(pfm, pfm_o),
                  rel_err(p_minus / (p_plus + p_minus), q_o))
        ok = err <= EXACT_TOL and pfm <= 4.0 * omega * (1.0 + 1e-3)
        return Outcome(ok, err)

    def ood_panel(self):
        nan, inf, t, a = math.nan, math.inf, math.pi / 6.0, -math.pi / 6.0
        cases = [(t, a, nan), (t, inf, 0.01), (t, a, inf), (1.2, a, 0.01), (-0.3, a, 0.01),
                 (t, math.pi / 2.0 - t, 0.01)]  # last: cos(alpha + theta) = 0, no readout signal
        return [lambda c=c: qfi_report(*c) for c in cases]


def qfi_report(theta, alpha, g):
    """What ``qfi`` computes for one point; returns the values the gates need."""
    setup = w.real_superposition_setup(theta, alpha, g)
    res = w.postselect(setup)
    fm = w.fm_exact(setup)
    pfm, _ = w.probabilistic_qfi(setup)
    w.cfi_discrete(w.conditional_outcome_model(theta, alpha), g)
    omega = setup.omega
    coherence = w.l1_coherence(BASIS.superposition(theta), BASIS)
    cost = w.cost_point(4.0 * omega, pfm, fm, RATES)
    w.tradeoff_slack(cost, coherence)
    w.classify_region(cost)
    return res.p, fm, pfm, omega


class MixedInput(Workload):
    """One item is one mixed system input through postselect_mixed and qfi_mixed."""

    name = "mixed-input"
    deck_size = 10
    KINDS = ("incoherent",) * 4 + ("degenerate",) * 2 + ("coherent",) * 4

    def deck(self, index):
        rng = self.rng(index)
        items = []
        for kind in rng.permutation(self.KINDS):
            alpha = rng.uniform(-math.pi / 2.0 + 0.05, math.pi / 2.0 - 0.05)
            g = 10.0 ** rng.uniform(-3.0, -1.0)
            if kind == "incoherent":
                mu = rng.uniform(0.05, 0.45) if rng.random() < 0.5 else rng.uniform(0.55, 0.95)
                rx, rz = 0.0, 2.0 * mu - 1.0
            elif kind == "degenerate":
                rx, rz = 0.0, 0.0
            else:
                radius, phase = rng.uniform(0.1, 0.95), rng.uniform(0.0, 2.0 * math.pi)
                rx, rz = radius * math.cos(phase), radius * math.sin(phase)
            items.append((str(kind), rx, rz, alpha, g))
        return items

    def run(self, item):
        return mixed_report(*item[1:])

    def check(self, item, result):
        kind, rx, rz, alpha, g = item
        p, qfi, omega = result
        p_o = 0.5 * (1.0 + rz * math.cos(2 * alpha) + rx * math.sin(2 * alpha) * math.cos(2 * g))
        err = rel_err(p, p_o)
        ok = err <= MIXED_P_TOL
        if kind != "coherent":
            ok = ok and qfi <= 4.0 * omega + 1e-4
        return Outcome(ok, err)

    def ood_panel(self):
        nan, inf = math.nan, math.inf
        cases = [(0.3, 0.4, -0.5, nan), (0.3, 0.4, inf, 0.02), (0.3, 0.4, -0.5, inf),
                 (0.9, 0.8, -0.5, 0.02), (nan, 0.4, -0.5, 0.02)]
        return [lambda c=c: mixed_report(*c) for c in cases]


def mixed_report(rx, rz, alpha, g):
    rho = w.DensityMatrix(0.5 * (np.eye(2) + rx * SIGMA_X + rz * SIGMA_Z))
    setup = w.WvaSetup(
        psi_si=rho,
        psi_sf=BASIS.superposition(alpha),
        phi_mi=BASIS.superposition(math.pi / 4.0),
        A=BASIS.sigma(),
        M=BASIS.sigma(),
        g=g,
    )
    p, _ = w.postselect_mixed(setup)
    qfi = w.qfi_mixed(w.postselected_meter_family(setup), g)
    return p, qfi, setup.omega


# The C08 cells: theta = pi/6, two couplings, four postselection angles.
C08_THETA = math.pi / 6.0
C08_GS = (0.0349, 0.0698)
C08_ALPHAS = (-math.pi / 6.0, -math.pi / 5.0, -math.pi / 4.5, -math.pi / 4.0)
NU = 700
N_REPS = 200


class Campaign(Workload):
    """One item is one run_campaign call on a C08 cell under one stopping rule."""

    name = "campaign"
    deck_size = 2 * len(C08_GS) * len(C08_ALPHAS)

    def __init__(self, seed, root):
        super().__init__(seed, root)
        self.cells = []
        for g in C08_GS:
            for alpha in C08_ALPHAS:
                p = pure_oracle(C08_THETA, alpha, g)[0]
                self.cells.append((alpha, g, w.FixedPostselected(NU)))
                self.cells.append((alpha, g, w.FixedPrepared(round(NU / p))))
        self.first = None

    def deck(self, index):
        rng = self.rng(index)
        order = rng.permutation(len(self.cells))
        seeds = rng.integers(0, 2**63, size=len(self.cells))
        return [(*self.cells[i], int(s)) for i, s in zip(order, seeds)]

    def run(self, item):
        alpha, g, stopping, master_seed = item
        config = w.ExperimentConfig(C08_THETA, alpha, g, stopping, N_REPS, master_seed)
        return w.run_campaign(config)

    def check(self, item, report):
        alpha, g, stopping, _ = item
        if self.first is None:
            self.first = (item, report.per_trial)
        ok = len(report.per_trial) == N_REPS
        for counts, _ in report.per_trial:
            ok = ok and counts.n_plus + counts.n_minus == counts.n_postselected <= counts.n_prepared
            if isinstance(stopping, w.FixedPostselected):
                ok = ok and counts.n_postselected == stopping.nu
            else:
                ok = ok and counts.n_prepared == stopping.n
        p_o, fm_o, pfm_o, _ = pure_oracle(C08_THETA, alpha, g)
        prepared = sum(c.n_prepared for c, _ in report.per_trial)
        sigma = math.sqrt(p_o * (1.0 - p_o) / prepared)
        ok = ok and abs(report.p_empirical - p_o) <= 6.0 * sigma
        err = max(rel_err(report.p_exact, p_o), rel_err(report.fm_exact, fm_o),
                  rel_err(report.p_exact * report.fm_exact, pfm_o))
        return Outcome(ok and err <= EXACT_TOL, err)

    def finish(self):
        """C11: the same configuration run twice gives identical trials."""
        item, per_trial = self.first
        return self.run(item).per_trial == per_trial

    def ood_panel(self):
        t, a = C08_THETA, -math.pi / 6.0
        stop = w.FixedPostselected(50)
        cases = [(t, a, math.nan), (t, a, -0.05), (t, a, 1.2), (t, math.inf, 0.03),
                 (1.2, a, 0.03), (t, math.pi / 2.0 - t, 0.03)]
        return [lambda c=c: w.run_campaign(w.ExperimentConfig(*c, stop, 20, 1)) for c in cases]


class Cli(Workload):
    """One item is one ``python -m wva_costlab.cli`` process, run in a closed loop."""

    name = "cli"
    uses_processes = True
    # (subcommand, flavour): in-domain requests plus the out-of-domain share.
    # The incoherent-ceiling suite (about 1 s) runs inside the full-suite
    # request only, so each deck has a single slow request and the tail
    # percentile never sits on the edge between request classes.
    DECK = (
        ("qfi", ""), ("qfi", ""), ("qfi", ""), ("qfi", ""),
        ("curve", "csv"), ("curve", "csv"), ("curve", "json"), ("curve", "json"),
        ("simulate", ""), ("simulate", ""),
        ("verify", "overlap-identity"), ("verify", "tradeoff-bound"),
        ("verify", "oracle-agreement"), ("verify", "all"),
        ("ood", "simulate-g-nan"), ("ood", "simulate-g-negative"), ("ood", "simulate-g-above-max"),
        ("ood", "qfi-alpha-inf"), ("ood", "qfi-theta-outside"), ("ood", "curve-theta-outside"),
    )
    deck_size = len(DECK)

    def __init__(self, seed, root):
        super().__init__(seed, root)
        self.entry = [sys.executable, "-m", "wva_costlab.cli"]  # a traced run swaps this
        self.env = child_env(root)

    def deck(self, index):
        rng = self.rng(index)
        items = []
        for pos in rng.permutation(self.deck_size):
            kind, flavour = self.DECK[pos]
            point = draw_pure_point(rng)
            outside = rng.uniform(math.pi / 4.0 + 0.01, math.pi / 2.0 - 0.01)
            items.append((kind, flavour, cli_args(kind, flavour, point, outside, rng)))
        if index == 0:
            # The first qfi request moves to the domain edge, as in exact-sweep,
            # and to the front, where it doubles as the warm-up item.
            first = next(i for i, item in enumerate(items) if item[0] == "qfi")
            del items[first]
            items.insert(0, ("qfi", "", cli_args("qfi", "", edge_points()[0], None, rng)))
        return items

    def run(self, item):
        argv = self.entry + item[2]
        return subprocess.run(argv, env=self.env, cwd=self.root, capture_output=True,
                              text=True, timeout=120)

    def reference(self):
        """An item is a process start, imports and a little numpy work; so is
        the reference here. In-process blocks tracked these items poorly."""
        start = time.perf_counter()
        subprocess.run([sys.executable, reference.__file__], env=self.env, cwd=self.root,
                       check=True, timeout=120)
        return time.perf_counter() - start

    def check(self, item, proc):
        kind, flavour, argv = item
        if kind == "ood":
            lines = proc.stderr.strip().splitlines()
            clean = proc.returncode == 1 and len(lines) == 1 and "Traceback" not in proc.stderr
            return Outcome(True, ood=True, rejected=clean)
        if proc.returncode != 0 or "Traceback" in proc.stderr:
            return Outcome(False)
        if kind == "curve" and flavour == "csv":
            rows = proc.stdout.splitlines()
            ok = rows[0] == "theta,coherence_l1,alpha,cp_norm,cm_norm,slack" and len(rows) > 1
            ok = ok and all(len([float(x) for x in r.split(",")]) == 6 for r in rows[1:])
            return Outcome(ok)
        try:
            payload = json.loads(proc.stdout)
        except json.JSONDecodeError:
            return Outcome(False)
        if kind == "verify":
            return Outcome(payload["all_passed"] is True)
        if kind == "curve":
            return Outcome(isinstance(payload, list) and len(payload) > 0)
        theta, alpha, g = (payload[k] for k in (("theta", "alpha", "g") if kind == "qfi"
                                                  else ("theta", "alpha", "g_true")))
        p_o, fm_o, pfm_o, _ = pure_oracle(theta, alpha, g)
        errs = [rel_err(payload["p_exact"], p_o), rel_err(payload["fm_exact"], fm_o)]
        if kind == "qfi":
            errs.append(rel_err(payload["f_m_exact"], pfm_o))
        err = max(errs)
        return Outcome(err <= EXACT_TOL, err)


def cli_args(kind, flavour, point, outside, rng):
    theta, alpha, g = (repr(x) for x in point)
    if kind == "qfi":
        return ["qfi", "--theta", theta, "--alpha", alpha, "--g", g]
    if kind == "curve":
        return ["curve", "--theta", theta, "--format", flavour]
    if kind == "verify":
        return ["verify"] if flavour == "all" else ["verify", "--suite", flavour]
    # simulate runs on a C08-like cell, where postselection is never starved.
    cell = ["simulate", "--theta", repr(C08_THETA),
            "--alpha", repr(rng.uniform(-math.pi / 4.0, -math.pi / 6.0))]
    if kind == "simulate":
        return cell + ["--g", repr(rng.uniform(0.03, 0.07)), "--nu", "200", "--reps", "100",
                       "--seed", str(int(rng.integers(0, 2**63)))]
    return {
        "simulate-g-nan": cell + ["--g", "nan", "--reps", "20"],
        "simulate-g-negative": cell + ["--g", "-0.05", "--reps", "20"],
        "simulate-g-above-max": cell + ["--g", "1.2", "--reps", "20"],
        "qfi-alpha-inf": ["qfi", "--theta", theta, "--alpha", "inf", "--g", g],
        "qfi-theta-outside": ["qfi", "--theta", repr(outside), "--alpha", alpha, "--g", g],
        "curve-theta-outside": ["curve", "--theta", repr(outside)],
    }[flavour]


def child_env(root):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(root, "src")
    return env


WORKLOADS = {cls.name: cls for cls in (ExactSweep, MixedInput, Campaign, Cli)}
