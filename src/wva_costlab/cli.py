"""Command-line front end: boundary curves, campaigns, QFI queries, verification.

Subcommands
-----------
curve      Emit the cost-tradeoff boundary curve for one preparation angle.
simulate   Run a seeded photon-counting campaign and report its statistics.
qfi        Report the information quantities of one (theta, alpha, g) scenario.
verify     Run the invariant suites, each on its one fixed panel, and summarize
           pass/fail per suite.

Outputs are deterministic for a fixed configuration (seed included): CSV uses
9 significant digits with '.' as decimal separator, JSON contains only finite
numbers or null, and every file ends with a newline. Exit codes: 0 success,
1 invalid arguments, 2 I/O failure, 3 verification failure.

Costs are reported only on the normalized axes cp = C_p/(R_p N) and
cm = C_m/(R_m N), where the per-sample rates and the sample count cancel, so
no subcommand takes a rate.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys
from typing import Optional

import numpy as np

from .costs import (
    UNIT_RATES,
    boundary_curve,
    classify_region,
    cost_point,
    preparation_coherence,
    tradeoff_slack,
)
from .errors import WvaError
from .experiment import (
    ExperimentConfig,
    FixedPostselected,
    conditional_outcome_model,
    run_campaign,
)
from .fisher import cfi_discrete
from .postselect import (
    fm_exact,
    fm_leading,
    in_weak_regime,
    postselect,
    probabilistic_qfi,
    real_superposition_setup,
    weak_regime_margin,
)
from .states import check_theta, finite_real
from .verify import DEFAULT_SEED, SUITE_NAMES, run_suites

PROG = "wva-costlab"


class _Parser(argparse.ArgumentParser):
    """Argument parser with the documented exit code for invalid arguments."""

    def error(self, message):
        self.exit(1, f"{self.prog}: error: {message}\n")


def _fmt(x: float) -> str:
    return format(float(x), ".9g")


def _json_ready(value):
    if isinstance(value, dict):
        return {k: _json_ready(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_ready(v) for v in value]
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        v = float(value)
        return v if math.isfinite(v) else None
    return value


def _json_text(obj) -> str:
    return json.dumps(_json_ready(obj), indent=2) + "\n"


def _emit(text: str, out_path: Optional[str]) -> int:
    if out_path is None:
        sys.stdout.write(text)
        return 0
    try:
        with open(out_path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        print(f"{PROG}: cannot write {out_path}: {exc}", file=sys.stderr)
        return 2
    return 0


_CURVE_KEYS = ("theta", "coherence_l1", "alpha", "cp_norm", "cm_norm", "slack")


def _curve_rows(theta: float, printed_form: bool) -> list[dict]:
    coherence = preparation_coherence(theta)
    samples = boundary_curve(theta, printed_form=printed_form)
    return [
        dict(zip(_CURVE_KEYS, (theta, coherence, s.alpha, s.cost.cp_norm, s.cost.cm_norm, s.slack)))
        for s in samples
    ]


def cmd_curve(args: argparse.Namespace) -> int:
    rows = _curve_rows(args.theta, args.compat_printed_bound)
    if args.format == "json":
        text = _json_text(rows)
    else:
        lines = [",".join(_CURVE_KEYS)]
        lines += [",".join(_fmt(row[k]) for k in _CURVE_KEYS) for row in rows]
        text = "\n".join(lines) + "\n"
    return _emit(text, args.out)


def cmd_simulate(args: argparse.Namespace) -> int:
    exp_config = ExperimentConfig(
        theta=args.theta,
        alpha=args.alpha,
        g_true=args.g,
        stopping=FixedPostselected(args.nu),
        n_reps=args.reps,
        master_seed=args.seed,
    )
    report = run_campaign(exp_config)

    payload = {
        "g_true": args.g,
        "theta": args.theta,
        "alpha": args.alpha,
        "nu": args.nu,
        "n_reps": args.reps,
        "seed": args.seed,
        "g_est_mean": report.g_est_mean,
        "g_est_var": report.g_est_var,
        "fm_empirical": report.fm_empirical,
        "fm_exact": report.fm_exact,
        "p_empirical": report.p_empirical,
        "p_exact": report.p_exact,
        "cp_norm_emp": report.cost_empirical.cp_norm if report.cost_empirical else None,
        "cm_norm_emp": report.cost_empirical.cm_norm if report.cost_empirical else None,
        "slack_emp": report.slack_empirical,
        "degenerate": report.degenerate,
    }

    text = _json_text(payload)
    if args.trials_out is not None:
        lines = ["trial,n_prepared,n_postselected,n_plus,n_minus,g_est"]
        for index, (counts, g_est) in enumerate(report.per_trial):
            lines.append(
                f"{index},{counts.n_prepared},{counts.n_postselected},"
                f"{counts.n_plus},{counts.n_minus},{_fmt(g_est)}"
            )
        status = _emit("\n".join(lines) + "\n", args.trials_out)
        if status != 0:
            return status
    status = _emit(text, args.out)
    if status != 0 and args.trials_out is not None:
        os.remove(args.trials_out)  # no partial output: the report could not be written
    return status


def cmd_qfi(args: argparse.Namespace) -> int:
    values = {key: getattr(args, key) for key in ("theta", "alpha", "g")}
    setup = real_superposition_setup(values["theta"], values["alpha"], values["g"])
    result = postselect(setup)
    a_w = result.a_w  # None below the overlap floor, where the five weak-value fields are null
    fm = fm_exact(setup)
    f_exact, f_leading = probabilistic_qfi(setup)
    cfi = cfi_discrete(conditional_outcome_model(values["theta"], values["alpha"]), values["g"])
    omega = setup.omega
    coherence = preparation_coherence(values["theta"])
    cost = cost_point(4.0 * omega, f_exact, fm, UNIT_RATES)
    payload = {
        **values,
        "omega": omega,
        "qfi_conventional": 4.0 * omega,
        "a_w_real": a_w.real if a_w is not None else None,
        "a_w_imag": a_w.imag if a_w is not None else None,
        "p_exact": result.p,
        "fm_exact": fm,
        "fm_leading": fm_leading(omega, a_w) if a_w is not None else None,
        "f_m_exact": f_exact,
        "f_m_leading": f_leading,
        "cfi_conditional": cfi,
        "weak_regime_margin": weak_regime_margin(setup) if a_w is not None else None,
        "in_weak_regime": in_weak_regime(setup) if a_w is not None else None,
        "coherence_l1": coherence,
        "cp_norm": cost.cp_norm,
        "cm_norm": cost.cm_norm,
        "slack": tradeoff_slack(cost, coherence),
        "region": classify_region(cost),
    }
    return _emit(_json_text(payload), args.out)


def cmd_verify(args: argparse.Namespace) -> int:
    results = run_suites(args.suite, printed_form=args.compat_printed_bound, seed=args.seed)
    payload = {
        "suites": [dataclasses.asdict(r) for r in results],
        "all_passed": all(r.passed for r in results),
    }
    status = _emit(_json_text(payload), args.out)
    if status != 0:
        return status
    return 0 if payload["all_passed"] else 3


# Every flag with its argparse settings, and the flags and defaults of each
# subcommand; a flag outside its subcommand's list is an invalid argument
# (exit 1). A flag with no default here or in its subcommand's defaults is
# None when absent; theta, alpha and g are required wherever they are accepted.
# Abbreviations are off. There is no rate flag: every cost column is normalized.
_FLAGS = {
    "theta": dict(type=float, required=True, help="preparation angle (rad)"),
    "alpha": dict(type=float, required=True, help="postselection angle (rad)"),
    "g": dict(type=float, required=True, help="coupling strength (rad)"),
    "nu": dict(type=int, help="postselected photons per trial"),
    "reps": dict(type=int, help="number of repeated trials"),
    "seed": dict(type=int, help="64-bit master seed"),
    "out": dict(help="output path (default: stdout)"),
    "trials-out": dict(help="per-trial CSV path"),
    "format": dict(choices=("csv", "json"), help="output format"),
    "compat-printed-bound": dict(
        action="store_true", help="use the published (unsquared) bound right-hand side"
    ),
    "suite": dict(
        action="append", choices=SUITE_NAMES, help="run only the named suite (repeatable)"
    ),
}
_COMMANDS = {
    "curve": (cmd_curve, ("theta", "format", "compat-printed-bound"), {"format": "csv"}),
    "simulate": (cmd_simulate, ("theta", "alpha", "g", "nu", "reps", "seed", "trials-out"),
                 {"nu": 700, "reps": 1000, "seed": 0}),
    "qfi": (cmd_qfi, ("theta", "alpha", "g"), {}),
    "verify": (cmd_verify, ("suite", "seed", "compat-printed-bound"),
               {"seed": DEFAULT_SEED}),
}


def _build_parser() -> _Parser:
    parser = _Parser(prog=PROG, description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, flags, defaults) in _COMMANDS.items():
        p = sub.add_parser(name, allow_abbrev=False)
        for flag in (*flags, "out"):
            p.add_argument(f"--{flag}", **_FLAGS[flag])
        p.set_defaults(**defaults)
    return parser


_TYPED_FLAGS = frozenset(f"--{name}" for name, spec in _FLAGS.items() if "type" in spec)


def _float_valued(argv) -> list[str]:
    """``argv`` with each typed flag joined to a next token that float() parses, as --flag=value.

    argparse takes a token that starts with '-' for a flag unless it looks like
    -1 or -.5, so ``--alpha -1e-05`` and ``--alpha -inf`` would lose their value;
    the joined form always reaches the flag, which then parses or rejects it.
    """
    out: list[str] = []
    for token in argv:
        if out and out[-1] in _TYPED_FLAGS:
            try:
                float(token)
            except ValueError:
                pass
            else:
                out[-1] = f"{out[-1]}={token}"
                continue
        out.append(token)
    return out


def main(argv=None) -> int:
    args = _build_parser().parse_args(_float_valued(sys.argv[1:] if argv is None else argv))
    try:
        flags = _COMMANDS[args.command][1]
        if "theta" in flags:
            check_theta(args.theta, "--theta")  # the documented (0, pi/4]
        for flag in ("alpha", "g"):  # a non-finite value gets the flag's name, not the library's
            if flag in flags:
                finite_real(getattr(args, flag), f"--{flag}")
        return _COMMANDS[args.command][0](args)
    except WvaError as exc:
        print(f"{PROG}: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
