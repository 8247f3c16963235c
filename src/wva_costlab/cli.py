"""Command-line front end: boundary curves, campaigns, QFI queries, verification.

Subcommands
-----------
curve      Emit the cost-tradeoff boundary curve for one preparation angle.
simulate   Run a seeded photon-counting campaign and report its statistics.
qfi        Report the information quantities of one (theta, alpha, g) scenario.
verify     Run the invariant suites and summarize pass/fail per suite.

Outputs are deterministic for a fixed configuration (seed included): CSV uses
9 significant digits with '.' as decimal separator, JSON contains only finite
numbers or null, and every file ends with a newline. Exit codes: 0 success,
1 invalid arguments, 2 I/O failure, 3 verification failure.

Options may also be supplied as a JSON object via ``--config PATH``;
explicit command-line flags win over config-file values.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from typing import Optional

import numpy as np

from .costs import (
    CostRates,
    boundary_curve,
    classify_region,
    cost_point,
    default_alpha_grid,
    l1_coherence,
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
    postselect,
    probabilistic_qfi,
    real_superposition_setup,
    weak_regime_margin,
)
from .states import STANDARD_BASIS
from .verify import SUITE_NAMES, run_suites

PROG = "wva-costlab"


class _Parser(argparse.ArgumentParser):
    """Argument parser with the documented exit code for invalid arguments."""

    def error(self, message):
        self.print_usage(sys.stderr)
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


class _CliError(Exception):
    """Raised by helpers to abort a command with a message and exit code."""

    def __init__(self, message: str, code: int):
        super().__init__(message)
        self.code = code


def _load_config(path: Optional[str]) -> dict:
    if path is None:
        return {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise _CliError(f"cannot read config {path}: {exc}", 1)
    if not isinstance(data, dict):
        raise _CliError(f"config {path} must hold a JSON object", 1)
    return data


def _fail(message: str, code: int) -> int:
    print(f"{PROG}: error: {message}", file=sys.stderr)
    return code


def _resolve(args: argparse.Namespace, config: dict, key: str, default=None):
    value = getattr(args, key, None)
    if value is not None:
        return value
    return config.get(key, default)


def _theta_in_domain(theta: float) -> float:
    """The preparation angle, or a CLI error outside the documented (0, pi/4]."""
    if not (0.0 < theta <= np.pi / 4.0 + 1e-12):
        raise _CliError("--theta must lie in (0, pi/4]", 1)
    return theta


def _resolve_rates(args, config) -> CostRates:
    return CostRates(
        r_p=float(_resolve(args, config, "rp", 1.0)),
        r_m=float(_resolve(args, config, "rm", 1.0)),
        n_samples=int(_resolve(args, config, "n", 1)),
    )


def _curve_rows(theta: float, rates: CostRates, printed_form: bool) -> list[dict]:
    coherence = l1_coherence(STANDARD_BASIS.superposition(theta), STANDARD_BASIS)
    samples = boundary_curve(theta, default_alpha_grid(), rates, printed_form=printed_form)
    return [
        {
            "theta": theta,
            "coherence_l1": coherence,
            "alpha": s.alpha,
            "cp_norm": s.cost.cp_norm,
            "cm_norm": s.cost.cm_norm,
            "slack": s.slack,
        }
        for s in samples
    ]


def cmd_curve(args: argparse.Namespace) -> int:
    config = _load_config(args.config)
    theta = _resolve(args, config, "theta")
    if theta is None:
        return _fail("curve requires --theta", 1)
    theta = _theta_in_domain(float(theta))
    printed = bool(args.compat_printed_bound or config.get("compat_printed_bound", False))
    fmt = _resolve(args, config, "format", "csv")
    try:
        rows = _curve_rows(theta, _resolve_rates(args, config), printed)
    except WvaError as exc:
        return _fail(str(exc), 1)
    if fmt == "json":
        text = _json_text(rows)
    else:
        lines = ["theta,coherence_l1,alpha,cp_norm,cm_norm,slack"]
        for row in rows:
            lines.append(
                ",".join(
                    _fmt(row[k])
                    for k in ("theta", "coherence_l1", "alpha", "cp_norm", "cm_norm", "slack")
                )
            )
        text = "\n".join(lines) + "\n"
    return _emit(text, _resolve(args, config, "out"))


def cmd_simulate(args: argparse.Namespace) -> int:
    config = _load_config(args.config)
    required = {}
    for key in ("theta", "alpha", "g"):
        value = _resolve(args, config, key)
        if value is None:
            return _fail(f"simulate requires --{key}", 1)
        required[key] = float(value)
    _theta_in_domain(required["theta"])
    nu = int(_resolve(args, config, "nu", 700))
    reps = int(_resolve(args, config, "reps", 1000))
    seed = int(_resolve(args, config, "seed", 0))
    try:
        exp_config = ExperimentConfig(
            theta=required["theta"],
            alpha=required["alpha"],
            g_true=required["g"],
            stopping=FixedPostselected(nu),
            n_reps=reps,
            master_seed=seed,
        )
        report = run_campaign(exp_config, _resolve_rates(args, config))
    except WvaError as exc:
        return _fail(str(exc), 1)

    payload = {
        "g_true": required["g"],
        "theta": required["theta"],
        "alpha": required["alpha"],
        "nu": nu,
        "n_reps": reps,
        "seed": seed,
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

    trials_out = _resolve(args, config, "trials_out")
    if trials_out is not None:
        lines = ["trial,n_prepared,n_postselected,n_plus,n_minus,g_est"]
        for index, (counts, g_est) in enumerate(report.per_trial):
            lines.append(
                f"{index},{counts.n_prepared},{counts.n_postselected},"
                f"{counts.n_plus},{counts.n_minus},{_fmt(g_est)}"
            )
        status = _emit("\n".join(lines) + "\n", trials_out)
        if status != 0:
            return status
    return _emit(_json_text(payload), _resolve(args, config, "out"))


def cmd_qfi(args: argparse.Namespace) -> int:
    config = _load_config(args.config)
    values = {}
    for key in ("theta", "alpha", "g"):
        value = _resolve(args, config, key)
        if value is None:
            return _fail(f"qfi requires --{key}", 1)
        values[key] = float(value)
    _theta_in_domain(values["theta"])
    try:
        setup = real_superposition_setup(values["theta"], values["alpha"], values["g"])
        result = postselect(setup)
        fm = fm_exact(setup)
        f_exact, f_leading = probabilistic_qfi(setup)
        cfi = cfi_discrete(conditional_outcome_model(values["theta"], values["alpha"]), values["g"])
        omega = setup.omega
        coherence = l1_coherence(STANDARD_BASIS.superposition(values["theta"]), STANDARD_BASIS)
        cost = cost_point(4.0 * omega, f_exact, fm, _resolve_rates(args, config))
        payload = {
            **values,
            "omega": omega,
            "qfi_conventional": 4.0 * omega,
            "a_w_real": result.a_w.real if result.a_w is not None else None,
            "a_w_imag": result.a_w.imag if result.a_w is not None else None,
            "p_exact": result.p,
            "fm_exact": fm,
            "fm_leading": fm_leading(omega, result.a_w) if result.a_w is not None else None,
            "f_m_exact": f_exact,
            "f_m_leading": f_leading,
            "cfi_conditional": cfi,
            "weak_regime_margin": weak_regime_margin(setup) if result.a_w is not None else None,
            "coherence_l1": coherence,
            "cp_norm": cost.cp_norm,
            "cm_norm": cost.cm_norm,
            "slack": tradeoff_slack(cost, coherence),
            "region": classify_region(cost),
        }
    except WvaError as exc:
        return _fail(str(exc), 1)
    return _emit(_json_text(payload), _resolve(args, config, "out"))


def cmd_verify(args: argparse.Namespace) -> int:
    config = _load_config(args.config)
    names = args.suite or config.get("suite")
    if isinstance(names, str):
        names = [names]
    theta_count = _resolve(args, config, "theta_grid")
    printed = bool(args.compat_printed_bound or config.get("compat_printed_bound", False))
    seed = int(_resolve(args, config, "seed", 20240))
    try:
        results = run_suites(
            names=names,
            theta_count=int(theta_count) if theta_count is not None else None,
            printed_form=printed,
            seed=seed,
        )
    except ValueError as exc:
        return _fail(str(exc), 1)
    payload = {
        "suites": [
            {
                "name": r.name,
                "passed": r.passed,
                "worst_slack": r.worst_slack,
                "detail": r.detail,
            }
            for r in results
        ],
        "all_passed": all(r.passed for r in results),
    }
    status = _emit(_json_text(payload), _resolve(args, config, "out"))
    if status != 0:
        return status
    return 0 if payload["all_passed"] else 3


def _build_parser() -> _Parser:
    parser = _Parser(prog=PROG, description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: _Parser) -> None:
        p.add_argument("--theta", type=float, help="preparation angle (rad)")
        p.add_argument("--alpha", type=float, help="postselection angle (rad)")
        p.add_argument("--g", type=float, help="coupling strength (rad)")
        p.add_argument("--nu", type=int, help="postselected photons per trial")
        p.add_argument("--reps", type=int, help="number of repeated trials")
        p.add_argument("--seed", type=int, help="64-bit master seed")
        p.add_argument("--rp", type=float, help="preparation cost per sample")
        p.add_argument("--rm", type=float, help="detection cost per sample")
        p.add_argument("--n", type=int, help="conventional-scheme sample count")
        p.add_argument("--out", help="output path (default: stdout)")
        p.add_argument("--trials-out", dest="trials_out", help="per-trial CSV path")
        p.add_argument("--format", choices=("csv", "json"), help="output format")
        p.add_argument("--config", help="JSON config file; flags win")
        p.add_argument(
            "--compat-printed-bound",
            action="store_true",
            help="use the published (unsquared) bound right-hand side",
        )

    for name, handler in (
        ("curve", cmd_curve),
        ("simulate", cmd_simulate),
        ("qfi", cmd_qfi),
        ("verify", cmd_verify),
    ):
        p = sub.add_parser(name)
        add_common(p)
        p.set_defaults(handler=handler)
        if name == "verify":
            p.add_argument(
                "--suite",
                action="append",
                choices=SUITE_NAMES,
                help="run only the named suite (repeatable)",
            )
            p.add_argument(
                "--theta-grid",
                dest="theta_grid",
                type=int,
                help="number of evenly spaced preparation angles for the bound sweep",
            )
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except _CliError as exc:
        return _fail(str(exc), exc.code)


if __name__ == "__main__":
    sys.exit(main())
