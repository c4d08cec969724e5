"""Command line front end.

Exit codes: 0 on success, 1 on any error (bad file, bad arguments,
solver failure), 2 when the computation was refused because the
requested object does not exist mathematically (infinite value,
no survivors, ...).  Refusals print a one-line diagnostic on stderr.

Commands that write files also write manifest.json next to them with
the argv, seed, and content hashes of inputs and outputs; replaying
the argv must reproduce the output hashes exactly.
"""

from __future__ import annotations

import argparse
import csv
import sys
from pathlib import Path

import numpy as np

from . import asymptotics, policies
from .errors import MathematicalRefusal, ModelError, QsdctlError
from .generator import build_generator
from .hjb import policy_iteration
from .manifest import RunManifest
from .models import MarkovControl, ModelSpec
from .modelfile import builtin_dir, list_builtin, load_builtin, load_model
from .qsd import (conditional_evolution, solve_qsd, survival_profile,
                  truncation_sweep)
from .simulate import (SimConfig, _envelope_table, _markov_tables,
                       simulate_markov, simulate_thinning)

__all__ = ["main"]


def _fmt(x: float) -> str:
    return f"{x:.17g}"


class _Parser(argparse.ArgumentParser):
    # argparse insists on exit code 2 for usage errors; 2 is reserved
    # for mathematical refusals here, so remap.
    def error(self, message):
        self.print_usage(sys.stderr)
        raise QsdctlError(message)


def _load(spec: str) -> tuple[ModelSpec, Path]:
    p = Path(spec)
    if p.is_file():
        return load_model(p), p
    if spec in list_builtin():
        return load_builtin(spec), builtin_dir() / f"{spec}.model"
    raise ModelError(
        f"{spec!r} is neither a model file nor a bundled model "
        f"(bundled: {', '.join(list_builtin())})")


def _action_index(model: ModelSpec, token: str) -> int:
    if token.isdigit():
        i = int(token)
        if not 0 <= i < model.num_actions:
            raise ModelError(f"no action with index {i}")
        return i
    return model.controls.index(token)


def _control(model: ModelSpec, args) -> MarkovControl:
    level = args.level or model.level
    if getattr(args, "control_file", None):
        tokens = Path(args.control_file).read_text().split()
        if len(tokens) != level:
            raise ModelError(
                f"control file lists {len(tokens)} actions, window needs "
                f"{level}")
        return MarkovControl(tuple(_action_index(model, t) for t in tokens))
    return model.constant_control(_action_index(model, args.control), level)


def _rule(model: ModelSpec, spec: str):
    kind, _, rest = spec.partition(":")
    toks = [t for t in rest.split(",") if t]
    ai = lambda t: _action_index(model, t)
    try:
        if kind == "constant":
            return policies.constant(ai(toks[0]))
        if kind == "switch":
            return policies.switch_after_first_jump(ai(toks[0]), ai(toks[1]))
        if kind == "peak":
            return policies.peak_threshold(int(toks[0]), ai(toks[1]), ai(toks[2]))
        if kind == "time":
            return policies.time_threshold(float(toks[0]), ai(toks[1]), ai(toks[2]))
    except (IndexError, ValueError) as e:
        raise ModelError(f"bad rule spec {spec!r}: {e}") from None
    raise ModelError(
        f"unknown rule kind {kind!r}; use constant:A, switch:A,B, "
        "peak:N,A,B or time:T,A,B")


def _outdir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_csv(path: Path, header: list[str], rows):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)


def _manifest(args, model_path: Path, outputs: list[Path],
              seed: int | None = None):
    man = RunManifest(argv=list(args._argv), seed=seed)
    man.add_input(model_path)
    for p in outputs:
        man.add_output(p)
    man.write(Path(args.out) / "manifest.json")


# ---------------------------------------------------------------------
# handlers

def _cmd_validate(args) -> int:
    model, _ = _load(args.model)
    from .models import validate_hypotheses
    report = validate_hypotheses(model, args.n_check)
    print(f"model {model.name}: {model.level} states, "
          f"{model.num_actions} action(s); checked window 1..{report.n_check}")
    failed = False
    for c in report.clauses:
        line = f"  {c.clause}: {c.status}"
        if c.status == "fail" and c.witness:
            state, action, margin = c.witness
            line += f"  (state {state}, action {action}, margin {margin:g})"
            failed = True
        if c.note:
            line += f"  [{c.note}]"
        print(line)
    if failed and args.strict:
        return 1
    return 0


def _cmd_simulate(args) -> int:
    model, model_path = _load(args.model)
    out = _outdir(args)
    config = SimConfig(args.seed, args.samples, args.horizon, args.state_cap)
    run_cfg = SimConfig(args.seed, 1, args.horizon, args.state_cap)
    rule = _rule(model, args.rule) if args.rule else None
    control = None if rule else _control(model, args)
    # one set of rate tables for every path; from a start outside
    # 1..state_cap every path stops before it reads them
    tables = None
    if 1 <= args.x0 <= args.state_cap:
        tables = (_envelope_table(model) if rule
                  else _markov_tables(model, control))

    summary_rows = []
    path_rows = []
    for i in range(config.samples):
        if rule is not None:
            traj = simulate_thinning(model, rule, args.x0, run_cfg,
                                     stream_index=i, _tables=tables)
        else:
            traj = simulate_markov(model, control, args.x0, run_cfg,
                                   stream_index=i, _tables=tables)
        tau = traj.extinction_time
        summary_rows.append([
            i, traj.terminal, _fmt(traj.final_time), traj.final_state,
            len(traj.jumps), "" if tau is None else _fmt(tau)])
        if args.paths:
            path_rows.append([i, _fmt(0.0), traj.initial])
            for t, s in traj.jumps:
                path_rows.append([i, _fmt(t), s])

    outputs = [out / "summary.csv"]
    _write_csv(outputs[0],
               ["trajectory", "terminal", "final_time_s", "final_state",
                "jump_count", "extinction_time_s"],
               summary_rows)
    if args.paths:
        outputs.append(out / "paths.csv")
        _write_csv(outputs[1], ["trajectory", "time_s", "state"], path_rows)
    absorbed = sum(1 for r in summary_rows if r[1] == "absorbed")
    print(f"simulated {config.samples} path(s) from x0={args.x0}; "
          f"{absorbed} absorbed")
    _manifest(args, model_path, outputs, seed=args.seed)
    return 0


def _cmd_qsd(args) -> int:
    model, model_path = _load(args.model)
    out = _outdir(args)
    control = _control(model, args)
    level = args.level or model.level
    outputs = []
    if args.sweep:
        levels = [int(t) for t in args.sweep.split(",")]
        sweep = truncation_sweep(model, control, levels, tol=args.tol)
        outputs.append(out / "sweep.csv")
        _write_csv(outputs[-1],
                   ["level", "lambda_per_s", "lambda_gap_per_s",
                    "tv_to_largest"],
                   [[r.level, _fmt(r.lam), _fmt(r.lam_gap_to_largest),
                     _fmt(r.tv_to_largest)] for r in sweep.rows])
    gen = build_generator(model, control, level)
    sol = solve_qsd(gen, tol=args.tol)
    outputs.insert(0, out / "qsd.csv")
    _write_csv(outputs[0], ["state", "pi_prob", "eta_shape"],
               [[x + 1, _fmt(sol.pi[x]), _fmt(sol.eta[x])]
                for x in range(level)])
    print(f"lambda_per_s = {_fmt(sol.lam)}")
    print(f"residual_left = {sol.residual_left:.3e}")
    print(f"residual_right = {sol.residual_right:.3e}")
    print(f"iterations = {sol.iterations}")
    if sol.reducible_warning:
        print("warning: stationary profile underflowed to zero on part of "
              "the window; treat those entries as unresolved", file=sys.stderr)
    _manifest(args, model_path, outputs)
    return 0


def _cmd_solve(args) -> int:
    model, model_path = _load(args.model)
    out = _outdir(args)
    level = args.level or model.level
    sol = policy_iteration(model, args.beta, args.mode, level=level)
    outputs = [out / "value.csv"]
    names = model.controls.names
    _write_csv(outputs[0], ["state", "value", "action"],
               [[x, _fmt(sol.v[x]),
                 names[sol.policy.action_at(x)] if x >= 1 else ""]
                for x in range(level + 1)])
    print(f"beta_per_s = {_fmt(args.beta)}")
    print(f"iterations = {len(sol.trace.records)}")
    print(f"hjb_residual = {sol.hjb_residual:.3e}")
    print(f"sup_bound = {_fmt(sol.sup_bound)}")
    if sol.transversality is not None:
        t = sol.transversality
        print(f"transversality_margin_per_s = {_fmt(t.margin)} "
              f"({'ok' if t.ok else 'VIOLATED'})")
    _manifest(args, model_path, outputs)
    return 0


def _cmd_rate_opt(args) -> int:
    model, model_path = _load(args.model)
    out = _outdir(args)
    res = asymptotics.optimize_extinction_rate(
        model, args.objective, args.level or None,
        cross_check=args.cross_check)
    outputs = [out / "steps.csv"]
    _write_csv(outputs[0],
               ["step", "lambda_per_s", "control"],
               [[i, _fmt(s.lam),
                 "".join(str(a) for a in s.control.assignment)]
                for i, s in enumerate(res.steps)])
    print(f"objective = {args.objective}")
    print(f"lambda_per_s = {_fmt(res.lam)}")
    print(f"control = {''.join(str(a) for a in res.control.assignment)}")
    print(f"certificate_slack = {_fmt(res.slack)}")
    print(f"certificate_floor = {_fmt(res.floor)}")
    if res.enumeration_lam is not None:
        print(f"enumeration_lambda_per_s = {_fmt(res.enumeration_lam)}")
        print(f"cross_check_gap_per_s = {_fmt(res.cross_check_gap)}")
    _manifest(args, model_path, outputs)
    return 0


def _cmd_limit(args) -> int:
    model, model_path = _load(args.model)
    out = _outdir(args)
    chk = asymptotics.limit_theorem_check(
        model, args.objective, args.x, args.level or None,
        num_betas=args.num_betas)
    outputs = [out / "ladder.csv"]
    _write_csv(outputs[0],
               ["rung", "beta_per_s", "scaled_value", "abs_error"],
               [[k, _fmt(b), _fmt(p),
                 _fmt(abs(p - chk.reference)) if np.isfinite(p) else ""]
                for k, (b, p) in enumerate(zip(chk.betas, chk.products))])
    print(f"lambda_per_s = {_fmt(chk.lam)}")
    print(f"reference = {_fmt(chk.reference)}")
    print(f"gap = {_fmt(chk.gap)}")
    print(f"converged = {str(chk.converged).lower()}")
    print(f"inconclusive = {str(chk.inconclusive).lower()}")
    _manifest(args, model_path, outputs)
    return 0


def _cmd_transient(args) -> int:
    model, model_path = _load(args.model)
    out = _outdir(args)
    control = _control(model, args)
    level = args.level or model.level
    gen = build_generator(model, control, level)
    times = sorted({float(t) for t in args.times.split(",")})
    if not 1 <= args.x <= level:
        raise ModelError(f"--x must lie in 1..{level}")
    prof = survival_profile(gen, times)
    outputs = [out / "survival.csv"]
    _write_csv(outputs[0], ["time_s", "survival_prob"],
               [[_fmt(t), _fmt(prof[j, args.x - 1])]
                for j, t in enumerate(times)])
    delta = np.zeros(level)
    delta[args.x - 1] = 1.0
    evo = conditional_evolution(gen, delta, times[-1], steps=1)
    outputs.append(out / "law.csv")
    _write_csv(outputs[1], ["state", "conditional_prob"],
               [[x + 1, _fmt(evo.laws[-1][x])] for x in range(level)])
    print(f"survival_prob at t={times[-1]:g} from x={args.x}: "
          f"{_fmt(evo.survival[-1])}")
    _manifest(args, model_path, outputs)
    return 0


# ---------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="qsdctl",
                description="Quasi-stationary analysis and discounted "
                            "control of absorbed branching chains")
    sub = p.add_subparsers(dest="cmd", required=True)

    def common(sp, out=True):
        sp.add_argument("model", help="model file path or bundled name")
        sp.add_argument("--level", type=int, default=0,
                        help="truncation override (default: model file)")
        if out:
            sp.add_argument("--out", default=".",
                            help="output directory (default: cwd)")

    sp = sub.add_parser("validate", help="check a model file and its "
                                         "declared standing assumptions")
    common(sp, out=False)
    sp.add_argument("--n-check", type=int, default=None,
                    help="window for the assumption checks")
    sp.add_argument("--strict", action="store_true",
                    help="exit 1 when any clause fails")
    sp.set_defaults(func=_cmd_validate)

    sp = sub.add_parser("simulate", help="sample trajectories")
    common(sp)
    sp.add_argument("--x0", type=int, required=True)
    sp.add_argument("--seed", type=int, required=True)
    sp.add_argument("--samples", type=int, default=1)
    sp.add_argument("--horizon", type=float, default=None)
    sp.add_argument("--state-cap", type=int, default=100_000)
    sp.add_argument("--control", default=None,
                    help="action (name or index) used at every state")
    sp.add_argument("--control-file", default=None,
                    help="file with one action per state 1..level")
    sp.add_argument("--rule", default=None,
                    help="history rule: constant:A switch:A,B peak:N,A,B "
                         "time:T,A,B (uses the thinning simulator)")
    sp.add_argument("--paths", action="store_true",
                    help="also write every jump to paths.csv")
    sp.set_defaults(func=_cmd_simulate)

    sp = sub.add_parser("qsd", help="quasi-stationary triple on the window")
    common(sp)
    sp.add_argument("--control", default=None)
    sp.add_argument("--control-file", default=None)
    sp.add_argument("--tol", type=float, default=1e-10)
    sp.add_argument("--sweep", default=None,
                    help="comma list of levels for a truncation sweep")
    sp.set_defaults(func=_cmd_qsd)

    sp = sub.add_parser("solve", help="discounted optimal value and policy")
    common(sp)
    sp.add_argument("--beta", type=float, required=True,
                    help="discount rate (may be negative)")
    sp.add_argument("--mode", choices=("min", "max"), default="min")
    sp.set_defaults(func=_cmd_solve)

    sp = sub.add_parser("rate-opt", help="extremal extinction rate over "
                                         "stationary controls")
    common(sp)
    sp.add_argument("--objective", choices=("max", "min"), default="max")
    sp.add_argument("--cross-check", action="store_true",
                    help="also enumerate every control and compare")
    sp.set_defaults(func=_cmd_rate_opt)

    sp = sub.add_parser("limit", help="frontier scaling of the discounted "
                                      "value")
    common(sp)
    sp.add_argument("--objective", choices=("max", "min"), default="max")
    sp.add_argument("--x", type=int, default=1)
    sp.add_argument("--num-betas", type=int, default=8)
    sp.set_defaults(func=_cmd_limit)

    sp = sub.add_parser("transient", help="exact survival curve and "
                                          "conditional law by matrix action")
    common(sp)
    sp.add_argument("--control", default=None)
    sp.add_argument("--control-file", default=None)
    sp.add_argument("--x", type=int, required=True)
    sp.add_argument("--times", required=True, help="comma list of times")
    sp.set_defaults(func=_cmd_transient)

    return p


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if getattr(args, "control", None) is None:
            args.control = "0"
        args._argv = ["qsdctl"] + argv
        return args.func(args)
    except MathematicalRefusal as e:
        print(f"refused: {e} [{e.diagnostic}]", file=sys.stderr)
        return 2
    except QsdctlError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
