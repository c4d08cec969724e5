"""Frontier behaviour of the discounted problem on the culling model.

Three independent routes to the extremal extinction rates (exhaustive
enumeration, spectral policy iteration with its Collatz-Wielandt
certificate, and the frontier scaling of the value function), followed
by a Monte Carlo check that history rules stay below the maximizing
stationary value.
"""

import warnings

from qsdctl import (SimConfig, brute_force_control_opt, corollary_spot_check,
                    limit_theorem_check, load_builtin,
                    optimize_extinction_rate, policies)


def control_str(control):
    return "".join(str(a) for a in control.assignment)


def main():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        model = load_builtin("culling")

    print(f"model {model.name}: actions {model.controls.names}, "
          f"window 1..{model.level} ({2 ** model.level} stationary controls)")

    for objective in ("max", "min"):
        enum = brute_force_control_opt(model, objective)
        opt = optimize_extinction_rate(model, objective, cross_check=True)
        print(f"\nobjective {objective}:")
        print(f"  enumeration   lambda = {enum.lam:.15f} at "
              f"{control_str(enum.control)}")
        print(f"  spectral PI   lambda = {opt.lam:.15f} at "
              f"{control_str(opt.control)} "
              f"({len(opt.steps)} steps, gap {opt.cross_check_gap:.1e}, "
              f"slack {opt.slack:.1e} <= floor {opt.floor:.1e})")
        for i, s in enumerate(opt.steps):
            print(f"    step {i}: rate {s.lam:.9f} "
                  f"control {control_str(s.control)}")

        chk = limit_theorem_check(model, objective, x=1)
        print(f"  frontier scaling at x=1: reference pi(f) eta(1) = "
              f"{chk.reference:.6f}")
        for beta, prod in zip(chk.betas, chk.products):
            print(f"    beta {beta:.6f}: (lambda - beta) v(1) = {prod:.6f}")
        print(f"  converged: {chk.converged} (gap {chk.gap:.2e})")

    print("\nhistory rules against the maximizing stationary value "
          "(beta 0.3, x=2):")
    for rule in (policies.peak_threshold(5, 0, 1),
                 policies.switch_after_first_jump(1, 0),
                 policies.time_threshold(0.5, 0, 1)):
        spot = corollary_spot_check(model, rule, x=2, beta=0.3,
                                    config=SimConfig(seed=7, samples=600))
        print(f"  {spot.policy_name:<28} estimate {spot.estimate.value:.4f} "
              f"(se {spot.estimate.stderr:.4f})  bound {spot.bound:.4f}  "
              f"{'ok' if spot.ok else 'VIOLATED'}")


if __name__ == "__main__":
    main()
