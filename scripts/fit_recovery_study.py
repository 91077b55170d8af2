#!/usr/bin/env python3
"""Parameter-recovery study for the two-parameter eigencurve fit.

Simulates one-factor models with known (alpha, N*gamma), runs the full
aggregate -> correlate -> diagonalize -> fit pipeline for several seeds (the
simulator streams into the eigencurves, so no panel is held), and
tabulates recovered against generating parameters.  The last column shows the
deterministic best-fit on the *exact* noiseless eigenvalue curve: the fitted
formula amplitude/attenuation(tau) is a large-eigenvalue approximation, so
recovered amplitudes converge to that biased reference rather than to the
generating amplitude as the panel grows.  Useful for calibrating how much of
an observed gap is sampling noise versus formula bias.

    python scripts/fit_recovery_study.py --gamma 0.2 --alpha 0.2 --seeds 5
"""

import argparse

import numpy as np

from leadlag import (EigenCurve, ModelSpec, correlation_loading,
                     eigencurves_from_model, fit_eigencurve)

DYADIC = (1, 2, 4, 8, 16, 32, 64, 128)


def noiseless_reference(n_assets, gamma, alpha, taus):
    """Best fit of the formula on the exact equal-loading eigenvalue curve."""
    values = np.array([1 + (n_assets - 1) * correlation_loading(gamma, alpha, t) ** 2
                       for t in taus])
    return fit_eigencurve(EigenCurve(np.asarray(taus), values), n_assets)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--assets", type=int, default=100)
    parser.add_argument("--gamma", type=float, default=0.2)
    parser.add_argument("--alpha", type=float, default=0.2)
    parser.add_argument("--steps", type=int, default=1 << 20)
    parser.add_argument("--seeds", type=int, default=5)
    args = parser.parse_args()

    amplitude = args.assets * args.gamma
    reference = noiseless_reference(args.assets, args.gamma, args.alpha, DYADIC)
    print(f"generating: alpha={args.alpha}, amplitude={amplitude:.3f} "
          f"({args.assets} assets, gamma={args.gamma}, {args.steps} steps)")
    print(f"noiseless-fit reference: alpha={reference.alpha:.4f}, "
          f"amplitude={reference.amplitude:.3f} "
          f"({reference.amplitude / amplitude - 1:+.1%} formula bias)")
    print(f"{'seed':>4} {'alpha_hat':>10} {'amplitude_hat':>14} {'vs generating':>14} "
          f"{'vs reference':>13}")
    for seed in range(args.seeds):
        spec = ModelSpec.single_factor(args.assets, args.gamma, args.alpha, seed=seed)
        curve = eigencurves_from_model(spec, args.steps, DYADIC, top_k=1)[0]
        fit = fit_eigencurve(curve, args.assets)
        print(f"{seed:>4} {fit.alpha:>10.4f} {fit.amplitude:>14.3f} "
              f"{fit.amplitude / amplitude - 1:>+14.1%} "
              f"{fit.amplitude / reference.amplitude - 1:>+13.1%}")


if __name__ == "__main__":
    main()
