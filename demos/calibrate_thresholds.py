"""Calibrate one score sample two ways: marginal level vs tolerance pair.

The same sorted calibration scores support both guarantees; only the
selected order statistic changes.  The script also walks the duality in
both directions: the tolerance pair implied by a marginal level, and the
marginal level implied by a tolerance pair.
"""

import numpy as np

from conformal_kit import (
    NonconformityScores,
    Tolerance,
    p_hat,
    plan,
    q_hat,
    tolerance_delta_given_alpha,
    tolerance_eps_given_alpha,
)


def main():
    rng = np.random.default_rng(42)
    scores = NonconformityScores(rng.normal(size=1000))
    n = scores.n

    marg = q_hat(scores, 0.1)
    print(f"n = {n} calibration scores")
    print("\nmarginal, alpha = 0.1")
    print(f"  order index    {marg.order_index}")
    print(f"  threshold      {marg.lambda_hat:.4f}")
    print(f"  coverage law   Beta({marg.law.a}, {marg.law.b})")
    b = marg.marginal_bounds
    print(f"  coverage mean  {float(b.exact_mean):.4f} in [{b.lo:.4f}, {b.hi:.4f}]")

    tol = p_hat(scores, 0.1, 0.1)
    print("\ntolerance, eps = delta = 0.1")
    print(f"  order index    {tol.order_index}")
    print(f"  threshold      {tol.lambda_hat:.4f}")
    print(f"  dual alpha     {tol.dual.alpha} = {float(tol.dual.alpha):.4f}")
    lo, hi = tol.dual.interval
    print(f"  same choice for every alpha in [{float(lo):.4f}, {float(hi):.4f})")

    print("\nconversions at n = 1000")
    d = tolerance_delta_given_alpha(n, 0.1, 0.1)
    print(f"  smallest delta so that alpha = 0.1 gives a 0.1-tolerance: {d:.4f}")
    e = tolerance_eps_given_alpha(n, 0.1, 0.1)
    print(f"  smallest eps certified by alpha = 0.1 with delta = 0.1:   {e:.4f}")
    a = plan(n, Tolerance(0.1, 0.1)).dual
    print(f"  marginal level dual to (0.1, 0.1):                        {a.alpha}")


if __name__ == "__main__":
    main()
