"""Three risk-control routes land on the same threshold for 0-1 loss.

Conformal risk control minimizes the threshold subject to an inflated
empirical risk bound; upper-confidence-bound calibration walks down while
an exact binomial bound certifies the risk; learn-then-test runs
fixed-sequence multiple testing over a threshold grid.  On miscoverage
loss they all reduce to an order statistic of the scores, so the printed
thresholds agree to the bit (ltt up to its grid resolution).
"""

import numpy as np

from conformal_kit import (
    Losses,
    NonconformityScores,
    crc_lambda,
    ltt_lambda,
    p_hat,
    q_hat,
    ucb_lambda,
)


def main():
    rng = np.random.default_rng(12)
    scores = NonconformityScores(rng.normal(size=500))
    losses = Losses.zero_one(scores.values)
    alpha, eps, delta = 0.1, 0.1, 0.1

    print(f"marginal level alpha = {alpha}")
    print(f"  quantile rule  {q_hat(scores, alpha).lambda_hat:+.6f}")
    print(f"  crc            {crc_lambda(losses, alpha):+.6f}")

    print(f"\ntolerance pair eps = {eps}, delta = {delta}")
    lam_p = p_hat(scores, eps, delta).lambda_hat
    lam_u = ucb_lambda(losses, eps, delta)
    print(f"  rank rule      {lam_p:+.6f}")
    print(f"  exact ucb      {lam_u:+.6f}")
    lam_h = ucb_lambda(losses, eps, delta, method="hoeffding")
    print(f"  hoeffding ucb  {lam_h:+.6f}  (looser bound, larger threshold)")

    grid = np.linspace(scores.values[0] - 0.5, scores.values[-1] + 0.5, 10_000)
    lam_l = ltt_lambda(losses, eps, delta, grid)
    step = grid[1] - grid[0]
    print(f"  ltt            {lam_l:+.6f}  (grid step {step:.6f})")
    print(f"\nucb == rank rule: {lam_u == lam_p}")
    print(f"ltt within one grid step of ucb: {lam_u <= lam_l <= lam_u + step}")


if __name__ == "__main__":
    main()
