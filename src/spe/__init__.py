"""Short pulse equation on the half-line: viscous solver plus a harness that
numerically certifies the conservation identities, a-priori bounds, entropy
inequality, and stability estimate of the underlying well-posedness theory."""
