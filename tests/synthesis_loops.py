"""Loop versions of the synthesis set-up in ``cutjump.reconstruct``.

The package reads (K-1)!/k! and C(n_max + k, k) 2^k from per-shape tables
and builds the weights from one ``float.as_integer_ratio`` map; these are
the one-pass loops they replaced, kept as oracles.
"""


def weights_loop(values):
    """Integer weights w_k and D with (-1)^k v_k / k! = w_k / D, (K-1)!/k!
    built from k = K-1 down alongside the weights."""
    ratios = [float(v).as_integer_ratio() for v in values]
    shift = max(den.bit_length() - 1 for _, den in ratios)
    weights = [0] * len(ratios)
    fact = 1  # (K-1)! / k!
    for k in reversed(range(len(ratios))):
        num, den = ratios[k]
        w = fact * num * ((1 << shift) // den)
        weights[k] = -w if k % 2 else w
        fact *= max(k, 1)
    return weights, fact << shift


def sum_bound_loop(weights, n_max):
    """sum_k |w_k| 2^k C(n_max + k, k), the binomial carried along."""
    bound, binom = 0, 1  # binom = C(n_max + k, k)
    for k, w in enumerate(weights):
        bound += abs(w) * binom << k
        binom = binom * (n_max + k + 1) // (k + 1)
    return bound
