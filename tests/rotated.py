"""Reference values of the rotated Meixner-Pollaczek polynomials.

q_n^(k) = i^{-n} P_n(-i(k + 1/2)) at lambda = 1/2, three ways: the rotated
three-term recurrence in exact integers and in mpmath floats, and the 2F1
closed form.  The package never forms these values one by one (it sums them
through their generating function), so they live here as oracles.
"""

import math
from functools import lru_cache

import mpmath
from mpmath import mp


def rotated_int_seq(n_max, k):
    """q_0..q_{n_max} by the rotated recurrence

        q_0 = 1,  q_1 = -(2k + 1),
        (n+1) q_{n+1} = -(2k + 1) q_n + n q_{n-1},

    in integers, where the division by n + 1 is exact.
    """
    a = 2 * k + 1
    row = [1, -a][: n_max + 1]
    for n in range(1, n_max):
        q, r = divmod(-a * row[n] + n * row[n - 1], n + 1)
        assert r == 0, "the rotated recurrence must divide exactly"
        row.append(q)
    return row


def rotated_seq_raw(n_max, k, precision):
    """The same recurrence as raw mpmath floats at ``precision`` bits."""
    with mp.workprec(precision):
        a = mpmath.mpf(2 * k + 1)
        qs = [mpmath.mpf(1), -a][: n_max + 1]
        for n in range(1, n_max):
            qs.append((-a * qs[n] + n * qs[n - 1]) / (n + 1))
    return qs


@lru_cache(maxsize=None)
def rotated_closed_form(n, k):
    """q_n^(k) = sum_j C(n, j) C(k + j, j) (-2)^j (Koekoek, Lesky and
    Swarttouw 2010, sec. 9.7)."""
    return sum(math.comb(n, j) * math.comb(k + j, j) * (-2) ** j for j in range(n + 1))
