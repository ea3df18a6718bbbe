"""Vectorized point counting over F_{p^k} against a per-element tally.

The forward-difference walk in enumeration._count_ext starts when
p > deg f + 1, so the degrees drawn run from 1 to above p and the
examples pin p = d + 1 (Horner only), p = d + 2 (one walk step) and a
zero constant term.  The reference sums the quadratic character of
f(x) over every x, one field element at a time; fields stop at
q <= 2401 to keep it within a few seconds.
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from hypercount import polys
from hypercount.enumeration import count_curve_points
from hypercount.fields import make_extension, make_prime_field

FIELDS = [(p, k) for p in (3, 5, 7, 11, 13) for k in range(2, 6)
          if p ** k <= 2401]


def _reference(F, f):
    total = 1
    for v in range(F.q):
        x = F.from_digits([v // F.p ** i % F.p for i in range(F.k)])
        total += 1 + F.legendre(polys.evaluate(F, f, x))
    return total


@st.composite
def polynomials(draw):
    p, k = draw(st.sampled_from(FIELDS))
    d = draw(st.integers(1, p + 2))
    digits = st.lists(st.integers(0, p - 1), min_size=k, max_size=k)
    f = draw(st.lists(digits, min_size=d + 1, max_size=d + 1))
    f[-1][draw(st.integers(0, k - 1))] = draw(st.integers(1, p - 1))
    if draw(st.booleans()):
        f[0] = [0] * k
    return p, k, f


@settings(max_examples=12)
@given(polynomials())
@example((5, 3, [[1, 2, 0], [0, 0, 3], [4, 4, 4], [2, 0, 1], [0, 1, 0]]))
@example((7, 2, [[0, 0], [3, 1], [0, 5], [6, 6], [1, 0], [2, 0]]))
@example((3, 4, [[0, 0, 0, 0], [1, 2, 0, 1], [0, 0, 0, 0], [2, 2, 1, 0],
              [1, 0, 0, 0], [0, 1, 1, 2]]))
@example((13, 3, [[0, 0, 0], [5, 0, 12], [0, 0, 0], [1, 0, 0]]))
def test_count_matches_per_element_reference(case):
    p, k, f = case
    F = make_extension(make_prime_field(p), k)
    f = [F.from_digits(c) for c in f]
    assert count_curve_points(F, f, F.q) == _reference(F, f)
