"""Reference implementations for ``knotstat.kms``, kept for the tests.

``unit_ipow`` is the renormalized square-and-multiply loop as it was before
``kms._unit_ipow`` read the bits of n from ``bin(n)``: it tests the low bit
with ``n & 1`` and shifts the whole exponent with ``n >>= 1``, so it takes
time quadratic in the bit length of n.  It does the same multiplies in the
same order, so the oracle test compares the two bit for bit.

``linear_state`` extends a state given on the basis elements e(r) of
Q[Q/Z] linearly over a group-ring element's terms, so that the scaling law
of the KMS states can be checked against ``crossed``'s ``alpha_n`` and
``e_n``.
"""


def unit_ipow(base: complex, n: int) -> complex:
    """base^n for |base| = 1 and exact integer n, one shift of n per bit."""
    if n < 0:
        return unit_ipow(base.conjugate(), -n)
    result = complex(1.0)
    acc = base / abs(base)
    while n:
        if n & 1:
            result *= acc
            result /= abs(result)
        acc *= acc
        acc /= abs(acc)
        n >>= 1
    return result


def linear_state(value, x) -> complex:
    """The state that is ``value(r)`` on e(r), at x: the sum of c value(r)
    over the terms c e(r) of the group-ring element x."""
    return sum((float(c) * value(r) for r, c in x.terms.items()), 0j)
