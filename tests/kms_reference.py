"""Reference implementation of the unit-circle power of ``knotstat.kms``,
kept for the tests.

``unit_ipow`` is the renormalized square-and-multiply loop as it was before
``kms._unit_ipow`` read the bits of n from ``bin(n)``: it tests the low bit
with ``n & 1`` and shifts the whole exponent with ``n >>= 1``, so it takes
time quadratic in the bit length of n.  It does the same multiplies in the
same order, so the oracle test compares the two bit for bit.
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
