"""Shared exception types, the one type test that every argument refused by
type goes through, and the work meter that every cost cap refuses through.

The CLI maps these to exit codes: DomainError and DivergenceError exit 1,
usage problems exit 2.  Everything else is a bug.
"""


class KnotstatError(Exception):
    """Base class for all library errors."""


class DomainError(KnotstatError, ValueError):
    """An argument lies outside an operation's stated domain."""


class DivergenceError(KnotstatError, ArithmeticError):
    """A series or product diverges for the requested parameters."""


class CatalogError(KnotstatError, ValueError):
    """A catalog file failed to parse or a record violates an invariant."""


class PresentationError(KnotstatError, ValueError):
    """A group presentation is malformed or fails a required invariant."""


def _check_type(value, what: str, types=int, error=DomainError) -> None:
    """Refuse ``value`` unless it is an instance of ``types`` (int by default),
    a bool always, with ``error(f"{what}, got <type> <repr>")``: ``what``
    names the argument and what it must be, and ``error`` is ``DomainError``
    or, in catalog and presentation code, ``CatalogError`` or
    ``PresentationError``."""
    if not isinstance(value, types) or isinstance(value, bool):
        raise error(f"{what}, got {type(value).__name__} {value!r}")


# Bit products (the bit lengths of two big-int operands multiplied, summed
# over the products, divisions and gcds a loop runs) that the big-int loops
# of one call may spend: Bareiss row updates and bc_normalize steps run about
# 5-6.5 * 10^11 a second (2-vCPU x86_64, Python 3.11), so 1.1-1.4 s of work.
_MAX_BIG_INT_WORK = 7 * 10**11


class _WorkMeter:
    """Units of work one call has spent, refused past a limit: every cost cap
    refuses through ``charge``, in one form naming the work, the units spent
    or needed and the limit.  A loop charges each row or step as it goes; a
    check up front charges the whole size before it allocates, or, through
    ``check``, refuses a lower bound of what a loop would charge."""

    __slots__ = ("work", "unit", "limit", "spent")

    def __init__(self, work: str, unit: str, limit: int) -> None:
        self.work, self.unit, self.limit, self.spent = work, unit, limit, 0

    def charge(self, units: int) -> None:
        self.spent += units
        if self.spent > self.limit:
            raise DomainError(f"{self.work} would take {self.spent} {self.unit}, "
                              f"more than the work cap of {self.limit} {self.unit}")

    def check(self, units: int) -> None:
        """Refuse as ``charge`` does if ``units`` more would pass the limit, and
        charge nothing otherwise: ``units`` is a lower bound of work that a
        loop charges as it runs, checked before the loop allocates."""
        if self.spent + units > self.limit:
            self.charge(units)
