"""Prime-knot tables: ingestion, exact multiplicity counts, and the
asymptotic multiplicity model.

A catalog is an immutable, validated list of prime-knot records loaded
from CSV (``name,crossings,genus,alternating,torus,alexander`` with the
Alexander coefficients space-separated, lowest degree first).  The unknot
is never a catalog row; it is the semigroup identity.

Multiplicity counts come from a catalog or a model.  A catalog gives the
exact count of its rows of each weight Cr + g (``count_weight``).  The
model is C_g n^{6g-4} with C_g = C^g/(6g)! and C between 400 and 2^20/3^6;
the upper value is the default since the convergence threshold beta_plus
is derived from it.
"""

from __future__ import annotations

import csv
import math
from math import factorial
from pathlib import Path
from typing import Literal, Union

from ._record import Record
from .errors import CatalogError

__all__ = [
    "KnotRecord",
    "Catalog",
    "MultiplicityModel",
    "DEFAULT_C",
    "LOWER_C",
    "GENUS_CAP",
    "load_catalog",
    "builtin_catalog",
    "builtin_catalog_path",
    "count_asymptotic",
    "count_weight",
    "weights_with_counts",
]

#: Upper and lower admissible values of the asymptotic constant C.
DEFAULT_C = 2**20 / 3**6
LOWER_C = 400.0

#: Highest genus the model's weight counts sum over.
GENUS_CAP = 64

_FIELDS = ("name", "crossings", "genus", "alternating", "torus", "alexander")


def _require_int(record: str, field: str, value) -> None:
    """Refuse a record field that is not an int (a bool is refused too)."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise CatalogError(
            f"record {record}: {field} must be an int, got {type(value).__name__} {value!r}"
        )


class KnotRecord(Record):
    """One prime knot: its classical invariants and Alexander coefficients,
    checked on construction (a violated invariant names the record).

    Every field but the flags is an ``int``; the crossing number is at
    least 3, the genus at least 1, and the Alexander coefficients are
    nonempty, palindromic and sum to +-1 (Delta(1) = +-1).
    """

    __slots__ = ("name", "crossing_number", "genus", "alternating", "torus",
                 "alexander_coeffs")

    def __init__(
        self,
        name: str,
        crossing_number: int,
        genus: int,
        alternating: bool,
        torus: bool,
        alexander_coeffs: tuple[int, ...],
    ) -> None:
        _require_int(name, "crossing number", crossing_number)
        _require_int(name, "genus", genus)
        if crossing_number < 3:
            raise CatalogError(
                f"record {name}: prime knots need crossing number >= 3, "
                f"got {crossing_number}"
            )
        if genus < 1:
            raise CatalogError(f"record {name}: prime knots need genus >= 1, got {genus}")
        if not alexander_coeffs:
            raise CatalogError(f"record {name}: empty Alexander coefficients")
        for coeff in alexander_coeffs:
            _require_int(name, "Alexander coefficient", coeff)
        if abs(sum(alexander_coeffs)) != 1:
            raise CatalogError(
                f"record {name}: Alexander polynomial must evaluate to +-1 "
                f"at t=1, got {sum(alexander_coeffs)}"
            )
        if list(alexander_coeffs) != list(reversed(alexander_coeffs)):
            raise CatalogError(
                f"record {name}: Alexander coefficients must be palindromic, "
                f"got {list(alexander_coeffs)}"
            )
        self._set(name, crossing_number, genus, alternating, torus, alexander_coeffs)

    @property
    def weight(self) -> int:
        """Cr(K) + g(K), the exponent weight of this prime knot."""
        return self.crossing_number + self.genus


class Catalog(Record):
    """An immutable ordered table of prime knots with a name index.

    ``index`` maps each name to its record and ``weights`` maps the name of
    each alternating prime to its weight Cr + g; those are the only primes
    the semigroup weighs.  Both are derived from ``records`` and take no
    part in ``==`` or ``hash``.
    """

    __slots__ = ("records", "index", "weights")
    _compare = ("records",)

    def __init__(self, records: tuple[KnotRecord, ...]) -> None:
        idx = {}
        for rec in records:
            if rec.name in idx:
                raise CatalogError(f"duplicate record name {rec.name}")
            idx[rec.name] = rec
        alternating = {rec.name: rec.weight for rec in records if rec.alternating}
        self._set(records, idx, alternating)

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self):
        return iter(self.records)

    def __contains__(self, name: str) -> bool:
        return name in self.index

    def get(self, name: str) -> KnotRecord:
        try:
            return self.index[name]
        except KeyError:
            raise CatalogError(f"unknown prime knot {name!r}") from None

    def filtered(self, mode: Literal["all", "alternating", "torus-free"]) -> "Catalog":
        if mode == "all":
            return self
        if mode == "alternating":
            keep = tuple(r for r in self.records if r.alternating)
        elif mode == "torus-free":
            keep = tuple(r for r in self.records if not r.torus)
        else:
            raise CatalogError(f"unknown filter {mode!r}")
        return Catalog(records=keep)


class MultiplicityModel(Record):
    """Asymptotic multiplicity model N_{n,g} ~ (C^g/(6g)!) n^{6g-4}."""

    __slots__ = ("C",)

    def __init__(self, C: float = DEFAULT_C) -> None:
        if not isinstance(C, (int, float)) or isinstance(C, bool):
            raise CatalogError(
                f"asymptotic constant C must be a real number, got {type(C).__name__} {C!r}"
            )
        if not LOWER_C <= C <= DEFAULT_C:  # NaN fails it too
            raise CatalogError(
                f"asymptotic constant C must lie in [{LOWER_C}, {DEFAULT_C}], "
                f"got {C}"
            )
        self._set(C)


def _parse_bool(text: str, line_no: int, col: str) -> bool:
    t = text.strip().lower()
    if t in ("1", "true", "yes"):
        return True
    if t in ("0", "false", "no"):
        return False
    raise CatalogError(f"line {line_no}: bad boolean {text!r} in column {col}")


def load_catalog(
    path: Union[str, Path],
    filter: Literal["all", "alternating", "torus-free"] = "all",
) -> Catalog:
    """Load and validate a knot table from CSV.

    Parse errors carry the 1-based line number; invariant violations carry
    the record name.
    """
    path = Path(path)
    if not path.exists():
        raise CatalogError(f"catalog file not found: {path}")
    records = []
    with path.open(newline="") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader)
        except StopIteration:
            raise CatalogError("empty catalog file") from None
        if tuple(h.strip() for h in header) != _FIELDS:
            raise CatalogError(
                f"line 1: expected header {','.join(_FIELDS)}, got {','.join(header)}"
            )
        for line_no, row in enumerate(reader, start=2):
            if not row or all(not cell.strip() for cell in row):
                continue
            if len(row) != len(_FIELDS):
                raise CatalogError(
                    f"line {line_no}: expected {len(_FIELDS)} columns, got {len(row)}"
                )
            name = row[0].strip()
            try:
                crossings = int(row[1])
                genus = int(row[2])
            except ValueError as exc:
                raise CatalogError(f"line {line_no}: {exc}") from None
            alternating = _parse_bool(row[3], line_no, "alternating")
            torus = _parse_bool(row[4], line_no, "torus")
            try:
                coeffs = tuple(int(tok) for tok in row[5].split())
            except ValueError as exc:
                raise CatalogError(
                    f"line {line_no}: bad alexander coefficients: {exc}"
                ) from None
            rec = KnotRecord(
                name=name,
                crossing_number=crossings,
                genus=genus,
                alternating=alternating,
                torus=torus,
                alexander_coeffs=coeffs,
            )
            records.append(rec)
    return Catalog(records=tuple(records)).filtered(filter)


def builtin_catalog_path() -> Path:
    """Path of the bundled prime-knot table (all knots through 8 crossings)."""
    return Path(__file__).parent / "data" / "knots.csv"


def builtin_catalog(
    filter: Literal["all", "alternating", "torus-free"] = "all",
) -> Catalog:
    """The bundled table of the 35 prime knots with at most 8 crossings."""
    return load_catalog(builtin_catalog_path(), filter=filter)


def _log_term(log_c: float, n: int, g: int) -> float:
    """ln of the model term (C^g/(6g)!) n^{6g-4}, given ln C."""
    return g * log_c - math.lgamma(6 * g + 1) + (6 * g - 4) * math.log(n)


def count_asymptotic(model: MultiplicityModel, n: int, g: int) -> float:
    """The model value (C^g/(6g)!) n^{6g-4}; zero for g <= 0 (no unknot row)."""
    if g <= 0 or n <= 0:
        return 0.0
    try:
        return model.C**g / factorial(6 * g) * float(n) ** (6 * g - 4)
    except OverflowError:
        # n^(6g-4) alone can exceed float range even when the (6g)! in
        # the denominator would pull the value back; settle it in logs
        log_value = _log_term(math.log(model.C), n, g)
        return math.exp(log_value) if log_value <= 700.0 else math.inf


def count_weight(cat_or_model: Union[Catalog, MultiplicityModel], n: int) -> float:
    """Number (exact) or model count of prime knots with Cr + g = n.

    A catalog gives the exact count of its rows; a model evaluates the
    sum over genus g <= min(n, GENUS_CAP) of (C^g/(6g)!) (n-g+1)^{6g-4},
    the model's count of weight-n knots with the crossing number n-g
    shifted by one to keep the power-law argument positive through g = n.
    """
    if isinstance(cat_or_model, Catalog):
        return float(sum(1 for r in cat_or_model if r.weight == n))
    model = cat_or_model
    total = 0.0
    for g in range(1, min(n, GENUS_CAP) + 1):
        total += count_asymptotic(model, n - g + 1, g)
    return total


def _log_count_weight(model: MultiplicityModel, n: int) -> float:
    """ln count_weight(model, n), stable far beyond float range.

    log-sum-exp of the genus terms; the counts themselves overflow double
    precision past weight ~300.
    """
    if n < 2:
        return -math.inf
    log_c = math.log(model.C)
    logs = [_log_term(log_c, n - g + 1, g) for g in range(1, min(n, GENUS_CAP) + 1)]
    top = max(logs)
    return top + math.log(sum(math.exp(v - top) for v in logs))


def weights_with_counts(
    cat: Catalog,
) -> list[tuple[int, int]]:
    """Sorted (weight, multiplicity) pairs over the catalog's prime knots."""
    counts: dict[int, int] = {}
    for rec in cat:
        counts[rec.weight] = counts.get(rec.weight, 0) + 1
    return sorted(counts.items())
