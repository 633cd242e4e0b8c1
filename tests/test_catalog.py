"""Tests for catalog ingestion, validation, and multiplicity counts.

Exact counts are checked against the bundled table by brute enumeration;
the asymptotic model is checked against its closed formula and power law.
"""

import math
from fractions import Fraction

import pytest

from knotstat.catalog import (
    DEFAULT_C,
    GENUS_CAP,
    LOWER_C,
    Catalog,
    KnotRecord,
    MultiplicityModel,
    _log_count_weight,
    _log_term,
    builtin_catalog,
    builtin_catalog_path,
    load_catalog,
    weights_with_counts,
)
from knotstat.errors import CatalogError

HEADER = "name,crossings,genus,alternating,torus,alexander\n"


def write_csv(tmp_path, body, name="knots.csv"):
    path = tmp_path / name
    path.write_text(HEADER + body)
    return path


class TestLoadCatalog:
    def test_minimal_two_row_file(self, tmp_path):
        path = write_csv(
            tmp_path,
            "3_1,3,1,true,true,1 -1 1\n4_1,4,1,true,false,-1 3 -1\n",
        )
        cat = load_catalog(path)
        assert len(cat) == 2
        assert cat.get("3_1").crossing_number == 3
        assert cat.get("4_1").genus == 1

    def test_missing_file(self, tmp_path):
        with pytest.raises(CatalogError, match="not found"):
            load_catalog(tmp_path / "absent.csv")

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(CatalogError, match="empty"):
            load_catalog(path)

    def test_bad_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("knot,cr,g\n3_1,3,1\n")
        with pytest.raises(CatalogError, match="line 1"):
            load_catalog(path)

    def test_parse_error_carries_line_number(self, tmp_path):
        path = write_csv(
            tmp_path,
            "3_1,3,1,true,true,1 -1 1\n4_1,four,1,true,false,-1 3 -1\n",
        )
        with pytest.raises(CatalogError, match="line 3"):
            load_catalog(path)

    def test_bad_boolean_carries_line_number(self, tmp_path):
        path = write_csv(tmp_path, "3_1,3,1,maybe,true,1 -1 1\n")
        with pytest.raises(CatalogError, match="line 2"):
            load_catalog(path)

    def test_bad_column_count(self, tmp_path):
        path = write_csv(tmp_path, "3_1,3,1,true,1 -1 1\n")
        with pytest.raises(CatalogError, match="line 2"):
            load_catalog(path)

    def test_determinant_violation_carries_record_name(self, tmp_path):
        # coefficients sum to 2 at t=1
        path = write_csv(tmp_path, "9_99,9,2,true,false,1 0 1\n")
        with pytest.raises(CatalogError, match="9_99"):
            load_catalog(path)

    def test_palindrome_violation_carries_record_name(self, tmp_path):
        path = write_csv(tmp_path, "9_98,9,2,true,false,1 -3 2 1\n")
        with pytest.raises(CatalogError, match="9_98"):
            load_catalog(path)

    def test_duplicate_names_rejected(self, tmp_path):
        path = write_csv(
            tmp_path,
            "3_1,3,1,true,true,1 -1 1\n3_1,3,1,true,true,1 -1 1\n",
        )
        with pytest.raises(CatalogError, match="duplicate"):
            load_catalog(path)

    def test_filter_alternating_drops_rows(self, tmp_path):
        path = write_csv(
            tmp_path,
            "3_1,3,1,true,true,1 -1 1\n8_19,8,3,false,true,1 -1 0 1 0 -1 1\n",
        )
        cat = load_catalog(path, filter="alternating")
        assert len(cat) == 1
        assert "3_1" in cat
        assert "8_19" not in cat

    def test_blank_lines_skipped(self, tmp_path):
        path = write_csv(tmp_path, "\n3_1,3,1,true,true,1 -1 1\n\n")
        assert len(load_catalog(path)) == 1


class TestKnotRecord:
    def test_crossing_number_floor(self):
        with pytest.raises(CatalogError, match="crossing number"):
            KnotRecord("bad", 2, 1, True, False, (1, -1, 1))

    def test_genus_floor(self):
        with pytest.raises(CatalogError, match="genus"):
            KnotRecord("bad", 3, 0, True, False, (1, -1, 1))

    def test_seifert_bound(self):
        """deg Delta <= 2g: 5_1's degree-4 Delta needs genus 2."""
        with pytest.raises(CatalogError, match="^record 5_1: Alexander polynomial of degree 4 "
                                               "breaks Seifert's bound deg Delta <= 2g = 2$"):
            KnotRecord("5_1", 5, 1, True, True, (1, -1, 1, -1, 1))
        assert KnotRecord("5_1", 5, 2, True, True, (1, -1, 1, -1, 1)).genus == 2
        # zero coefficients at both ends take no part in the degree
        assert KnotRecord("3_1", 3, 1, True, True, (0, 1, -1, 1, 0)).genus == 1

    def test_seifert_bound_names_the_row(self, tmp_path):
        path = write_csv(tmp_path, "3_1,3,1,true,true,1 -1 1\n5_1,5,1,true,true,1 -1 1 -1 1\n")
        with pytest.raises(CatalogError, match="^record 5_1: .* deg Delta <= 2g = 2$"):
            load_catalog(path)

    def test_weight_is_crossings_plus_genus(self):
        rec = KnotRecord("3_1", 3, 1, True, True, (1, -1, 1))
        assert rec.weight == 4


class TestBuiltinCatalog:
    def test_size_through_eight_crossings(self, cat):
        # 1+1+2+3+7+21 prime knots with 3..8 crossings
        assert len(cat) == 35

    def test_every_record_valid(self, cat):
        for rec in cat:
            assert rec.crossing_number >= 3 and rec.genus >= 1
            assert abs(sum(rec.alexander_coeffs)) == 1
            assert list(rec.alexander_coeffs) == list(
                reversed(rec.alexander_coeffs)
            )

    def test_path_exists(self):
        assert builtin_catalog_path().exists()

    def test_get_unknown_name(self, cat):
        with pytest.raises(CatalogError, match="unknown"):
            cat.get("99_1")

    def test_filters(self, cat):
        alt = cat.filtered("alternating")
        assert all(r.alternating for r in alt)
        # 8_19, 8_20, 8_21 are the non-alternating knots through 8 crossings
        assert len(alt) == 32
        tf = cat.filtered("torus-free")
        assert all(not r.torus for r in tf)
        assert "3_1" not in tf

    def test_unknown_filter(self, cat):
        with pytest.raises(CatalogError):
            cat.filtered("mirror")


def _brute_count(model, n, genus_cap):
    """The model count of weight n, summed exactly over genus 1..genus_cap."""
    c = Fraction(model.C)
    return sum(
        c**g / math.factorial(6 * g) * (n - g + 1) ** (6 * g - 4)
        for g in range(1, min(n, genus_cap) + 1)
    )


class TestCountAsymptotic:
    def test_direct_formula(self):
        assert _log_term(math.log(400.0), 10, 1) == pytest.approx(
            math.log(400.0 / math.factorial(6) * 10**2), rel=1e-15
        )

    def test_genus_zero_excluded(self, model):
        # the genus sum starts at g = 1 (no unknot row); a genus-0 term
        # (n + 1)^-4 would move the count at n = 7 by 8^-4
        count = math.exp(_log_count_weight(model, 7))
        assert count == pytest.approx(float(_brute_count(model, 7, GENUS_CAP)), rel=1e-14)
        assert count != pytest.approx(float(_brute_count(model, 7, GENUS_CAP) + Fraction(1, 8**4)),
                                      rel=1e-12)

    def test_power_law_ratio(self, model):
        log_c = math.log(model.C)
        for g in (1, 2, 3):
            ratio = _log_term(log_c, 20, g) - _log_term(log_c, 10, g)
            assert ratio == pytest.approx((6 * g - 4) * math.log(2.0), rel=1e-12)

    def test_monotone_in_n(self, model):
        log_c = math.log(model.C)
        for g in (1, 2):
            values = [_log_term(log_c, n, g) for n in range(1, 40)]
            assert all(b >= a for a, b in zip(values, values[1:]))

    def test_constant_bounds_enforced(self):
        with pytest.raises(CatalogError):
            MultiplicityModel(C=399.0)
        with pytest.raises(CatalogError):
            MultiplicityModel(C=DEFAULT_C * 1.01)
        MultiplicityModel(C=LOWER_C)
        MultiplicityModel(C=DEFAULT_C)

    def test_log_routes_keep_their_bits(self, model):
        assert [_log_count_weight(model, n).hex() for n in (2, 4, 50, 300, 4000)] == [
            "0x1.0a17de3db44d0p+1", "0x1.065e32a6f4e52p+2", "0x1.918ceb88ffabap+6",
            "0x1.3f2bd91f7ee9dp+9", "0x1.aa88151114687p+10"]
        assert _log_count_weight(model, 1) == -math.inf
        for n in (4, 12, 40):
            assert _log_count_weight(model, n) == pytest.approx(
                math.log(_brute_count(model, n, GENUS_CAP)), rel=1e-14)

    def test_genus_cap(self, model):
        n = GENUS_CAP + 20
        assert _log_count_weight(model, n) == pytest.approx(
            math.log(_brute_count(model, n, GENUS_CAP)), rel=1e-14)


class TestCountWeight:
    def test_exact_weight_four(self, cat):
        # only the trefoil has Cr + g = 4
        assert dict(weights_with_counts(cat))[4] == 1

    def test_exact_weight_two(self, cat):
        assert 2 not in dict(weights_with_counts(cat))

    def test_exact_matches_brute(self, cat):
        counts = dict(weights_with_counts(cat))
        for n in range(3, 13):
            brute = sum(1 for r in cat if r.crossing_number + r.genus == n)
            assert counts.get(n, 0) == brute

    def test_asymptotic_matches_truncated_sum(self, model):
        for n in (4, 7, 12):
            brute = sum(
                model.C**g / math.factorial(6 * g) * float(n - g + 1) ** (6 * g - 4)
                for g in range(1, n + 1)
            )
            assert math.exp(_log_count_weight(model, n)) == pytest.approx(brute, rel=1e-14)

    def test_weights_with_counts_consistent(self, cat):
        pairs = weights_with_counts(cat)
        assert pairs == sorted(pairs)
        assert sum(c for _, c in pairs) == len(cat)
        for w, c in pairs:
            assert sum(1 for r in cat if r.weight == w) == c


class TestCatalogContainer:
    def test_duplicate_record_names(self):
        rec = KnotRecord("3_1", 3, 1, True, True, (1, -1, 1))
        with pytest.raises(CatalogError, match="duplicate"):
            Catalog(records=(rec, rec))

    def test_iteration_order_stable(self, cat):
        names = [r.name for r in cat]
        assert names[0] == "3_1"
        assert names == sorted(names, key=lambda s: (int(s.split("_")[0]),
                                                     int(s.split("_")[1])))

    def test_weights_table_is_derived(self, cat):
        assert cat.weights == {r.name: r.weight for r in cat if r.alternating}
        assert list(cat.weights) == [r.name for r in cat if r.alternating]
        rebuilt = Catalog(cat.records)
        assert rebuilt.index == {r.name: r for r in cat}
        assert rebuilt.weights == cat.weights and rebuilt == cat
        assert hash(rebuilt) == hash(cat)
        assert cat.filtered("torus-free").weights == {
            r.name: r.weight for r in cat if r.alternating and not r.torus}
