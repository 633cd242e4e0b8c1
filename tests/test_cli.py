"""End-to-end tests of the command-line interface.

Every subcommand is exercised through ``run(argv)`` with captured
stdout; values are cross-checked against direct library calls, exit
codes against the documented 0/1/2 contract, and repeated runs against
the bit-identical determinism guarantee.
"""

import argparse
import csv
import io
import json
import math
import os
import re
import shutil
import subprocess
import sys
import time
from itertools import compress
from pathlib import Path

import pytest

from knotstat import cli
from knotstat import knotgroups as kg
from knotstat import partition as pt
from knotstat.catalog import builtin_catalog_path, load_catalog
from knotstat.cli import run
from knotstat.crossed import GroupRingElement, QmodZ, alpha_n, bc_normalize, idempotent_e
from knotstat.errors import DomainError
from knotstat.semigroup import enumerate_group_elements
from knotstat.specfun import _MAX_SIEVE, _prime_flags, lerch

CSV_HEADER = "name,crossings,genus,alternating,torus,alexander\n"


def invoke(capsys, *argv):
    code = run(list(argv))
    out = capsys.readouterr().out
    return code, out


def invoke_json(capsys, *argv):
    code, out = invoke(capsys, *argv)
    return code, json.loads(out)


def read_csv(text):
    rows = list(csv.reader(io.StringIO(text)))
    return rows[0], rows[1:]


class TestExitCodes:
    def test_success_is_zero(self, capsys):
        code, _ = invoke(capsys, "thresholds", "--q", "2")
        assert code == 0

    def test_domain_error_is_one_with_error_field(self, capsys):
        code, payload = invoke_json(capsys, "z-qstar", "--beta", "1")
        assert code == 1
        assert "error" in payload

    def test_divergence_is_one(self, capsys):
        code, payload = invoke_json(
            capsys, "z-alt", "--beta", "1.5", "--source", "model"
        )
        assert code == 1
        assert "beta_minus" in payload["error"]

    def test_unknown_subcommand_is_two(self, capsys):
        assert run(["no-such-command"]) == 2

    def test_unknown_flag_is_two(self, capsys):
        assert run(["thresholds", "--frobnicate"]) == 2

    def test_missing_required_flag_is_two(self, capsys):
        assert run(["z-alt"]) == 2

    def test_bad_q_is_one(self, capsys):
        code, payload = invoke_json(capsys, "thresholds", "--q", "1")
        assert code == 1
        assert "q" in payload["error"]

    def test_bad_tolerance_is_one(self, capsys):
        code, payload = invoke_json(
            capsys, "z-qstar", "--beta", "2", "--tolerance", "-1"
        )
        assert code == 1
        assert "tolerance" in payload["error"]

    @pytest.mark.parametrize(
        "argv",
        [
            ("kms-psi", "--beta", "2", "--n-rho", "1000000000000000003",
             "--entry", "unknot::e:1/2"),
            ("z-tau", "--beta", "2", "--n-rho", "1000000000000000003"),
            ("kms-bc", "--r", "1/1000000000000000003", "--beta", "0.5"),
        ],
        ids=["kms-psi", "z-tau", "kms-bc"],
    )
    def test_unfactorable_integer_is_one_and_prompt(self, capsys, argv):
        """A prime near 10^18 is refused after bounded trial division; each
        of these ran for over 10 s before."""
        start = time.perf_counter()
        code, payload = invoke_json(capsys, *argv)
        assert time.perf_counter() - start < 2.0
        assert code == 1
        assert payload == {"error": (
            "factoring 1000000000000000003 would take 1000000000 trial divisors, "
            "more than the work cap of 1000000 trial divisors")}

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "0"])
    def test_non_finite_or_zero_tolerance_is_one(self, capsys, value):
        code, payload = invoke_json(
            capsys, "z-alt", "--beta", "2", f"--tolerance={value}"
        )
        assert code == 1
        assert "tolerance" in payload["error"]

    @pytest.mark.parametrize(
        "argv",
        [
            ("kms-bc", "--r", "1/0", "--beta", "2"),
            ("bc-normalize", "--word", "e:1/0"),
            ("kms-psi", "--beta", "2", "--entry", "unknot::e:1/0"),
        ],
    )
    def test_zero_denominator_is_one(self, capsys, argv):
        code, payload = invoke_json(capsys, *argv)
        assert code == 1
        assert "denominator" in payload["error"]

    def test_huge_polylog_denominator_refused_in_time(self, capsys):
        start = time.perf_counter()
        code, payload = invoke_json(
            capsys, "kms-bc", "--r", "1/30000001", "--beta", "2"
        )
        assert time.perf_counter() - start < 2.0
        assert code == 1
        assert "30000001" in payload["error"]

    def test_csv_error_mode(self, capsys):
        code, out = invoke(
            capsys, "figures", "--which", "H", "--n-points", "1",
            "--output", "csv",
        )
        assert code == 1
        header, rows = read_csv(out)
        assert header == ["error"]
        assert len(rows) == 1


class _ClosedPipe(io.StringIO):
    """A stdout whose reader has gone: every write raises BrokenPipeError."""

    def __init__(self, fd):
        super().__init__()
        self.fd = fd

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")

    def fileno(self):
        return self.fd


class TestBrokenPipe:
    """A reader that closes the pipe early gets exit 1 and no traceback."""

    def test_in_process(self, capsys, monkeypatch, tmp_path):
        fd = os.open(tmp_path / "stdout", os.O_WRONLY | os.O_CREAT)
        try:
            monkeypatch.setattr(sys, "stdout", _ClosedPipe(fd))
            assert run(["thresholds", "--q", "2"]) == 1
            # the descriptor behind stdout now points at os.devnull
            assert os.path.samestat(os.fstat(fd), os.stat(os.devnull))
        finally:
            os.close(fd)
        assert capsys.readouterr().err == ""

    def test_fresh_process(self):
        read, write = os.pipe()
        os.close(read)  # the reader is gone before the command writes
        env = dict(os.environ,
                   PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "knotstat.cli", "thresholds", "--q", "2"],
                stdout=write, stderr=subprocess.PIPE, env=env, text=True, timeout=120,
            )
        finally:
            os.close(write)
        assert (proc.returncode, proc.stderr) == (1, "")


class TestThresholds:
    def test_q_two_values(self, capsys):
        code, payload = invoke_json(capsys, "thresholds", "--q", "2")
        assert code == 0
        assert payload["beta_plus"] == pytest.approx(9.4704, abs=1e-3)
        assert payload["beta_minus"] == pytest.approx(1.9391, abs=5e-4)
        assert payload["rhs_constant"] == pytest.approx(8.1905, abs=5e-4)
        assert payload["F"] == pytest.approx(40.657, abs=5e-3)
        assert payload["crossover_x"] == pytest.approx(1.0883, abs=5e-4)
        assert payload["beta_tilde_minus"] == pytest.approx(1.5564, abs=5e-4)
        assert payload["q"] == 2

    def test_large_q_values(self, capsys):
        _, p100 = invoke_json(capsys, "thresholds", "--q", "100")
        assert p100["beta_minus"] == pytest.approx(0.3362, abs=5e-4)
        _, p1000 = invoke_json(capsys, "thresholds", "--q", "1000")
        assert p1000["beta_minus"] == pytest.approx(0.2262, abs=5e-4)

    def test_huge_q(self, capsys):
        code, payload = invoke_json(capsys, "thresholds", "--q", "1000000")
        assert code == 0
        assert payload["beta_tilde_minus"] < payload["beta_minus"] < payload["beta_plus"]

    def test_astronomical_q(self, capsys):
        code, payload = invoke_json(capsys, "thresholds", "--q", str(10**40))
        assert code == 0
        assert payload["beta_tilde_minus"] < payload["beta_minus"] < payload["beta_plus"]
        assert payload["F"] > 0

    def test_env_override(self, capsys, monkeypatch):
        monkeypatch.setenv("KNOTSTAT_Q", "100")
        code, payload = invoke_json(capsys, "thresholds")
        assert code == 0
        assert payload["q"] == 100
        assert payload["beta_minus"] == pytest.approx(0.3362, abs=5e-4)

    def test_bit_identical_runs(self, capsys):
        _, first = invoke(capsys, "thresholds", "--q", "2")
        _, second = invoke(capsys, "thresholds", "--q", "2")
        assert first == second


class TestIngest:
    def test_builtin_summary(self, capsys):
        code, payload = invoke_json(capsys, "ingest")
        assert code == 0
        assert payload["rows"] == 35
        assert payload["alternating"] == 32
        assert payload["filter"] == "all"

    def test_alternating_filter(self, capsys):
        _, payload = invoke_json(capsys, "ingest", "--filter", "alternating")
        assert payload["rows"] == 32

    def test_csv_table(self, capsys):
        code, out = invoke(capsys, "ingest", "--output", "csv")
        assert code == 0
        header, rows = read_csv(out)
        assert header == [
            "name", "crossings", "genus", "alternating", "torus", "weight",
            "alexander",
        ]
        assert len(rows) == 35
        trefoil = next(r for r in rows if r[0] == "3_1")
        assert trefoil[1:3] == ["3", "1"]
        assert trefoil[6] == "1 -1 1"

    def test_custom_catalog(self, capsys, tmp_path):
        path = tmp_path / "two.csv"
        path.write_text(
            CSV_HEADER
            + "3_1,3,1,true,true,1 -1 1\n"
            + "4_1,4,1,true,false,1 -3 1\n"
        )
        code, payload = invoke_json(capsys, "ingest", "--catalog", str(path))
        assert code == 0
        assert payload["rows"] == 2

    def test_seifert_bound_refused_by_row(self, capsys, tmp_path):
        """A genus-1 row with a degree-4 Delta breaks deg Delta <= 2g."""
        path = tmp_path / "bad.csv"
        path.write_text(CSV_HEADER + "3_1,3,1,true,true,1 -1 1\n"
                        + "5_1,5,1,true,true,1 -1 1 -1 1\n")
        code, payload = invoke_json(capsys, "ingest", "--catalog", str(path))
        assert code == 1
        assert set(payload) == {"error"}
        assert payload["error"].startswith("record 5_1: ")
        assert "Seifert's bound deg Delta <= 2g = 2" in payload["error"]

    def test_missing_catalog_is_error(self, capsys, tmp_path):
        code, payload = invoke_json(
            capsys, "ingest", "--catalog", str(tmp_path / "absent.csv")
        )
        assert code == 1
        assert "error" in payload


class TestPartitionCommands:
    def test_z_alt_matches_library(self, capsys, cat):
        code, payload = invoke_json(capsys, "z-alt", "--beta", "10")
        assert code == 0
        want = pt.z_alternating(10.0, 2, cat, tol=1e-12, mode="product")
        assert payload["value"] == want.value
        assert payload["converged"] is True
        assert payload["mode"] == "product"

    def test_z_alt_both_modes(self, capsys):
        code, payload = invoke_json(
            capsys, "z-alt", "--beta", "10", "--mode", "both",
            "--max-weight", "30",
        )
        assert code == 0
        details = payload["details"]
        assert abs(payload["value"] - details["direct"]) <= payload[
            "tail_bound"
        ]
        assert details["agreement"] <= payload["tail_bound"]

    def test_z_groth_identity(self, capsys, cat):
        code, payload = invoke_json(capsys, "z-groth", "--beta", "10")
        assert code == 0
        za = pt.z_alternating(10.0, 2, cat, tol=1e-12).value
        za2 = pt.z_alternating(20.0, 2, cat, tol=1e-12).value
        assert payload["value"] == pytest.approx(za * za / za2, rel=1e-12)

    def test_z_alt_model_infinities_print_as_strings(self, capsys):
        """Strict JSON has no infinity: the inf value and tail of the model
        product at beta = 3 print as the string "inf"."""
        assert invoke(capsys, "z-alt", "--source", "model", "--beta", "3") == (0, (
            '{"beta": 3.0, "converged": false, "details": {"log_value": 105808855071122.3}, '
            '"mode": "product", "q": 2, "source": "model", "status": "unknown-band", '
            '"tail_bound": "inf", "terms_used": 3997, "value": "inf"}\n'
        ))

    def test_z_qstar_closed(self, capsys):
        code, payload = invoke_json(capsys, "z-qstar", "--beta", "2")
        assert code == 0
        assert payload["value"] == 2.5
        assert payload["mode"] == "closed"

    def test_z_qstar_direct_brackets(self, capsys):
        code, payload = invoke_json(
            capsys, "z-qstar", "--beta", "2", "--mode", "direct",
            "--n-max", "50000",
        )
        assert code == 0
        assert abs(payload["value"] - 2.5) <= payload["tail_bound"]

    def test_z_tau_converges(self, capsys, cat):
        code, payload = invoke_json(capsys, "z-tau", "--beta", "1.5")
        assert code == 0
        assert payload["converged"] is True
        assert payload["group_elements"] == 117
        assert payload["value"] > 1.0

    def test_z_tau_by_weight_class(self, capsys, cat):
        """W = 60 (about 4e8 group elements) needs only the weight counts;
        the count matches the product over alternating primes of
        1 + 2 (x^w + x^2w + ...), multiplied out term by term."""
        start = time.perf_counter()
        code, payload = invoke_json(
            capsys, "z-tau", "--beta", "1.5", "--max-weight", "60"
        )
        assert time.perf_counter() - start < 2.0
        assert code == 0
        poly = [1] + [0] * 60
        for rec in cat:
            if rec.alternating:
                factor = [1] + [0] * 60
                for v in range(rec.weight, 61, rec.weight):
                    factor[v] = 2
                poly = [
                    sum(poly[i] * factor[v - i] for i in range(v + 1))
                    for v in range(61)
                ]
        assert payload["group_elements"] == sum(poly)
        assert payload["converged"] is True

    @pytest.mark.parametrize("max_weight", [12, 28, 36, 60])
    @pytest.mark.parametrize("beta, q", [("1.5", 2), ("1.01", 2), ("4", 3)])
    def test_z_tau_stdout_matches_every_weight_class(
        self, capsys, cat, max_weight, beta, q
    ):
        """The CLI passes the classes beyond the huge-weight cut as one entry;
        stdout equals that of z_tau over every class {q^(10 v): G(v)}."""
        code, out = invoke(
            capsys, "z-tau", "--beta", beta, "--q", str(q),
            "--max-weight", str(max_weight),
        )
        assert code == 0
        counts = pt.groth_weight_counts(
            [rec.weight for rec in cat if rec.alternating], max_weight
        )
        every_class = {q ** (10 * v): g_v for v, g_v in enumerate(counts) if g_v}
        result = pt.z_tau(float(beta), every_class, n_rho=1, tol=1e-12)
        assert out == cli._render(cli._series_payload(
            result, beta=float(beta), q=q, n_rho=1, max_weight=max_weight,
            group_elements=sum(counts),
        ))

    def test_z_tau_huge_truncation_in_time(self, capsys):
        start = time.perf_counter()
        code, payload = invoke_json(
            capsys, "z-tau", "--beta", "1.5", "--max-weight", "5000"
        )
        assert time.perf_counter() - start < 2.0
        assert code == 0 and payload["converged"] is True

    @pytest.mark.parametrize("mode", ["direct", "both"])
    @pytest.mark.parametrize("n_max", ["-1", "0", "10000001"])
    def test_z_qstar_n_max_refused(self, capsys, mode, n_max):
        code, payload = invoke_json(
            capsys, "z-qstar", "--beta", "2", "--mode", mode, "--n-max", n_max
        )
        assert code == 1
        assert "n_max" in payload["error"]

    def test_z_tau_divergence_signal(self, capsys):
        code, payload = invoke_json(capsys, "z-tau", "--beta", "1.0")
        assert code == 1
        assert "error" in payload

    @pytest.mark.parametrize("command", ["z-alt", "z-groth", "z-qstar", "z-tau"])
    def test_nan_beta_refused(self, capsys, command):
        code, payload = invoke_json(capsys, command, "--beta", "nan")
        assert code == 1
        assert "finite beta" in payload["error"]


class TestFigures:
    def test_f_grid_csv(self, capsys):
        code, out = invoke(
            capsys, "figures", "--which", "f", "--q", "11",
            "--beta-min", "auto", "--beta-max", "20", "--output", "csv",
        )
        assert code == 0
        header, rows = read_csv(out)
        assert header == ["beta", "f"]
        assert len(rows) == 200
        values = [float(v) for _, v in rows]
        assert all(a < b for a, b in zip(values, values[1:]))

    def test_f_grid_explicit_min(self, capsys):
        code, out = invoke(
            capsys, "figures", "--which", "f", "--q", "11",
            "--beta-min", "1.0", "--beta-max", "5", "--n-points", "10",
            "--output", "csv",
        )
        assert code == 0
        header, rows = read_csv(out)
        assert float(rows[0][0]) == 1.0
        assert float(rows[-1][0]) == 5.0

    def test_huge_beta_max_refused_or_finite(self, capsys):
        """f(beta, q) passes the float range near beta = 10^308: below that the
        values print finite, beyond it --beta-max is refused by name."""
        code, payload = invoke_json(
            capsys, "figures", "--which", "f", "--beta-max", "1e308",
        )
        assert code == 1
        assert "--beta-max" in payload["error"]
        assert "math domain error" not in payload["error"]
        for fmt in ("json", "csv"):
            code, out = invoke(
                capsys, "figures", "--which", "f", "--beta-max", "1e300",
                "--n-points", "20", "--output", fmt,
            )
            assert code == 0
            assert "inf" not in out and "nan" not in out
        values = [float(v) for _, v in read_csv(out)[1]]
        assert all(math.isfinite(v) for v in values)
        assert all(a < b for a, b in zip(values, values[1:]))

    def test_h_grid_positive(self, capsys):
        code, out = invoke(
            capsys, "figures", "--which", "H", "--q-min", "2",
            "--q-max", "100", "--n-points", "99", "--output", "csv",
        )
        assert code == 0
        header, rows = read_csv(out)
        assert header == ["q", "H"]
        assert len(rows) == 99
        assert all(float(h) > 0.0 for _, h in rows)

    def test_json_mode(self, capsys):
        code, payload = invoke_json(
            capsys, "figures", "--which", "H", "--n-points", "5",
        )
        assert code == 0
        assert payload["columns"] == ["q", "H"]
        assert len(payload["rows"]) == 5

    @pytest.mark.parametrize(
        "flag, value",
        [("--beta-min", "nan"), ("--beta-min", "inf"), ("--beta-max", "nan"),
         ("--beta-max", "-inf")],
    )
    def test_non_finite_beta_bound_refused(self, capsys, flag, value):
        code, payload = invoke_json(
            capsys, "figures", "--which", "f", "--q", "11", f"{flag}={value}",
            "--n-points", "3",
        )
        assert code == 1
        assert flag in payload["error"]

    @pytest.mark.parametrize("which, n_points", [("H", "0"), ("H", "1"), ("H", "-3"),
                                                 ("f", "1")])
    def test_fewer_than_two_points_refused(self, capsys, which, n_points):
        code, payload = invoke_json(
            capsys, "figures", "--which", which, "--n-points", n_points,
        )
        assert code == 1
        assert "n_points >= 2" in payload["error"]

    @pytest.mark.parametrize(
        "flag, value",
        [("--q-max", "1e400"), ("--q-max", "nan"), ("--q-min", "-inf"),
         ("--q-min", "nan")],
    )
    def test_non_finite_q_bound_refused(self, capsys, flag, value):
        code, payload = invoke_json(
            capsys, "figures", "--which", "H", f"{flag}={value}", "--n-points", "3",
        )
        assert code == 1
        assert flag in payload["error"] and "finite" in payload["error"]
        assert "lambda_beta" not in payload["error"]

    def test_bit_identical_runs(self, capsys):
        args = ("figures", "--which", "f", "--q", "3", "--output", "csv")
        _, first = invoke(capsys, *args)
        _, second = invoke(capsys, *args)
        assert first == second


class TestKmsCommands:
    def test_toeplitz_trefoil(self, capsys):
        code, payload = invoke_json(
            capsys, "kms-toeplitz", "--knot", "3_1", "--beta", "10",
        )
        assert code == 0
        assert payload["generator_ratio"] == 2.0**-40
        assert payload["lambda1"] == 1.0 - 2.0**-40
        assert len(payload["entries"]) == 5
        assert payload["partial_sum"] + payload["tail"] == 1.0

    def test_toeplitz_huge_q_refused(self, capsys):
        """q past the float range: q^(-beta w) underflows in log form and
        the state is refused, with no OverflowError from float(q)."""
        code, payload = invoke_json(
            capsys, "kms-toeplitz", "--knot", "3_1", "--beta", "10",
            "--q", str(10**400),
        )
        assert code == 1
        assert "(0,1)" in payload["error"]

    def test_toeplitz_unknot_rejected(self, capsys):
        code, payload = invoke_json(
            capsys, "kms-toeplitz", "--knot", "unknot", "--beta", "2",
        )
        assert code == 1
        assert "unknot" in payload["error"]

    @pytest.mark.parametrize("argv", [
        ("kms-toeplitz", "--knot", "8_19", "--beta", "10"),
        ("kms-psi", "--beta", "2", "--entry", "8_19::e:1/2"),
    ], ids=["toeplitz", "psi"])
    def test_non_alternating_factor_refused(self, capsys, argv):
        """Only alternating primes carry a weight; the refusal names the
        prime and offers no library keyword."""
        code, payload = invoke_json(capsys, *argv)
        assert code == 1
        assert "8_19 is not alternating" in payload["error"]
        assert "assume" not in payload["error"]

    def test_toeplitz_unknown_knot_refused(self, capsys):
        code, payload = invoke_json(capsys, "kms-toeplitz", "--knot", "99_1", "--beta", "10")
        assert code == 1
        assert payload["error"] == "unknown prime knot '99_1'"

    def test_bc_low(self, capsys):
        code, payload = invoke_json(
            capsys, "kms-bc", "--r", "1/2", "--beta", "2",
        )
        assert code == 0
        assert payload["regime"] == "low"
        assert payload["value"]["re"] == pytest.approx(-0.5, abs=1e-10)

    def test_bc_high(self, capsys):
        code, payload = invoke_json(
            capsys, "kms-bc", "--r", "1/2", "--beta", "0.5",
        )
        assert code == 0
        assert payload["regime"] == "high"
        assert payload["value"]["re"] == pytest.approx(
            math.sqrt(2.0) - 1.0, rel=1e-12
        )

    def test_bc_ground(self, capsys):
        code, payload = invoke_json(
            capsys, "kms-bc", "--r", "1/3", "--beta", "inf",
        )
        assert code == 0
        assert payload["regime"] == "ground"
        assert payload["beta"] == "inf"
        assert payload["value"]["re"] == pytest.approx(-0.5, abs=1e-12)
        assert payload["value"]["im"] == pytest.approx(
            math.sin(2.0 * math.pi / 3.0), abs=1e-12
        )

    def test_bc_unit_rotates(self, capsys):
        _, with_unit = invoke_json(
            capsys, "kms-bc", "--r", "1/3", "--beta", "2", "--u", "3:2",
        )
        _, rotated = invoke_json(
            capsys, "kms-bc", "--r", "2/3", "--beta", "2",
        )
        assert with_unit["value"] == rotated["value"]

    def test_bc_beta_is_a_float_flag(self, capsys):
        assert run(["kms-bc", "--r", "1/2", "--beta", "abc"]) == 2
        assert "argument --beta: invalid float value: 'abc'" in capsys.readouterr().err
        code, payload = invoke_json(capsys, "kms-bc", "--r", "1/3", "--beta", "Infinity")
        assert (code, payload["regime"], payload["beta"]) == (0, "ground", "inf")

    def test_bc_bad_unit(self, capsys):
        code, payload = invoke_json(
            capsys, "kms-bc", "--r", "1/3", "--beta", "2", "--u", "3-2",
        )
        assert code == 1
        assert "unit" in payload["error"]

    def test_psi_value(self, capsys):
        code, payload = invoke_json(
            capsys, "kms-psi", "--beta", "2",
            "--entry", "unknot -- unknot::e:1/2",
        )
        assert code == 0
        assert payload["entries"] == 1
        assert payload["value"]["re"] == pytest.approx(-0.5, abs=1e-10)

    def test_psi_mu_entry(self, capsys):
        code, payload = invoke_json(
            capsys, "kms-psi", "--beta", "2", "--entry", "unknot::mu:2",
        )
        assert code == 0
        assert payload["value"]["re"] == 0.25

    def test_psi_empty_support(self, capsys):
        code, payload = invoke_json(capsys, "kms-psi", "--beta", "2")
        assert code == 0
        assert payload["entries"] == 0
        assert payload["value"] == {"re": 1.0, "im": 0.0}

    def test_psi_translate(self, capsys):
        code, payload = invoke_json(
            capsys, "kms-psi", "--beta", "2", "--entry", "unknot::mu:2",
            "--translate", "3_1",
        )
        assert code == 0
        assert payload["difference"] < 1e-12
        assert payload["translate"] == "3_1"

    def test_psi_bad_entry(self, capsys):
        code, payload = invoke_json(
            capsys, "kms-psi", "--beta", "2", "--entry", "no-separator",
        )
        assert code == 1
        assert "entry" in payload["error"]

    def test_ratio_witness(self, capsys):
        code, payload = invoke_json(
            capsys, "ratio-witness", "--n", "3", "--big-n", "12",
            "--beta", "1",
        )
        assert code == 0
        assert payload["ratio"] == pytest.approx(0.5, abs=1e-14)
        assert payload["expected"] == 0.5

    def test_ratio_witness_threshold(self, capsys):
        code, payload = invoke_json(
            capsys, "ratio-witness", "--n", "3", "--big-n", "9",
            "--beta", "1",
        )
        assert code == 1
        assert "beta_plus" in payload["error"]

    @pytest.mark.parametrize(
        "argv",
        [
            ("kms-bc", "--r", "1/2", "--beta", "nan"),
            ("kms-bc", "--r", "1/2", "--beta=-inf"),
            ("ratio-witness", "--n", "3", "--big-n", "12", "--beta", "nan"),
            ("kms-psi", "--beta", "nan", "--entry", "unknot::e:1/2"),
            ("kms-psi", "--beta", "inf", "--entry", "unknot::e:1/2",
             "--translate", "3_1"),
            ("kms-toeplitz", "--knot", "3_1", "--beta", "nan"),
        ],
    )
    def test_non_finite_beta_refused(self, capsys, argv):
        code, out = invoke(capsys, *argv)
        assert code == 1
        payload = json.loads(out)  # bare NaN would still parse, so check the keys
        assert set(payload) == {"error"}
        assert "beta" in payload["error"]


class TestPresentationCommands:
    def test_wirtinger_builtin(self, capsys):
        code, payload = invoke_json(capsys, "wirtinger", "--knot", "3_1")
        assert code == 0
        assert payload["n_generators"] == 3
        assert payload["n_relators"] == 3
        assert payload["wirtinger"] is True
        assert payload["abelianization"] == {"free_rank": 1, "torsion": []}

    def test_wirtinger_braid(self, capsys):
        code, payload = invoke_json(capsys, "wirtinger", "--braid", "1 1 1")
        assert code == 0
        assert payload["n_generators"] == 3
        assert payload["wirtinger"] is True

    def test_wirtinger_source_exclusive(self, capsys):
        code, payload = invoke_json(
            capsys, "wirtinger", "--knot", "3_1", "--braid", "1 1 1",
        )
        assert code == 1
        assert "exactly one" in payload["error"]

    def test_wirtinger_save_and_reload(self, capsys, tmp_path):
        out = tmp_path / "trefoil.txt"
        code, saved = invoke_json(
            capsys, "wirtinger", "--knot", "3_1", "--out", str(out),
        )
        assert code == 0
        assert saved["saved_to"] == str(out)
        assert out.exists()
        code, loaded = invoke_json(capsys, "wirtinger", "--file", str(out))
        assert code == 0
        assert loaded["relators"] == saved["relators"]

    def test_alexander_trefoil(self, capsys):
        code, payload = invoke_json(capsys, "alexander", "--knot", "3_1")
        assert code == 0
        assert payload["coefficients"] == [1, -1, 1]
        assert payload["method"] == "fox"
        assert payload["determinant_at_minus_1"] == pytest.approx(3.0)

    def test_alexander_amalgamated(self, capsys):
        code, payload = invoke_json(
            capsys, "alexander", "--knot", "3_1", "--sum", "4_1",
        )
        assert code == 0
        assert payload["coefficients"] == [1, -4, 5, -4, 1]
        assert payload["method"] == "fox-amalgamated"

    def test_alexander_saved_sum_plus_builtin(self, capsys, tmp_path):
        """A saved 3_1 # 4_1 # 5_1 has no recorded blocks, and its sum with
        7_1 has 7315 maximal minors, past the cap: each summand is answered
        alone, so the sum is, with the product of their coefficients."""
        from knotstat import knotgroups as kg

        p = kg.builtin_presentation("3_1")
        for name in ("4_1", "5_1"):
            p = kg.amalgamate(p, kg.builtin_presentation(name))
        path = tmp_path / "sum.txt"
        kg.save_presentation(p, path)
        f, g = (invoke_json(capsys, "alexander", *argv)[1]["coefficients"]
                for argv in (["--file", str(path)], ["--knot", "7_1"]))
        product = [0] * (len(f) + len(g) - 1)
        for i, a in enumerate(f):
            for j, b in enumerate(g):
                product[i + j] += a * b
        code, payload = invoke_json(capsys, "alexander", "--file", str(path), "--sum", "7_1")
        assert code == 0, payload
        assert payload["coefficients"] == product
        assert payload["method"] == "fox-amalgamated"

    def test_alexander_seifert(self, capsys):
        code, payload = invoke_json(
            capsys, "alexander", "--seifert", "-1 1; 0 -1",
        )
        assert code == 0
        assert payload["coefficients"] == [1, -1, 1]
        assert payload["method"] == "seifert"

    @pytest.mark.parametrize("text", ["[[1]]", "[[1, 2], [3]]", "x"])
    def test_alexander_seifert_refusal_names_the_flag(self, capsys, text):
        code, payload = invoke_json(capsys, "alexander", "--seifert", text)
        assert code == 1 and set(payload) == {"error"}
        assert payload["error"] == (f"--seifert takes integer rows separated by ';', "
                                    f"as in 'a b; c d', got {text!r}")

    def test_alexander_link_rejected(self, capsys):
        code, payload = invoke_json(capsys, "alexander", "--braid", "1 1")
        assert code == 1
        assert "knot" in payload["error"]

    def test_derham_explicit_root(self, capsys):
        code, payload = invoke_json(
            capsys, "derham", "--knot", "3_1",
            "--root", "0.5+0.8660254037844386i",
        )
        assert code == 0
        assert payload["residual"] < 1e-9
        assert payload["kernel_dim"] >= 1
        assert payload["alexander"] == [1, -1, 1]

    def test_derham_root_index(self, capsys):
        code, payload = invoke_json(
            capsys, "derham", "--knot", "4_1", "--root-index", "0",
        )
        assert code == 0
        assert payload["residual"] < 1e-9
        assert payload["root"]["re"] == pytest.approx(
            (3.0 - math.sqrt(5.0)) / 2.0, rel=1e-9
        )

    @pytest.mark.parametrize("summands, dims", [
        (("3_1", "3_1"), [2, 2]),
        (("3_1", "4_1"), [1, 1, 1, 1]),
        (("3_1", "3_1", "4_1"), [1, 2, 2, 1]),
    ])
    def test_derham_connected_sum_roots(self, capsys, tmp_path, summands, dims):
        """A repeated Alexander factor lists its root once, and the Fox
        matrix there has a kernel of dimension 2 (one per summand)."""
        from knotstat import knotgroups as kg

        p = kg.builtin_presentation(summands[0])
        for name in summands[1:]:
            p = kg.amalgamate(p, kg.builtin_presentation(name))
        path = tmp_path / "sum.txt"
        path.write_text(kg.format_presentation(p))
        for index, dim in enumerate(dims):
            code, payload = invoke_json(
                capsys, "derham", "--file", str(path), "--root-index", str(index))
            assert code == 0, payload
            assert payload["residual"] < 1e-9
            assert payload["kernel_dim"] == dim
        code, payload = invoke_json(
            capsys, "derham", "--file", str(path), "--root-index", str(len(dims)))
        assert code == 1 and f"{len(dims)} roots available" in payload["error"]

    def test_derham_non_root_rejected(self, capsys):
        code, payload = invoke_json(
            capsys, "derham", "--knot", "3_1", "--root", "0.5",
        )
        assert code == 1
        assert "root" in payload["error"]

    def test_bc_normalize_conjugation(self, capsys):
        code, payload = invoke_json(
            capsys, "bc-normalize", "--word", "mu:2 e:1/3 mu*:2",
        )
        assert code == 0
        assert payload["a"] == 1 and payload["b"] == 1
        assert payload["x"] == {"1/6": "1/2", "2/3": "1/2"}

    def test_bc_normalize_cancellation(self, capsys):
        code, payload = invoke_json(
            capsys, "bc-normalize", "--word", "mu*:2 mu:2",
        )
        assert code == 0
        assert payload["x"] == {"0/1": "1"}

    def test_bc_normalize_bad_token(self, capsys):
        code, payload = invoke_json(
            capsys, "bc-normalize", "--word", "nu:2",
        )
        assert code == 1
        assert "error" in payload


DATA = Path(__file__).resolve().parent / "data"
REFERENCE = DATA / "cli_reference.json"


def test_reference_outputs_byte_identical(capsys, tmp_path, monkeypatch):
    """Every README command reproduces its recorded stdout and exit code."""
    for name in [n for n in os.environ if n.startswith("KNOTSTAT_")]:
        monkeypatch.delenv(name)
    monkeypatch.chdir(tmp_path)
    shutil.copyfile(builtin_catalog_path(), tmp_path / "my_knots.csv")
    reference = json.loads(REFERENCE.read_text())
    assert len(reference) >= 15
    for command, expected in reference.items():
        code, out = invoke(capsys, *expected["argv"])
        assert (code, out) == (expected["exit_code"], expected["stdout"]), command


def _fresh(code: str) -> subprocess.CompletedProcess:
    """Run Python code in a fresh interpreter with the package on its path."""
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    return subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True,
        timeout=120, check=True,
    )


class TestLazyImports:
    """A fresh process loads only the modules its subcommand runs."""

    def test_cli_import_is_light(self):
        out = _fresh(
            "import sys, knotstat.cli\n"
            "print(sorted(m for m in ('numpy', 'knotstat.kms', 'knotstat.knotgroups',"
            " 'knotstat.partition', 'knotstat.crossed') if m in sys.modules))"
        ).stdout
        assert out.strip() == "[]"

    def test_bc_normalize_loads_crossed_only(self):
        out = _fresh(
            "import io, sys, contextlib\n"
            "from knotstat import cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    code = cli.run(['bc-normalize', '--word', 'mu:2 e:1/3 mu*:2'])\n"
            "print(code, 'knotstat.crossed' in sys.modules,"
            " 'knotstat.partition' in sys.modules, 'numpy' in sys.modules)"
        ).stdout
        assert out.split() == ["0", "True", "False", "False"]

    @pytest.mark.parametrize("argv", [
        ["thresholds", "--q", "2"],
        ["z-alt", "--beta", "1.5", "--mode", "both"],
        ["ingest", "--output", "csv"],
        ["kms-bc", "--r", "1/2", "--beta", "2"],
        ["bc-normalize", "--word", "mu:2 e:1/3 mu*:2"],
        ["z-groth", "--beta", "2"],
        ["z-qstar", "--beta", "2", "--mode", "direct", "--n-max", "100"],
        ["z-tau", "--beta", "1.5", "--max-weight", "12", "--n-rho", "3"],
        ["figures", "--which", "f", "--n-points", "5"],
        ["kms-toeplitz", "--knot", "3_1", "--beta", "10", "--entries", "3"],
        ["kms-psi", "--beta", "2", "--entry", "unknot::e:1/2", "--entry", "3_1::mu:2"],
        ["ratio-witness", "--n", "3", "--big-n", "12", "--beta", "1"],
        ["wirtinger", "--knot", "3_1"],
        ["alexander", "--knot", "3_1", "--sum", "4_1"],
        ["derham", "--knot", "3_1", "--root-index", "0"],
    ])
    def test_cold_path_skips_dataclasses(self, argv):
        out = _fresh(
            "import io, sys, contextlib\n"
            "from knotstat import cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    code = cli.run({argv!r})\n"
            "print(code, 'dataclasses' in sys.modules, 'mpmath' in sys.modules,"
            " 'knotstat.crossed' in sys.modules)"
        ).stdout
        code, dataclasses_loaded, mpmath_loaded, crossed_loaded = out.split()
        assert (code, dataclasses_loaded, mpmath_loaded) == ("0", "False", "False")
        if argv[0] == "thresholds":
            assert crossed_loaded == "False"

    def test_derham_matches_reference_in_fresh_process(self):
        argv = ["derham", "--knot", "3_1", "--root-index", "0"]
        expected = json.loads(REFERENCE.read_text())[" ".join(argv)]
        proc = _fresh(f"from knotstat.cli import run; raise SystemExit(run({argv!r}))")
        assert proc.stdout == expected["stdout"]


# One valid argv per subcommand: each parses, and runs to exit 0.
VALID_ARGV = {
    "ingest": ["--filter", "alternating", "--output", "csv"],
    "z-alt": ["--beta", "1.5", "--mode", "both", "--max-weight", "30"],
    "z-groth": ["--beta", "12", "--source", "model"],
    "z-qstar": ["--beta", "2", "--mode", "direct", "--n-max", "100"],
    "z-tau": ["--beta", "1.5", "--max-weight", "12", "--n-rho", "3"],
    "thresholds": ["--q", "7"],
    "figures": ["--which", "f", "--beta-min", "2", "--n-points", "5"],
    "kms-toeplitz": ["--knot", "3_1", "--beta", "10", "--entries", "3"],
    "kms-bc": ["--r", "1/2", "--beta", "inf", "--u", "4:3"],
    "kms-psi": ["--beta", "2", "--entry", "unknot::e:1/2", "--entry", "3_1::mu:2"],
    "ratio-witness": ["--n", "3", "--big-n", "12", "--beta", "1"],
    "wirtinger": ["--braid", "1,1,1", "--out", "t.txt"],
    "alexander": ["--knot", "3_1", "--sum", "4_1"],
    "derham": ["--knot", "4_1", "--root-index", "1", "--branch", "-1"],
    "bc-normalize": ["--word", "mu:2 e:1/3 mu*:2"],
}


def _parse(parser, argv, capsys):
    """(Namespace or None, exit code or None, stdout, stderr) of one parse."""
    try:
        namespace, code = parser.parse_args(argv), None
    except SystemExit as exc:
        namespace, code = None, exc.code
    captured = capsys.readouterr()
    return namespace, code, captured.out, captured.err


class TestCommandTable:
    """``run`` builds only the subparser its command needs; every parse must
    come out as with ``build_parser()``: Namespace, exit code and text."""

    def test_table_covers_every_command(self):
        assert list(VALID_ARGV) == list(cli._COMMANDS)

    @pytest.mark.parametrize("name", list(VALID_ARGV))
    def test_valid_argv_runs(self, capsys, monkeypatch, tmp_path, name):
        monkeypatch.chdir(tmp_path)  # wirtinger writes its --out file
        code, out = invoke(capsys, name, *VALID_ARGV[name])
        assert code == 0
        if VALID_ARGV[name][-2:] == ["--output", "csv"]:
            header, rows = read_csv(out)
            assert rows and all(len(row) == len(header) for row in rows)
        else:
            assert isinstance(json.loads(out, parse_constant=_no_constant), dict)

    @pytest.mark.parametrize("name", list(VALID_ARGV))
    @pytest.mark.parametrize("case", [
        "valid", "bad-choice", "bad-int", "missing-required", "unknown-flag",
        "help",
    ])
    def test_one_subparser_parses_as_full(self, capsys, name, case):
        argv = [name] + {
            "valid": VALID_ARGV[name],
            "bad-choice": VALID_ARGV[name] + ["--filter", "bogus"],
            "bad-int": VALID_ARGV[name] + ["--q", "two"],
            "missing-required": [],
            "unknown-flag": VALID_ARGV[name] + ["--bogus", "1"],
            "help": ["--help"],
        }[case]
        full = _parse(cli.build_parser(), argv, capsys)
        single = _parse(cli._parser([name]), argv, capsys)
        assert single == full
        if case == "valid":
            assert full[0] is not None and full[0].command == name
        elif case != "missing-required":
            assert full[1] == (0 if case == "help" else 2)
        if case == "unknown-flag":  # reported by the top-level parser
            assert "{" + ",".join(VALID_ARGV) + "}" in full[3]

    @pytest.mark.parametrize("argv", [[], ["bogus"], ["-h"], ["--q", "2", "thresholds"]])
    def test_top_level_lists_every_command(self, capsys, argv):
        code = run(argv)
        captured = capsys.readouterr()
        text = captured.out + captured.err
        assert code == (0 if argv == ["-h"] else 2)
        assert "{" + ",".join(VALID_ARGV) + "}" in text
        if argv == ["-h"]:
            words = " ".join(text.split())
            for name, (help_text, _, _) in cli._COMMANDS.items():
                assert f"{name} {help_text}" in words

    # a command that takes each flag, with its required flags
    ENV_COMMAND = {
        "--q": ["thresholds"],
        "--n-rho": ["z-tau", "--beta", "1.5"],
        "--tolerance": ["z-qstar", "--beta", "2"],
        "--multiplicity-c": ["z-alt", "--beta", "12", "--source", "model"],
    }

    @pytest.mark.parametrize("variable, value, flag", [
        ("Q", "abc", "--q"),
        ("N_RHO", "1.5", "--n-rho"),
        ("TOLERANCE", "tiny", "--tolerance"),
        ("MULTIPLICITY_C", "big", "--multiplicity-c"),
    ])
    def test_malformed_env_override_is_usage_error(self, capsys, monkeypatch, variable, value, flag):
        monkeypatch.setenv("KNOTSTAT_" + variable, value)
        argv = self.ENV_COMMAND[flag]
        assert run(argv) == 2
        err = capsys.readouterr().err
        assert f"argument {flag}: invalid" in err and repr(value) in err
        assert "Traceback" not in err
        # the flag itself, or a full-parser help, does not read the override
        assert run([*argv, flag, "3"]) in (0, 1)
        assert run(["-h"]) == 0

    def test_env_override_in_fresh_process(self):
        env = dict(os.environ, KNOTSTAT_Q="abc",
                   PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
        proc = subprocess.run(
            [sys.executable, "-m", "knotstat.cli", "thresholds"], env=env,
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 2
        assert "argument --q: invalid int value: 'abc'" in proc.stderr
        assert "Traceback" not in proc.stderr


SHARED_DESTS = {"q", "catalog", "filter", "multiplicity_c", "n_rho", "tolerance", "output"}

# Each command's option strings in help order, -h/--help aside: the shared
# flags its handler reads, then its own.
OPTIONS = {
    "ingest": "--catalog --filter --output",
    "z-alt": "--q --catalog --filter --multiplicity-c --tolerance --beta --source --mode "
             "--max-weight",
    "z-groth": "--q --catalog --filter --multiplicity-c --tolerance --beta --source "
               "--max-weight",
    "z-qstar": "--tolerance --beta --mode --n-max",
    "z-tau": "--q --catalog --filter --n-rho --beta --max-weight",
    "thresholds": "--q",
    "figures": "--q --output --which --beta-min --beta-max --n-points --q-min --q-max "
               "--figure-c",
    "kms-toeplitz": "--q --catalog --filter --knot --beta --entries",
    "kms-bc": "--r --beta --u",
    "kms-psi": "--q --catalog --filter --n-rho --beta --entry --u --translate",
    "ratio-witness": "--q --n --big-n --beta",
    "wirtinger": "--knot --braid --file --out",
    "alexander": "--knot --braid --file --sum --seifert",
    "derham": "--knot --braid --file --root --root-index --branch",
    "bc-normalize": "--word",
}


def _actions(name):
    """The actions of one subcommand's parser, -h/--help aside."""
    parser = cli._parser([name])
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return [a for a in sub.choices[name]._actions if not isinstance(a, argparse._HelpAction)]


class _Recording(argparse.Namespace):
    """A Namespace that notes the name of each public attribute read from it."""

    def __getattribute__(self, name):
        if not name.startswith("_"):
            object.__getattribute__(self, "_read").add(name)
        return object.__getattribute__(self, name)


class TestFlagScope:
    """Each subcommand takes the shared flags its handler reads, and no other."""

    def test_settable_values(self):
        assert list(OPTIONS) == list(cli._COMMANDS)
        assert sum(len(_actions(name)) for name in OPTIONS) == 77

    @pytest.mark.parametrize("name", list(OPTIONS))
    def test_option_strings(self, name):
        assert [s for a in _actions(name) for s in a.option_strings] == OPTIONS[name].split()

    @pytest.mark.parametrize("name", list(OPTIONS))
    def test_declared_shared_flags_are_read(self, monkeypatch, tmp_path, name):
        monkeypatch.chdir(tmp_path)
        read = {"output"}  # run reads --output to render an error
        runs = [VALID_ARGV[name]]
        if name in ("z-alt", "z-groth"):  # each source, at a beta where both converge
            runs = [VALID_ARGV[name] + ["--source", source, "--beta", "12"]
                    for source in ("catalog", "model")]
        for argv in runs:
            args = _Recording(**vars(cli._parser([name]).parse_args([name, *argv])))
            args._read = set()
            cli._COMMANDS[name][1](args)
            read |= args._read
        declared = {a.dest for a in _actions(name)} & SHARED_DESTS
        assert declared <= read

    @pytest.mark.parametrize("name", list(OPTIONS))
    def test_unread_shared_flag_is_usage_error(self, capsys, name):
        values = {"--q": "3", "--catalog": "k.csv", "--filter": "all",
                  "--multiplicity-c": "400", "--n-rho": "2", "--tolerance": "1e-9",
                  "--output": "json"}
        for flag, value in values.items():
            if flag not in OPTIONS[name].split():
                assert run([name, *VALID_ARGV[name], flag, value]) == 2
                captured = capsys.readouterr()
                assert captured.out == ""
                assert f"error: unrecognized arguments: {flag} {value}\n" in captured.err

    @pytest.mark.parametrize("argv", [
        ["kms-bc", "--r", "1/2", "--beta", "2", "--q", "3"],
        ["kms-bc", "--r", "1/0", "--beta", "2", "--output", "csv"],
        ["derham", "--knot", "3_1", "--tolerance", "nan"],
        ["thresholds", "--catalog", "/nonexistent", "--n-rho", "-5",
         "--multiplicity-c", "1e9", "--output", "csv"],
        ["bc-normalize", "--word", "mu:2 e:1/3 mu*:2", "--q", "1"],
    ], ids=lambda argv: argv[0])
    def test_defect_inputs_are_usage_errors(self, capsys, argv):
        assert run(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "error: unrecognized arguments: --" in captured.err

    @pytest.mark.parametrize("command", [
        "bc-normalize --word mu:2 e:1/3 mu*:2",
        "derham --knot 3_1 --root-index 0",
    ])
    def test_unread_env_overrides_leave_output(self, capsys, monkeypatch, command):
        for variable, value in (("Q", "1"), ("TOLERANCE", "nan"), ("N_RHO", "abc")):
            monkeypatch.setenv("KNOTSTAT_" + variable, value)
        expected = json.loads(REFERENCE.read_text())[command]
        assert invoke(capsys, *expected["argv"]) == (0, expected["stdout"])


def _prime_word(count):
    """e:1/p over the first ``count`` primes above 10^5: the level grows by
    17 bits a token."""
    primes = [p for p in compress(range(200_000), _prime_flags(199_999)) if p > 10**5]
    return [("e", QmodZ.of(1, p)) for p in primes[:count]]


def _alpha_images(t, u):
    """alpha_t(e(1/97)) alpha_u(e(1/89)): t u term pairs at a level far above
    them, which the pair loop multiplies."""
    return (alpha_n(GroupRingElement.e(QmodZ.of(1, 97)), t)
            * alpha_n(GroupRingElement.e(QmodZ.of(1, 89)), u))


def _scaled_square(c):
    """(c e_40000)^2, a dense product: for c odd and prime to 5 the slot
    width holds c^2 40000, 4 bytes up to c = 231 and 8 from c = 233."""
    x = GroupRingElement([(0, c)]) * idempotent_e(40_000)
    return x * x


def _unblocked_sum(*names):
    """The connected sum of builtin knots without its recorded Wirtinger
    blocks, as a saved file reads back."""
    p = kg.builtin_presentation(names[0])
    for name in names[1:]:
        p = kg.amalgamate(p, kg.builtin_presentation(name))
    return kg.Presentation(p.generators, p.relators, p.basepoint)


class TestUnreadableFlagText:
    """A flag text that its parser cannot read is refused by the flag's name,
    as ``--seifert`` is (``TestPresentationCommands``)."""

    @pytest.mark.parametrize("argv, error", [
        (["alexander", "--braid", "1,x"],
         "--braid takes integers separated by spaces or ',', got '1,x'"),
        (["kms-bc", "--r", "1/x", "--beta", "2"], "--r takes a rational label a/b, got '1/x'"),
        (["kms-bc", "--r", "1/2", "--beta", "2", "--u", "2:1.5"],
         "--u takes integer modulus:residue pairs separated by ',', got '2:1.5'"),
        (["kms-psi", "--beta", "2", "--entry", "unknot::mu:x"],
         "--entry takes GROUP::MONOMIAL, the monomial e:A/B, mu:N or mu:N:A in integers, "
         "got 'unknot::mu:x'"),
        (["kms-psi", "--beta", "2", "--entry", "unknot::mu:2:1.5"],
         "--entry takes GROUP::MONOMIAL, the monomial e:A/B, mu:N or mu:N:A in integers, "
         "got 'unknot::mu:2:1.5'"),
        (["kms-psi", "--beta", "2", "--entry", "unknot::e:1/x"],
         "--entry takes GROUP::MONOMIAL, the monomial e:A/B, mu:N or mu:N:A in integers, "
         "got 'unknot::e:1/x'"),
        (["derham", "--knot", "3_1", "--root", "abc"],
         "--root takes a complex number, as in '0.5+0.8660254i', got 'abc'"),
    ], ids=["braid", "r", "u", "entry-n", "entry-a", "entry-e", "root"])
    def test_refused_by_the_flag(self, capsys, argv, error):
        """Each printed Python's own parse text, which names no flag."""
        code, payload = invoke_json(capsys, *argv)
        assert (code, payload) == (1, {"error": error})


def _trefoils_psi(n):
    """kms-psi on e(1/2) at the sum of n trefoils with q = 10^100, whose weight
    q^(40 n) has 13320 n bits."""
    return ["kms-psi", "--beta", "2", "--q", str(10**100),
            "--entry", "#".join(["3_1"] * n) + "::e:1/2"]


class TestCostCaps:
    """Input-sized loops are refused before they start, or once the work they
    charge passes their cap, naming their bound."""

    @pytest.mark.parametrize("argv, bound", [
        (["z-tau", "--beta", "1.5", "--max-weight", "10000000"], "weight-grid updates"),
        (["z-groth", "--beta", "2", "--max-weight", "10000000"], "weight-grid updates"),
        (["figures", "--which", "H", "--n-points", "1000000"], "100000 grid points"),
        (["figures", "--which", "f", "--n-points", "1000000"], "100000 grid points"),
        (["kms-toeplitz", "--knot", "3_1", "--beta", "10", "--entries", "100000000"],
         "more than the work cap of 100000 values"),
        (["kms-toeplitz", "--knot", "3_1", "--beta", "10", "--entries", "-3"], "0..100000"),
        (["z-alt", "--beta", "2", "--max-weight", "100000000", "--mode", "direct"],
         "weight-grid updates"),
        (["z-alt", "--beta", "2", "--max-weight", "10000000", "--mode", "both"],
         "weight-grid updates"),
    ])
    def test_refused_in_time(self, capsys, argv, bound):
        start = time.perf_counter()
        code, payload = invoke_json(capsys, *argv)
        assert time.perf_counter() - start < 0.5
        assert code == 1
        assert bound in payload["error"]

    def test_largest_accepted_grid(self, capsys):
        code, payload = invoke_json(capsys, "kms-toeplitz", "--knot", "3_1",
                                    "--beta", "10", "--entries", "100000")
        assert code == 0 and len(payload["entries"]) == 100_000
        code, out = invoke(capsys, "z-tau", "--beta", "1.5", "--max-weight", "50000")
        assert code == 0

    # One row per cost cap: its largest accepted input and its first refused
    # input (the first past the cap among inputs of that shape), each a CLI
    # argv or a library call.  A check up front refuses within 0.5 s, a
    # charged one within 2 s.  The two big-int loops share one budget.
    CAP_TABLE = [
        ("_MAX_VALUES", True, ["figures", "--which", "f", "--n-points", "100000"],
         ["figures", "--which", "f", "--n-points", "100001"]),
        ("_MAX_PREIMAGES", True, lambda: idempotent_e(40_000), lambda: idempotent_e(40_001)),
        ("_MAX_PRODUCT_WORK-pairs", True, lambda: _alpha_images(2000, 1500),
         lambda: _alpha_images(2000, 1501)),
        ("_MAX_PRODUCT_WORK-slots", True, lambda: _scaled_square(231), lambda: _scaled_square(233)),
        ("_MAX_BIG_INT_WORK-bc", False, lambda: bc_normalize(_prime_word(1554)),
         lambda: bc_normalize(_prime_word(1555))),
        ("_MAX_BIG_INT_WORK-det", False, ["alexander", "--braid", " ".join(["1"] * 85)],
         ["alexander", "--braid", " ".join(["1"] * 87)]),
        ("_MAX_MINORS", True, lambda: kg.alexander_poly_fox(_unblocked_sum("7_1", "7_1", "7_1")),
         ["alexander", "--file", str(DATA / "7_1_relators_x3.txt")]),
        ("_MAX_GROTH_UPDATES", True, ["z-groth", "--beta", "2", "--max-weight", "57142"],
         ["z-groth", "--beta", "2", "--max-weight", "57143"]),
        ("_MAX_ENUMERATED", True,
         lambda: enumerate_group_elements(load_catalog(builtin_catalog_path()), 36),
         lambda: enumerate_group_elements(load_catalog(builtin_catalog_path()), 37)),
        ("_MAX_HURWITZ_DENOMINATOR", True, ["kms-bc", "--r", "1/10000", "--beta", "2"],
         ["kms-bc", "--r", "1/10001", "--beta", "2"]),
        ("_MAX_TRIAL_DIVISOR", True, ["kms-bc", "--r", "1/999999999989", "--beta", "0.5"],
         ["kms-bc", "--r", f"1/{1_000_003**2}", "--beta", "0.5"]),
        ("_MAX_SIEVE", True, ["z-qstar", "--beta", "2", "--mode", "direct", "--n-max",
                              str(_MAX_SIEVE)],
         ["z-qstar", "--beta", "2", "--mode", "direct", "--n-max", str(_MAX_SIEVE + 1)]),
        ("_LERCH_MAX_TERMS", False, lambda: lerch(0.999972, 0.0, 1.0),
         lambda: lerch(0.999973, 0.0, 1.0)),
        ("_MAX_WEIGHT_BITS", True, _trefoils_psi(450), _trefoils_psi(451)),
    ]

    @staticmethod
    def _refusal(capsys, call):
        """The refusal's text, or None for an answer, of an argv or a call."""
        if callable(call):
            try:
                call()
            except DomainError as exc:
                return str(exc)
            return None
        code, payload = invoke_json(capsys, *call)
        assert code in (0, 1)
        return payload["error"] if code else None

    @pytest.mark.parametrize("cap, up_front, accepted, refused", CAP_TABLE,
                             ids=[row[0] for row in CAP_TABLE])
    def test_cap_table(self, capsys, cap, up_front, accepted, refused):
        start = time.perf_counter()
        assert self._refusal(capsys, accepted) is None
        assert time.perf_counter() - start < 2.0
        start = time.perf_counter()
        error = self._refusal(capsys, refused)
        assert time.perf_counter() - start < (0.5 if up_front else 2.0)
        form = re.fullmatch(r".+ would take (\d+) (.+), more than the work cap of (\d+) \2", error)
        assert form and int(form[1]) > int(form[3])


def _no_constant(name):
    raise ValueError(f"bare {name} in stdout")


class TestSingleEmitPath:
    """``run`` alone writes stdout, through one renderer, for results and
    errors alike; a NaN anywhere in a payload is refused, not printed."""

    @pytest.mark.parametrize("argv, code, needle", [
        (["ratio-witness", "--n", "3", "--big-n", "12", "--beta", "1",
          "--q", str(10**400)], 1, "q must lie within the float range"),
        (["ratio-witness", "--n", "3", "--big-n", str(10**400), "--beta", "1"],
         1, "big_n must lie within the float range"),
        (["figures", "--which", "H", "--figure-c", "0", "--n-points", "3"],
         1, "finite C > 0"),
        (["figures", "--which", "H", "--figure-c", "nan", "--n-points", "3"],
         1, "--figure-c must be finite"),
        (["bc-normalize", "--word", "mu:1000000 e:1/3 mu*:1000000"],
         1, "preimage terms"),
        (["z-qstar", "--beta", "1e308"], 0, None),
        (["z-qstar", "--beta", "1e308", "--mode", "direct", "--n-max", "10"], 0, None),
        (["derham", "--knot", "3_1", "--root", "1e400"], 1, "root r must be finite"),
        (["derham", "--knot", "3_1", "--root", "nan"], 1, "root r must be finite"),
        (["bc-normalize", "--word", " ".join(["mu:40000 e:1/3 mu*:40000"] * 200)], 1,
         "bc word would take 700414717564 bit products, "
         "more than the work cap of 700000000000 bit products"),
        (["alexander", "--braid", " ".join(["1"] * 201)], 1,
         "exact determinants would take 700105598389 bit products, "
         "more than the work cap of 700000000000 bit products"),
        (["alexander", "--file", str(DATA / "7_1_relators_x3.txt")],
         1, "54264 maximal minors, more than the work cap of 2000 maximal minors"),
        (["derham", "--knot", "3_1", "--root", "1e300"], 1,
         "r=(1e+300+0j) is not a root of the Alexander polynomial (|Delta(r)| = inf)"),
        (["derham", "--knot", "3_1", "--root", "1e200+1e200j"], 1,
         "r=(1e+200+1e+200j) is not a root of the Alexander polynomial (|Delta(r)| = inf)"),
        (["wirtinger", "--braid", "1000000000"], 1,
         "braid closure is a link with several components, not a knot"),
    ])
    def test_defect_inputs(self, capsys, argv, code, needle):
        start = time.perf_counter()
        got = run(argv)
        captured = capsys.readouterr()
        assert time.perf_counter() - start < 2.0
        assert "Traceback" not in captured.err
        payload = json.loads(captured.out, parse_constant=_no_constant)
        assert got == code
        if code == 1:
            assert set(payload) == {"error"} and needle in payload["error"]
        else:
            assert payload["value"] == 1.0 and payload["converged"] is True
            assert payload["details"] in ({}, {"closed": 1.0})

    def test_long_relators_refused_in_time(self, capsys, tmp_path):
        """7_1 with [a^6000, b] appended to each relator: Fox rows are
        linear in relator length, so the determinant cap answers in time.
        Each 6x6 minor alone passes the cap; their sum does not."""
        from knotstat.errors import _MAX_BIG_INT_WORK, _WorkMeter
        from knotstat.knotgroups import (
            _bareiss_det, builtin_presentation, format_presentation, fox_matrix,
            load_presentation,
        )

        head, *relators = format_presentation(builtin_presentation("7_1")).splitlines()
        commutator = " ".join(["a"] * 6000 + ["b"] + ["A"] * 6000 + ["B"])
        path = tmp_path / "7_1_long.txt"
        path.write_text("\n".join([head, *(f"{r} {commutator}" for r in relators)]) + "\n")
        start = time.perf_counter()
        code, payload = invoke_json(capsys, "alexander", "--file", str(path))
        assert time.perf_counter() - start < 2.0
        assert code == 1
        assert set(payload) == {"error"} and payload["error"].endswith(
            f"more than the work cap of {_MAX_BIG_INT_WORK} bit products")
        p = load_presentation(path)
        matrix, rows = fox_matrix(p), range(len(p.relators))
        cols = [j for j in range(p.n_generators) if j != p.basepoint]
        for dropped in rows:
            meter = _WorkMeter("a minor", "bit products", _MAX_BIG_INT_WORK)
            _bareiss_det([[matrix[i][j] for j in cols] for i in rows if i != dropped], meter)
            assert 0 < meter.spent <= _MAX_BIG_INT_WORK

    def test_nan_payload_is_an_error(self, capsys, monkeypatch):
        monkeypatch.setitem(cli._COMMANDS, "thresholds",
                            (None, lambda args: {"value": math.nan}, ()))
        code, out = invoke(capsys, "thresholds")
        assert code == 1
        payload = json.loads(out, parse_constant=_no_constant)
        assert set(payload) == {"error"}

    # One refused argv per subcommand: (argv, stdout with --output json,
    # stdout with --output csv), all exit 1, recorded before the handlers
    # returned their payloads and pinned byte for byte.  A command without
    # --output has None in the CSV column: it prints the JSON error with no
    # --output, and --output itself is a usage error.
    PINNED_ERRORS = [
        (["ingest", "--catalog", "no_such_catalog.csv"],
         '{"error": "catalog file not found: no_such_catalog.csv"}\n',
         'error\ncatalog file not found: no_such_catalog.csv\n'),
        (["z-alt", "--beta", "1.5", "--source", "model"],
         '{"error": "partition series diverges: beta=1.5 is below beta_minus(2) '
         '= 1.939085 (regime: divergent)"}\n', None),
        (["z-groth", "--beta", "nan"],
         '{"error": "z_grothendieck requires a finite beta, got nan"}\n', None),
        (["z-qstar", "--beta", "1"],
         '{"error": "qstar partition function diverges for beta <= 1, got 1.0"}\n', None),
        (["z-tau", "--beta", "1.0"],
         '{"error": "Z_tau is trace-class only for beta > 1, got beta = 1.0"}\n', None),
        (["thresholds", "--q", "1"],
         '{"error": "q must be >= 2, got 1"}\n', None),
        (["figures", "--which", "H", "--n-points", "1"],
         '{"error": "need n_points >= 2, got 1"}\n',
         'error\n"need n_points >= 2, got 1"\n'),
        (["kms-toeplitz", "--knot", "unknot", "--beta", "10"],
         '{"error": "the unknot has weight 0 and no normalizable state"}\n', None),
        (["kms-bc", "--r", "1/0", "--beta", "2"],
         '{"error": "zero denominator in \'1/0\'"}\n', None),
        (["kms-psi", "--beta", "2", "--entry", "bogus"],
         '{"error": "bad entry \'bogus\'; expected GROUP::MONOMIAL"}\n', None),
        (["ratio-witness", "--n", "0", "--big-n", "12", "--beta", "1"],
         '{"error": "n must be >= 1, got 0"}\n', None),
        (["wirtinger", "--knot", "3_1", "--braid", "1,1,1"],
         '{"error": "exactly one of --knot, --braid, --file must be given"}\n', None),
        (["alexander", "--seifert", "1 2; 3"],
         '{"error": "Seifert matrix must be square"}\n', None),
        (["derham", "--knot", "3_1", "--root", "2"],
         '{"error": "r=(2+0j) is not a root of the Alexander polynomial '
         '(|Delta(r)| = 3.000e+00)"}\n', None),
        (["bc-normalize", "--word", 'mu:2 "e":1/3'],
         '{"error": "unknown token kind \'\\"e\\"\'"}\n', None),
    ]

    def test_pinned_errors_cover_every_command(self):
        assert [argv[0] for argv, _, _ in self.PINNED_ERRORS] == list(cli._COMMANDS)

    @pytest.mark.parametrize("output", ["json", "csv"])
    @pytest.mark.parametrize("case", PINNED_ERRORS, ids=lambda case: case[0][0])
    def test_pinned_error_bytes(self, capsys, monkeypatch, tmp_path, case, output):
        monkeypatch.chdir(tmp_path)
        argv, json_out, csv_out = case
        if csv_out is not None:
            code, out = invoke(capsys, *argv, "--output", output)
            assert (code, out) == (1, json_out if output == "json" else csv_out)
        elif output == "json":
            assert invoke(capsys, *argv) == (1, json_out)
        else:
            assert run([*argv, "--output", "csv"]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.endswith("error: unrecognized arguments: --output csv\n")
