"""Command-line interface: catalog ingestion, partition functions,
thresholds, figure data, equilibrium states, and presentation tools.

Each handler returns its result and ``run`` alone writes stdout: a dict
as one deterministic, strict JSON object (keys sorted, complex numbers as
{"re": .., "im": ..}, +-inf as strings, a NaN refused), a (header, rows)
pair, from ``figures`` and ``ingest`` in CSV mode, as CSV with a header
row.  A subcommand takes only the flags it reads; the seven shared ones
(``--q``, ``--catalog``, ``--filter``, ``--multiplicity-c``, ``--n-rho``,
``--tolerance``, ``--output``) have ``KNOTSTAT_<FLAG>`` environment
overrides (``KNOTSTAT_Q``, ``KNOTSTAT_N_RHO``, ...).  Exit codes: 0 on
success, 1 on domain or divergence errors (reported with a
machine-readable ``error`` field), 2 on usage errors, an unread flag too.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
from typing import TYPE_CHECKING, Optional, Sequence

from . import catalog as _catalog
from .errors import KnotstatError

# Each handler imports the modules it runs, so a fresh process loads only
# the code its subcommand needs (numpy only for ``derham``).
if TYPE_CHECKING:
    from . import kms as _kms
    from . import knotgroups as _kg
    from . import partition as _pt
    from . import semigroup as _sg

ENV_PREFIX = "KNOTSTAT_"

# Longest grid or eigenvalue list a command prints: 10^5 values take about
# a second to compute and format, and larger requests are refused up front.
_MAX_VALUES = 100_000


def _check_common(args: argparse.Namespace) -> None:
    if "q" in args and args.q < 2:
        raise KnotstatError(f"q must be >= 2, got {args.q}")
    if "tolerance" in args and not 0 < args.tolerance < math.inf:  # NaN fails both
        raise KnotstatError(
            f"tolerance must be positive and finite, got {args.tolerance}"
        )


def _load_catalog(args) -> _catalog.Catalog:
    return _catalog.load_catalog(
        args.catalog or _catalog.builtin_catalog_path(), args.filter
    )


# ---------------------------------------------------------------------------
# output helpers
# ---------------------------------------------------------------------------


def _jsonable(value):
    if isinstance(value, complex):
        return {"re": value.real, "im": value.imag}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, float) and math.isinf(value):
        return "inf" if value > 0 else "-inf"
    return value


def _render(result) -> str:
    """A handler's result as stdout text: a dict as one strict JSON object
    (a NaN anywhere is a ValueError), a (header, rows) pair as CSV."""
    if isinstance(result, dict):
        return json.dumps(_jsonable(result), sort_keys=True, allow_nan=False) + "\n"
    header, rows = result
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _series_payload(result: _pt.SeriesResult, **extra) -> dict:
    return {
        "value": result.value,
        "terms_used": result.terms_used,
        "tail_bound": result.tail_bound,
        "converged": result.converged,
        "status": result.status,
        "details": result.details,
        **extra,
    }


# ---------------------------------------------------------------------------
# subcommand implementations
# ---------------------------------------------------------------------------


def _cmd_ingest(args) -> dict | tuple:
    cat = _load_catalog(args)
    if args.output == "csv":
        rows = [
            [
                rec.name,
                rec.crossing_number,
                rec.genus,
                int(rec.alternating),
                int(rec.torus),
                rec.weight,
                " ".join(str(c) for c in rec.alexander_coeffs),
            ]
            for rec in cat
        ]
        return (
            ["name", "crossings", "genus", "alternating", "torus", "weight",
             "alexander"],
            rows,
        )
    return {
        "rows": len(cat),
        "filter": args.filter,
        "alternating": sum(1 for r in cat if r.alternating),
        "torus": sum(1 for r in cat if r.torus),
        "weights": [list(pair) for pair in _catalog.weights_with_counts(cat)],
    }


def _source(args):
    if args.source == "model":
        return _catalog.MultiplicityModel(C=args.multiplicity_c)
    return _load_catalog(args)


def _cmd_z_alt(args) -> dict:
    from . import partition as _pt

    result = _pt.z_alternating(
        args.beta, args.q, _source(args), tol=args.tolerance,
        mode=args.mode, max_weight=args.max_weight,
    )
    return _series_payload(
        result, beta=args.beta, q=args.q, source=args.source, mode=args.mode,
    )


def _cmd_z_groth(args) -> dict:
    from . import partition as _pt

    result = _pt.z_grothendieck(
        args.beta, args.q, _source(args), tol=args.tolerance,
        max_weight=args.max_weight,
    )
    return _series_payload(
        result, beta=args.beta, q=args.q, source=args.source,
    )


def _cmd_z_qstar(args) -> dict:
    from . import partition as _pt

    result = _pt.qstar_partition(
        args.beta, n_max=args.n_max, mode=args.mode, tol=args.tolerance
    )
    return _series_payload(
        result, beta=args.beta, mode=args.mode, n_max=args.n_max,
    )


def _cmd_z_tau(args) -> dict:
    from . import partition as _pt
    from . import semigroup as _sg
    from .specfun import _huge_weight_cut

    # f(g) = q^(scale * v) depends on g only through its weight v, so the
    # product runs over the G(v) group elements of each weight at once.
    cat = _load_catalog(args)
    scale = _sg.WeightFunction(q=args.q).exponent_scale
    counts = _pt.groth_weight_counts(cat.weights.values(), args.max_weight)
    # Every class with f above the huge-weight cut is a factor 1.0 that
    # z_tau only counts, so those classes go in as one entry, keyed by the
    # first such f.  z_tau refuses beta <= 1 whatever the weights are.
    _pt._require_finite_beta("z_tau", args.beta)
    cut = _huge_weight_cut(max(args.beta, 1.0))
    f_counts = {}
    for v, g_v in enumerate(counts):
        if g_v:
            f = args.q ** (scale * v)
            if f > cut:
                f_counts[f] = sum(counts[v:])
                break
            f_counts[f] = g_v
    result = _pt.z_tau(args.beta, f_counts, n_rho=args.n_rho, tol=args.tolerance)
    return _series_payload(
        result, beta=args.beta, q=args.q, n_rho=args.n_rho,
        max_weight=args.max_weight, group_elements=sum(counts),
    )


def _cmd_thresholds(args) -> dict:
    from . import partition as _pt

    report = _pt.threshold_report(args.q)
    return {
        "q": report.q,
        "beta_plus": report.beta_plus,
        "beta_minus": report.beta_minus,
        "beta_tilde_minus": report.beta_tilde_minus,
        "rhs_constant": _pt.beta_minus_rhs_constant(),
        "F": _pt.bound_gap_F(args.q),
        "crossover_x": _pt.crossover_x(),
    }


def _require_finite(*flags: tuple[str, Optional[float]]) -> None:
    """Refuse a flag whose value is NaN or +-inf (None means unset)."""
    for flag, value in flags:
        if value is not None and not math.isfinite(value):
            raise KnotstatError(f"{flag} must be finite, got {value}")


def _cmd_figures(args) -> dict | tuple:
    from . import partition as _pt

    if args.n_points > _MAX_VALUES:
        raise KnotstatError(
            f"--n-points {args.n_points} exceeds the cap of {_MAX_VALUES} grid points"
        )
    if args.which == "f":
        beta_min = None if args.beta_min == "auto" else float(args.beta_min)
        _require_finite(("--beta-min", beta_min), ("--beta-max", args.beta_max))
        rows = _pt.figure_f_grid(
            args.q, beta_min=beta_min, beta_max=args.beta_max,
            n_points=args.n_points,
        )
        if not math.isfinite(rows[-1][1]):  # f increases with beta
            raise KnotstatError(
                f"--beta-max {args.beta_max} is too large: f(beta, q) "
                "overflows a float there"
            )
        header = ["beta", "f"]
    else:
        _require_finite(("--q-min", args.q_min), ("--q-max", args.q_max),
                        ("--figure-c", args.figure_c))
        if args.n_points < 2:
            raise KnotstatError(f"need n_points >= 2, got {args.n_points}")
        step = (args.q_max - args.q_min) / (args.n_points - 1)
        grid = [args.q_min + i * step for i in range(args.n_points)]
        rows = _pt.figure_H_grid(grid, C=args.figure_c)
        header = ["q", "H"]
    if args.output == "json":
        return {"columns": header, "rows": [list(r) for r in rows]}
    return header, [[f"{a!r}", f"{b!r}"] for a, b in rows]


def _cmd_kms_toeplitz(args) -> dict:
    from . import kms as _kms
    from . import semigroup as _sg

    n = args.entries
    if not 0 <= n <= _MAX_VALUES:
        raise KnotstatError(f"--entries must lie in 0..{_MAX_VALUES}, got {n}")
    cat = _load_catalog(args)
    knot = _sg.parse_knot(args.knot)
    ev = _kms.toeplitz_eigenlist(knot, args.beta, args.q, cat)
    return {
        "knot": args.knot,
        "beta": args.beta,
        "q": args.q,
        "lambda1": ev.lambda1,
        "generator_ratio": ev.generator_ratio,
        "entries": [ev.entries(k) for k in range(n)],
        "partial_sum": ev.partial_sum(n),
        "tail": ev.tail(n),
    }


def _parse_unit(text: Optional[str]) -> _kms.AdelicUnit:
    from . import kms as _kms

    if not text:
        return _kms.AdelicUnit.one()
    mapping = {}
    for part in text.split(","):
        modulus, _, residue = part.partition(":")
        if not residue:
            raise KnotstatError(
                f"bad unit component {part!r}; expected modulus:residue"
            )
        mapping[int(modulus)] = int(residue)
    return _kms.AdelicUnit.of(mapping)


def _cmd_kms_bc(args) -> dict:
    from . import kms as _kms
    from .crossed import QmodZ

    r, beta = QmodZ.parse(args.r), args.beta
    u = _parse_unit(args.u)
    if beta <= 1.0:
        value: complex = complex(_kms.bc_high_temperature(r, beta))
        regime = "high"
    else:
        value = _kms.bc_low_temperature(r, beta, u)
        regime = "ground" if beta == math.inf else "low"
    return {"r": args.r, "beta": beta, "regime": regime, "value": value}


def _parse_monomial(text: str) -> _kms.Monomial:
    from . import kms as _kms
    from .crossed import QmodZ

    parts = text.split(":")
    if parts[0] == "e" and len(parts) >= 2:
        return _kms.Monomial.e(QmodZ.parse(":".join(parts[1:])))
    if parts[0] == "mu" and len(parts) in (2, 3):
        n = int(parts[1])
        a = int(parts[2]) if len(parts) == 3 else 1
        return _kms.Monomial.mu(n, a)
    raise KnotstatError(
        f"bad monomial {text!r}; expected e:A/B, mu:N, or mu:N:A"
    )


def _parse_entry(text: str) -> tuple[_sg.GroupElement, _kms.Monomial]:
    from . import semigroup as _sg

    group_part, sep, mono_part = text.partition("::")
    if not sep:
        raise KnotstatError(
            f"bad entry {text!r}; expected GROUP::MONOMIAL"
        )
    return (
        _sg.parse_group_element(group_part.strip()),
        _parse_monomial(mono_part.strip()),
    )


def _cmd_kms_psi(args) -> dict:
    from . import kms as _kms
    from . import semigroup as _sg

    cat = _load_catalog(args)
    w = _sg.WeightFunction(q=args.q)
    u = _parse_unit(args.u)
    entries = tuple(_parse_entry(e) for e in args.entry or ())
    f = _kms.SupportedFunction(entries)
    if args.translate:
        h = _sg.parse_group_element(args.translate)
        lhs, rhs, diff = _kms.psi_pushforward(
            h, f, args.beta, u, w, cat, n_rho=args.n_rho
        )
        return {
            "beta": args.beta,
            "n_rho": args.n_rho,
            "translate": args.translate,
            "lhs": lhs,
            "rhs": rhs,
            "difference": diff,
        }
    value = _kms.psi_product_state(f, args.beta, u, w, cat, n_rho=args.n_rho)
    return {
        "beta": args.beta,
        "n_rho": args.n_rho,
        "entries": len(entries),
        "value": value,
    }


def _cmd_ratio_witness(args) -> dict:
    from . import kms as _kms

    ratio = _kms.ratio_witness(args.n, args.big_n, args.beta, args.q)
    return {
        "n": args.n,
        "big_n": args.big_n,
        "beta": args.beta,
        "q": args.q,
        "ratio": ratio,
        "expected": float(args.q) ** (-args.beta),
    }


def _presentation_from_args(args) -> _kg.Presentation:
    from . import knotgroups as _kg

    sources = [bool(args.knot), bool(args.braid), bool(args.file)]
    if sum(sources) != 1:
        raise KnotstatError(
            "exactly one of --knot, --braid, --file must be given"
        )
    if args.knot:
        return _kg.builtin_presentation(args.knot)
    if args.braid:
        word = [int(tok) for tok in args.braid.replace(",", " ").split()]
        return _kg.braid_to_wirtinger(word)
    return _kg.load_presentation(args.file)


def _cmd_wirtinger(args) -> dict:
    from . import knotgroups as _kg

    p = _presentation_from_args(args)
    if args.out:
        _kg.save_presentation(p, args.out)
    ab = _kg.abelianization(p)
    return {
        "generators": list(p.generators),
        "relators": [list(w) for w in p.relators],
        "n_generators": p.n_generators,
        "n_relators": len(p.relators),
        "basepoint": p.basepoint,
        "wirtinger": p.is_wirtinger(),
        "abelianization": {
            "free_rank": ab.free_rank,
            "torsion": list(ab.torsion),
        },
        "text": _kg.format_presentation(p),
        "saved_to": args.out,
    }


def _cmd_alexander(args) -> dict:
    from . import knotgroups as _kg

    if args.seifert:
        rows = [
            [int(x) for x in row.split()]
            for row in args.seifert.split(";")
            if row.strip()
        ]
        poly = _kg.alexander_from_seifert(rows)
        return {
            "method": "seifert",
            "coefficients": poly.as_list(),
            "string": str(poly),
        }
    p = _presentation_from_args(args)
    method = "fox"
    if args.sum:
        p = _kg.amalgamate(p, _kg.builtin_presentation(args.sum))
        method = "fox-amalgamated"
    poly = _kg.alexander_poly_fox(p)
    return {
        "method": method,
        "coefficients": poly.as_list(),
        "string": str(poly),
        "determinant_at_minus_1": abs(poly.evaluate(-1.0)),
    }


def _parse_complex(text: str) -> complex:
    return complex(text.replace(" ", "").replace("i", "j"))


def _cmd_derham(args) -> dict:
    from . import knotgroups as _kg

    p = _presentation_from_args(args)
    poly = _kg.alexander_poly_fox(p)
    if args.root is not None:
        root = _parse_complex(args.root)
    else:
        roots = _kg.alexander_roots(poly)
        if not roots:
            raise KnotstatError("the Alexander polynomial has no roots")
        if not 0 <= args.root_index < len(roots):
            raise KnotstatError(
                f"root index {args.root_index} out of range; "
                f"{len(roots)} roots available"
            )
        root = roots[args.root_index]
    rep = _kg.derham_solve(p, root, branch=args.branch, alexander=poly)
    return {
        "root": rep.root,
        "sqrt_root": rep.sqrt_root,
        "branch": args.branch,
        "x_values": list(rep.x_values),
        "residual": rep.residual,
        "kernel_dim": rep.kernel_dim,
        "alexander": poly.as_list(),
    }


def _cmd_bc_normalize(args) -> dict:
    from .crossed import bc_normalize, parse_bc_word

    word = parse_bc_word(args.word.split())
    nf = bc_normalize(word)
    # the renderer sorts the keys
    terms = {str(label): str(coeff) for label, coeff in nf.x.terms.items()}
    return {"a": nf.a, "b": nf.b, "x": terms, "string": str(nf)}


# ---------------------------------------------------------------------------
# command table and parser assembly
# ---------------------------------------------------------------------------

# The shared flags, each in the table row of every command that reads it.
# Each default is the string in the KNOTSTAT_<FLAG> environment variable
# when set; argparse converts a string default with ``type`` at parse time,
# so a malformed override is a usage error naming its flag.
_Q = ("--q", dict(type=int, default="2", help="weight base q >= 2 (default 2)"))
_CATALOG = ("--catalog", dict(help="knot catalog CSV path (default: bundled table)"))
_FILTER = ("--filter", dict(default="all", choices=["all", "alternating", "torus-free"],
                            help="catalog row filter"))
_MULTIPLICITY_C = ("--multiplicity-c", dict(type=float, default=repr(_catalog.DEFAULT_C),
                                            help="growth constant C of the multiplicity model"))
_N_RHO = ("--n-rho", dict(type=int, default="1",
                          help="order of the restricting root of unity (default 1)"))
_TOLERANCE = ("--tolerance", dict(type=float, default="1e-12",
                                  help="series tolerance (default 1e-12)"))
_OUTPUT = ("--output", dict(default="json", choices=["json", "csv"],
                            help="output format (default json)"))
_SHARED = (_Q, _CATALOG, _FILTER, _MULTIPLICITY_C, _N_RHO, _TOLERANCE, _OUTPUT)

_BETA = ("--beta", dict(type=float, required=True))
_SOURCE = ("--source", dict(choices=["catalog", "model"], default="catalog"))
_MAX_WEIGHT = ("--max-weight", dict(type=int, default=40))
_PRESENTATION = (("--knot", dict(help="builtin knot name")),
                 ("--braid", dict(help="braid word, e.g. '1,1,1' or '1 -2 1 -2'")),
                 ("--file", dict(help="presentation text file")))

# name -> (help, handler, the subcommand's flags as (flag, keywords))
_COMMANDS = {
    "ingest": ("load and summarize a knot catalog CSV", _cmd_ingest, (_CATALOG, _FILTER, _OUTPUT)),
    "z-alt": ("partition function over alternating composites", _cmd_z_alt, (
        _Q, _CATALOG, _FILTER, _MULTIPLICITY_C, _TOLERANCE, _BETA, _SOURCE,
        ("--mode", dict(choices=["product", "direct", "both"], default="product")),
        _MAX_WEIGHT,
    )),
    "z-groth": ("partition function of the Grothendieck group", _cmd_z_groth, (
        _Q, _CATALOG, _FILTER, _MULTIPLICITY_C, _TOLERANCE, _BETA, _SOURCE, _MAX_WEIGHT,
    )),
    "z-qstar": ("multiplicative-integers partition function", _cmd_z_qstar, (
        _TOLERANCE, _BETA,
        ("--mode", dict(choices=["closed", "direct", "both"], default="closed")),
        ("--n-max", dict(type=int, default=1_000_000)),
    )),
    "z-tau": ("weighted product partition function over group elements", _cmd_z_tau, (
        _Q, _CATALOG, _FILTER, _N_RHO, _TOLERANCE, _BETA,
        ("--max-weight", dict(type=int, default=12)),
    )),
    "thresholds": ("convergence thresholds and derived constants", _cmd_thresholds, (_Q,)),
    "figures": ("emit figure data grids", _cmd_figures, (
        _Q, _OUTPUT,
        ("--which", dict(choices=["f", "H"], required=True)),
        ("--beta-min", dict(default="auto", help="'auto' or a float (f-figure)")),
        ("--beta-max", dict(type=float, default=20.0)),
        ("--n-points", dict(type=int, default=200)),
        ("--q-min", dict(type=float, default=2.0)),
        ("--q-max", dict(type=float, default=100.0)),
        ("--figure-c", dict(type=float, default=400.0,
                            help="growth constant used by the H-figure")),
    )),
    "kms-toeplitz": ("eigenvalue list of a prime-knot Gibbs state", _cmd_kms_toeplitz, (
        _Q, _CATALOG, _FILTER, ("--knot", dict(required=True)), _BETA,
        ("--entries", dict(type=int, default=5)),
    )),
    "kms-bc": ("arithmetic state value on e(r)", _cmd_kms_bc, (
        ("--r", dict(required=True, help="rational label a/b")),
        ("--beta", dict(type=float, required=True,
                        help="inverse temperature; 'inf' for the ground state")),
        ("--u", dict(help="adelic unit as modulus:residue[,modulus:residue...]")),
    )),
    "kms-psi": ("weighted product state on a supported function", _cmd_kms_psi, (
        _Q, _CATALOG, _FILTER, _N_RHO, _BETA,
        ("--entry", dict(action="append",
                         help="support entry GROUP::MONOMIAL, repeatable "
                              "(e.g. '3_1 -- unknot::e:1/2' or 'unknot::mu:2')")),
        ("--u", dict()),
        ("--translate", dict(help="group element h: report both sides of the "
                                  "transformation law")),
    )),
    "ratio-witness": ("eigenvalue-ratio witness for q^(-beta)", _cmd_ratio_witness, (
        _Q,
        ("--n", dict(type=int, required=True)),
        ("--big-n", dict(type=int, required=True)),
        _BETA,
    )),
    "wirtinger": ("Wirtinger presentation of a knot or braid closure", _cmd_wirtinger,
                  (*_PRESENTATION, ("--out", dict(help="write the presentation here")))),
    "alexander": ("Alexander polynomial via Fox calculus or Seifert", _cmd_alexander, (
        *_PRESENTATION,
        ("--sum", dict(help="amalgamate with this builtin knot first")),
        ("--seifert", dict(help="Seifert matrix rows 'a b; c d'")),
    )),
    "derham": ("triangular representation at an Alexander root", _cmd_derham, (
        *_PRESENTATION,
        ("--root", dict(help="complex root, e.g. '0.5+0.8660254i'")),
        ("--root-index", dict(type=int, default=0,
                              help="pick the k-th Alexander root (deterministic order)")),
        ("--branch", dict(type=int, choices=[1, -1], default=1)),
    )),
    "bc-normalize": ("normal form of a word over mu_n, mu_n*, e(r)", _cmd_bc_normalize, (
        ("--word", dict(required=True,
                        help="whitespace-separated tokens, e.g. 'mu:2 e:1/3 mu*:2'")),
    )),
}


def _parser(names: Sequence[str]) -> argparse.ArgumentParser:
    """The parser with a subparser for each command in ``names``.

    Built for a subset, a metavar keeps every command in the usage line, so
    an error the top-level parser reports (an unrecognized argument) reads
    as with the full build.  The full build sets none: its missing-command
    error names ``command``.
    """
    parser = argparse.ArgumentParser(
        prog="knotstat",
        description=(
            "Statistical mechanics over the knot semigroup: partition "
            "functions, convergence thresholds, equilibrium states, and "
            "knot-group tools."
        ),
    )
    every = len(names) == len(_COMMANDS)
    sub = parser.add_subparsers(
        dest="command", required=True,
        metavar=None if every else "{" + ",".join(_COMMANDS) + "}",
    )
    for name in names:
        help_text, _, flags = _COMMANDS[name]
        p = sub.add_parser(name, help=help_text)
        for spec in flags:
            flag, kwargs = spec
            if spec in _SHARED:
                env = ENV_PREFIX + flag[2:].upper().replace("-", "_")
                kwargs = {**kwargs, "default": os.environ.get(env, kwargs.get("default"))}
            p.add_argument(flag, **kwargs)
    return parser


def build_parser() -> argparse.ArgumentParser:
    """The parser of every subcommand (``run`` builds only the one it needs)."""
    return _parser(tuple(_COMMANDS))


def run(argv: Optional[Sequence[str]] = None) -> int:
    """Parse arguments, dispatch, and return the process exit code.

    A known command as the first argument gets only its own subparser; any
    other first argument, or none, gets the full parser, whose usage and
    error text list every command.
    """
    argv = sys.argv[1:] if argv is None else list(argv)
    names = argv[:1] if argv and argv[0] in _COMMANDS else tuple(_COMMANDS)
    try:
        args = _parser(names).parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        _check_common(args)
        code, text = 0, _render(_COMMANDS[args.command][1](args))
    except (KnotstatError, ValueError, OSError) as exc:
        msg = str(exc)
        csv_mode = getattr(args, "output", "json") == "csv"  # only where --output exists
        error = (["error"], [[msg]]) if csv_mode else {"error": msg}
        code, text = 1, _render(error)
    try:
        sys.stdout.write(text)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed the pipe.  Point stdout at os.devnull, so that
        # the flush at shutdown does not fail again (Python docs, "Note on
        # SIGPIPE"), and exit 1 as Python does on EPIPE.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1
    return code


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
