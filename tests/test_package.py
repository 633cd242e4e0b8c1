"""The package namespace: lazily loaded names resolve to their home modules."""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import knotstat


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from knotstat import *", namespace)
    assert set(knotstat.__all__) <= set(namespace)


@pytest.mark.parametrize("name", sorted(set(knotstat.__all__) - {"__version__"}))
def test_name_is_the_home_module_object(name):
    home = importlib.import_module(f"knotstat.{knotstat._HOME[name]}")
    assert getattr(knotstat, name) is getattr(home, name)


def test_dir_lists_public_names_and_submodules():
    listing = dir(knotstat)
    assert set(knotstat.__all__) <= set(listing)
    assert {"crossed", "specfun", "knotgroups"} <= set(listing)


def test_submodules_reachable_as_attributes():
    assert knotstat.crossed is importlib.import_module("knotstat.crossed")
    assert knotstat.specfun.riemann_zeta(2.0) == pytest.approx(1.6449340668482264)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        knotstat.no_such_name
    assert not hasattr(knotstat, "no_such_name")


# -- cold imports load only what they run ---------------------------------------
#
# Each case imports in a fresh interpreter, so earlier tests' imports do not
# count; the modules listed must stay out of ``sys.modules``.

@pytest.mark.parametrize("statement, absent", [
    ("import knotstat.catalog, knotstat.knotgroups, knotstat.semigroup",
     ("knotstat.partition", "knotstat.specfun", "fractions")),
    ("import knotstat.kms", ("knotstat.partition",)),
    ("import knotstat.partition", ("fractions",)),
])
def test_cold_import_leaves_modules_unloaded(statement, absent):
    src = str(Path(knotstat.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = f"import sys; {statement}; print(*sorted(set({absent!r}) & set(sys.modules)))"
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == []


# -- every public name is reached ---------------------------------------------
#
# The entry points are the CLI, the benchmark, the demos and the acceptance
# criteria.  A public name must be reached from them through the package's
# own code; anything else is dead code.

REPO = Path(__file__).resolve().parent.parent
ENTRY_POINTS = ("src/knotstat/cli.py", "bench/*.py", "demos/*.py", "tests/test_acceptance.py")


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


MODULES = {path.stem: _parse(path) for path in (REPO / "src" / "knotstat").glob("*.py")}


def _top_level(tree: ast.Module) -> dict:
    """Name -> defining node for each top-level def, class and assignment."""
    out = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            out[node.name] = node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        out[name.id] = node
    return out


DEFS = {module: _top_level(tree) for module, tree in MODULES.items()}


def _imports(tree: ast.Module) -> dict:
    """Local name -> a knotstat module name (str) or a (module, name) pair,
    for every knotstat import anywhere in ``tree``, function bodies included."""
    out = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "knotstat":
                    # ``import knotstat.x`` binds knotstat, ``... as y`` binds x
                    home = alias.name.partition(".")[2] if alias.asname else ""
                    out[alias.asname or "knotstat"] = home or "__init__"
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                home = node.module or "__init__"
            elif node.module and node.module.split(".")[0] == "knotstat":
                home = node.module.partition(".")[2] or "__init__"
            else:
                continue
            for alias in node.names:
                local = alias.asname or alias.name
                if home != "__init__":
                    out[local] = (home, alias.name)
                elif alias.name in MODULES:
                    out[local] = alias.name
                else:
                    out[local] = (knotstat._HOME[alias.name], alias.name)
    return out


IMPORTS = {module: _imports(tree) for module, tree in MODULES.items()}


def _resolve(module: str, name: str) -> tuple:
    """The (module, name) that defines ``name`` as seen from ``module``."""
    if name in DEFS.get(module, {}):
        return module, name
    if module == "__init__" and name in knotstat._HOME:
        return _resolve(knotstat._HOME[name], name)
    target = IMPORTS[module].get(name) if module in MODULES else None
    return _resolve(*target) if isinstance(target, tuple) else (module, name)


def _named(node: ast.AST, imports: dict, module: str = None):
    """The (module, name) that the expression ``node`` names -- an imported
    name, an attribute of an imported knotstat module, or a top-level name
    of its own module -- or None."""
    if isinstance(node, ast.Name):
        target = imports.get(node.id)
        if isinstance(target, tuple):
            return _resolve(*target)
        if target is None and node.id in DEFS.get(module, {}):
            return _resolve(module, node.id)
    elif isinstance(node, ast.Attribute):
        base = node.value
        if isinstance(base, ast.Attribute) and isinstance(base.value, ast.Name):
            if imports.get(base.value.id) == "__init__" and base.attr in MODULES:
                return _resolve(base.attr, node.attr)  # knotstat.<module>.<name>
        elif isinstance(base, ast.Name) and isinstance(imports.get(base.id), str):
            return _resolve(imports[base.id], node.attr)
    return None


def _references(node: ast.AST, imports: dict, module: str = None) -> set:
    """(module, name) pairs that ``node`` reads."""
    return {ref for sub in ast.walk(node) if (ref := _named(sub, imports, module))}


def _reached() -> set:
    todo = set()
    for pattern in ENTRY_POINTS:
        for path in sorted(REPO.glob(pattern)):
            tree = _parse(path)
            module = path.stem if path.parent.name == "knotstat" else None
            todo |= _references(tree, _imports(tree), module)
    reached = set()
    while todo:
        module, name = key = todo.pop()
        reached.add(key)
        node = DEFS.get(module, {}).get(name)
        if node is not None:
            todo |= _references(node, IMPORTS[module], module) - reached
    return reached


def test_every_public_name_is_reached():
    public = {(m, name) for m, names in knotstat._EXPORTS.items() for name in names}
    for module in MODULES.keys() - {"__init__"}:
        names = getattr(importlib.import_module(f"knotstat.{module}"), "__all__", ())
        public |= {(module, name) for name in names}
    reached = _reached()
    unreached = sorted(
        f"{module}.{name}" for module, name in public
        if _resolve(module, name) not in reached
    )
    assert unreached == [], "no entry point or criterion reaches these public names"


# -- every public method is read ------------------------------------------------
#
# A public method, property or classmethod of a public class must be read as
# ``.name`` by an entry point, or by package code an entry point reaches;
# the methods so read add their own bodies.  A read through a name of a
# public class (``Monomial.mu``, ``kms.Monomial.e``) counts for that class
# alone; a read from anything else is matched by name: reading ``x.matrix``
# counts for every class's ``matrix``.

PUBLIC_CLASSES = {
    (module, cls.name): cls
    for module, tree in MODULES.items()
    for cls in tree.body
    if isinstance(cls, ast.ClassDef) and not cls.name.startswith("_")
}

PUBLIC_METHODS = {
    (*key, fn.name): fn
    for key, cls in PUBLIC_CLASSES.items()
    for fn in cls.body
    if isinstance(fn, ast.FunctionDef) and not fn.name.startswith("_")
}


def _own_parts(node: ast.AST) -> list:
    """A class without its public methods, which count once read; any
    other node whole."""
    if not isinstance(node, ast.ClassDef):
        return [node]
    public = {id(fn) for fn in PUBLIC_METHODS.values()}
    return [*node.bases, *node.decorator_list, *(n for n in node.body if id(n) not in public)]


def _read_methods() -> set:
    todo = []  # (node, imports, module) still to scan
    for pattern in ENTRY_POINTS:
        for path in sorted(REPO.glob(pattern)):
            tree = _parse(path)
            todo.append((tree, _imports(tree), path.stem if path.parent.name == "knotstat" else None))
    reached, attributes, class_reads, read = set(), set(), set(), set()
    while todo:
        node, imports, module = todo.pop()
        for part in _own_parts(node):
            for sub in ast.walk(part):
                if isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load):
                    owner = _named(sub.value, imports, module)
                    if owner in PUBLIC_CLASSES:
                        class_reads.add((*owner, sub.attr))
                    else:
                        attributes.add(sub.attr)
            for key in _references(part, imports, module) - reached:
                reached.add(key)
                found = DEFS.get(key[0], {}).get(key[1])
                if found is not None:
                    todo.append((found, IMPORTS[key[0]], key[0]))
        for key, fn in PUBLIC_METHODS.items():
            if (key[2] in attributes or key in class_reads) and key not in read:
                read.add(key)
                todo.append((fn, IMPORTS[key[0]], key[0]))
    return read


def test_every_public_method_is_read():
    unread = sorted(".".join(key) for key in PUBLIC_METHODS.keys() - _read_methods())
    assert unread == [], "no entry point or the code it reaches reads these methods"


# -- defaulted-parameter census -------------------------------------------------
#
# Every parameter with a default of a public function, a public method or a
# public class's ``__init__``, outside ``cli`` (whose flags TestFlagScope in
# tests/test_cli.py pins).  A new option shows up here as a diff; the three
# commented entries are kept although no entry point sets them.

DEFAULTED_PARAMETERS = {
    "catalog.MultiplicityModel.__init__(C)",
    "catalog.load_catalog(filter)",
    "catalog.builtin_catalog(filter)",
    "crossed.QmodZ.of(denominator)",
    "crossed.GroupRingElement.__init__(terms)",
    "kms.AdelicUnit.__init__(residues)",
    "kms.bc_low_temperature(u)",
    "kms.Monomial.__init__(r)",
    "kms.Monomial.__init__(n)",
    "kms.Monomial.__init__(a)",
    "kms.Monomial.mu(a)",
    "kms.psi_product_state(n_rho)",
    "kms.psi_product_state(precompose)",  # psi_pushforward sets it
    "kms.psi_pushforward(n_rho)",
    "knotgroups.LaurentPoly.__init__(coefficients)",
    "knotgroups.LaurentPoly.__init__(lowest)",
    "knotgroups.Presentation.__init__(basepoint)",  # the wirtinger command prints it
    "knotgroups.Presentation.__init__(blocks)",
    "knotgroups.derham_solve(branch)",
    "partition.SeriesResult.__init__(status)",
    "partition.SeriesResult.__init__(details)",
    "partition.figure_f_grid(beta_min)",
    "partition.figure_f_grid(beta_max)",
    "partition.figure_f_grid(n_points)",
    "partition.figure_H_value(C)",
    "partition.figure_H_grid(C)",
    "partition.z_alternating(tol)",
    "partition.z_alternating(mode)",
    "partition.z_alternating(max_weight)",
    "partition.z_grothendieck(tol)",
    "partition.z_grothendieck(max_weight)",
    "partition.qstar_partition(n_max)",
    "partition.qstar_partition(mode)",
    "partition.qstar_partition(tol)",
    "partition.z_knots_times_n(tol)",
    "partition.z_tau(n_rho)",
    "partition.z_tau(tol)",
    "semigroup.Knot.__init__(factors)",
    "semigroup.GroupElement.of(negative)",
    "semigroup.WeightFunction.__init__(q)",
    # scale 1 reaches finite-temperature product-state factors that the
    # default scale 10 never reaches away from the identity
    "semigroup.WeightFunction.__init__(exponent_scale)",
}


def _defaulted(fn: ast.FunctionDef) -> list:
    args = fn.args
    positional = args.posonlyargs + args.args
    names = [a.arg for a in positional[len(positional) - len(args.defaults):]]
    return names + [a.arg for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]


def test_defaulted_parameter_census():
    found = []
    for module, tree in MODULES.items():
        if module == "cli":
            continue
        for node in tree.body:
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
                found += [f"{module}.{node.name}({name})" for name in _defaulted(node)]
            elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
                for fn in node.body:
                    if isinstance(fn, ast.FunctionDef) and (
                        fn.name == "__init__" or not fn.name.startswith("_")
                    ):
                        qualname = f"{module}.{node.name}.{fn.name}"
                        found += [f"{qualname}({name})" for name in _defaulted(fn)]
    assert len(found) == len(set(found)) == len(DEFAULTED_PARAMETERS) == 41
    assert set(found) == DEFAULTED_PARAMETERS
