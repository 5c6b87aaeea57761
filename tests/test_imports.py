"""What the package imports.

One production route per quantity: no production module imports `oracles`.
The CLI starts without `concurrent.futures`: verify forks its own workers.
"""
import ast
import os
import pathlib
import subprocess
import sys

import schubpat

# cli prints oracles on request, and __init__ clears the oracle memo.
MAY_IMPORT_ORACLES = {"__init__", "cli", "oracles"}


def _imports(path: pathlib.Path) -> set[str]:
    """Dotted names a module of the package imports, its relative imports resolved."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                base = "schubpat" + (f".{base}" if base else "")
            names.add(base)
            names.update(f"{base}.{alias.name}" for alias in node.names)
    return names


def test_no_production_module_imports_oracles():
    package = pathlib.Path(schubpat.__file__).parent
    imports = {path.stem: _imports(path) for path in package.glob("*.py")}
    assert "schubpat.oracles" in imports["cli"]
    offenders = sorted(
        name for name, names in imports.items()
        if name not in MAY_IMPORT_ORACLES and "schubpat.oracles" in names
    )
    assert offenders == []


# Routes over whole dominated diagrams; production works column by column.
WHOLE_DIAGRAM_ROUTES = {
    "dominates", "enumerate_dominated", "restrict_remove", "removed_boxes", "is_augmentation"
}
# What only the oracles compute on permutations, words and polynomials, and
# the errors only they raise: functions, methods and classes alike.
ORACLE_ONLY = {
    "inverse", "swap_positions", "descents", "ascents", "letter_set", "flatten",
    "substitute_variables", "evaluate_all_ones",
    "NotASubwordError", "LetterNotInWordError", "LengthGuardError", "UnmappedVariableError",
}


def test_whole_diagram_routes_are_defined_only_in_oracles():
    package = pathlib.Path(schubpat.__file__).parent
    for path in package.glob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        defined = {
            node.name for node in ast.walk(tree) if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        }
        assert path.stem == "oracles" or not defined & (WHOLE_DIAGRAM_ROUTES | ORACLE_ONLY), path.stem


# Inside the engine a permutation is its one-line tuple; these modules parse
# outside input or are the oracles.
MAY_IMPORT_PERMUTATION = {"__init__", "cli", "oracles", "permwords"}


def test_only_the_input_layer_and_oracles_import_permutation_or_word():
    package = pathlib.Path(schubpat.__file__).parent
    forbidden = {"schubpat.permwords.Permutation", "schubpat.permwords.Word"}
    offenders = sorted(
        path.stem for path in package.glob("*.py")
        if path.stem not in MAY_IMPORT_PERMUTATION and _imports(path) & forbidden
    )
    assert offenders == []


def test_no_module_branches_on_permutation_type():
    package = pathlib.Path(schubpat.__file__).parent
    for path in package.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "isinstance":
                names = {getattr(n, "id", getattr(n, "attr", None)) for n in ast.walk(node.args[1])}
                assert "Permutation" not in names, path.stem


def test_cli_imports_no_concurrent_futures():
    code = "import sys, schubpat.cli; print(sorted(m for m in sys.modules if m.startswith('concurrent')))"
    src = pathlib.Path(schubpat.__file__).parent.parent
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, check=True,
        env=dict(os.environ, PYTHONPATH=str(src)),
    ).stdout
    assert out == "[]\n"
