"""What the package imports.

One production route per quantity: no production module imports `oracles`.
`import schubpat` loads no oracle, and `cli` imports it only inside the
handlers that print one, so a `verify` run never loads it.  The CLI starts
without `concurrent.futures`: verify forks its own workers, and only a run
with `--jobs` above 1 loads `multiprocessing`.
"""
import ast
import os
import pathlib
import subprocess
import sys
import textwrap

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


def test_every_exported_name_resolves_on_the_package():
    # A class or function deleted from the package must leave `__all__` with it.
    assert [name for name in schubpat.__all__ if not hasattr(schubpat, name)] == []
    assert len(set(schubpat.__all__)) == len(schubpat.__all__)


# Routes over whole dominated diagrams; production works column by column.
WHOLE_DIAGRAM_ROUTES = {
    "dominates", "enumerate_dominated", "restrict_remove", "removed_boxes", "is_augmentation"
}
# What only the oracles compute on permutations, words, columns and
# polynomials, and the errors only they raise: functions, methods and classes alike.
ORACLE_ONLY = {
    "inverse", "swap_positions", "descents", "ascents", "letter_set", "flatten",
    "substitute_variables", "evaluate_all_ones", "column_dominates", "row_monomial",
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


def test_only_polyx_knows_the_key_width():
    # Keys are built through polyx's functions; no other module shifts by W.
    package = pathlib.Path(schubpat.__file__).parent
    offenders = sorted(
        path.stem for path in package.glob("*.py") if "schubpat.polyx.W" in _imports(path)
    )
    assert offenders == []


def test_no_module_defines_a_permutation_or_word_class():
    # A permutation is its one-line tuple and a word its letter tuple,
    # input and oracles included.
    package = pathlib.Path(schubpat.__file__).parent
    for path in package.glob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        classes = {node.name for node in ast.walk(tree) if isinstance(node, ast.ClassDef)}
        assert not classes & {"Permutation", "Word"}, path.stem


def _fresh(code: str) -> str:
    """The stdout of `code`, dedented, run by a new interpreter that imports this package."""
    src = pathlib.Path(schubpat.__file__).parent.parent
    return subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code)],
        capture_output=True, text=True, check=True, timeout=60,
        env=dict(os.environ, PYTHONPATH=str(src)),
    ).stdout


def test_cli_imports_no_concurrent_futures():
    code = "import sys, schubpat.cli; print(sorted(m for m in sys.modules if m.startswith('concurrent')))"
    assert _fresh(code) == "[]\n"


def test_verify_loads_no_oracle_and_multiprocessing_only_above_one_job(tmp_path):
    code = f"""
        import sys
        from schubpat import cli, verify
        def run(jobs):
            out = {str(tmp_path)!r} + "/jobs" + jobs
            code = cli.main(["verify", "identity", "--max-n", "4", "--jobs", jobs, "--out", out])
            print(code, "schubpat.oracles" in sys.modules, "multiprocessing" in sys.modules)
        run("1")
        verify.RunConfig(jobs=2)  # its fork check loads it, before any run starts
        print("multiprocessing" in sys.modules)
        run("2")
    """
    assert _fresh(code) == "0 False False\nTrue\n0 False True\n"
    one, two = (tmp_path / "jobs1").read_bytes(), (tmp_path / "jobs2").read_bytes()
    assert one == two and len(one.splitlines()) == 32


def test_oracle_commands_load_the_oracles_when_they_run():
    code = """
        import sys
        from schubpat import cli
        for argv in (["schubert", "2143", "--method", "diagram"], ["schubert", "2143"],
                     ["alternating-sum", "21", "21"]):
            code = cli.main(argv)
            print(code, "schubpat.oracles" in sys.modules, flush=True)
    """
    assert _fresh(code) == (
        "x1^2 + x1*x2 + x1*x3\n0 False\n"
        "x1^2 + x1*x2 + x1*x3\n0 True\n"
        "x1\n0 True\n"
    )


def test_clear_caches_after_a_bare_import():
    code = """
        import sys, schubpat
        print(sorted(m for m in sys.modules if m.startswith("schubpat")))
        schubpat.clear_caches()
        print("schubpat.oracles" in sys.modules)
    """
    assert _fresh(code) == "['schubpat', 'schubpat.diagrams', 'schubpat.polyx']\nTrue\n"
