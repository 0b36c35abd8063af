"""The package's public names, and the imports of every module."""

import ast
import pathlib
import re

import pytest

import trotterion
import trotterion.apps

SRC = pathlib.Path(trotterion.__file__).resolve().parent
README = (pathlib.Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")

# The README's API; every other name lives in its own module.
TOP_LEVEL = [
    "TrotterionError", "InvalidInputError", "DomainError", "SolverError",
    "DegenerateScanError", "BudgetExceededError", "AccuracyWarning",
    "commutator", "eigh", "expm", "logm_near_identity", "spectral_norm",
    "GeneratorPair", "ProductFormula", "concat", "repeat", "word_sums",
    "to_json", "from_json",
    "s2", "s3", "SixGateParams", "reparam", "f_r", "f_r_signed",
    "SCHEMES", "apply_scheme", "pure_commutator_library",
    "solve_sqrt4", "solve_p_of_r",
    "error_scan", "extract_bch", "gates_to_accuracy",
]


@pytest.mark.parametrize("module", [trotterion, trotterion.apps],
                         ids=["trotterion", "trotterion.apps"])
def test_every_exported_name_resolves(module):
    assert [name for name in module.__all__ if not hasattr(module, name)] == []


def test_top_level_names_are_the_pinned_list():
    assert trotterion.__all__ == TOP_LEVEL


def test_every_top_level_name_is_in_the_readme():
    assert [name for name in TOP_LEVEL if not re.search(rf"\b{name}\b", README)] == []


def test_apps_exports_only_names_defined_under_apps():
    assert [name for name in trotterion.apps.__all__
            if not getattr(trotterion.apps, name).__module__.startswith("trotterion.apps.")] == []


def unused_imports(path: pathlib.Path) -> list[str]:
    """The names a module imports at its top level and never reads. A name
    listed in __all__ counts as read, and an import whose lines carry
    `# noqa: F401` is exempt."""
    text = path.read_text(encoding="utf-8")
    lines = text.splitlines()
    tree = ast.parse(text)
    imported = {}
    for node in tree.body:
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if getattr(node, "module", None) == "__future__":
            continue
        if any("# noqa: F401" in line for line in lines[node.lineno - 1:node.end_lineno]):
            continue
        for alias in node.names:
            imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__"
                                                for t in node.targets):
            read |= set(ast.literal_eval(node.value))
    return [f"{path.name}:{line} {name}" for name, line in imported.items() if name not in read]


@pytest.mark.parametrize("path", sorted(SRC.rglob("*.py")), ids=lambda p: str(p.relative_to(SRC)))
def test_module_has_no_unused_import(path):
    assert unused_imports(path) == []
