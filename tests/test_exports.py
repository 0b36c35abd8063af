"""The package's public names."""

import pathlib
import re

import pytest

import trotterion
import trotterion.apps

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
