"""The package's public names, and the imports of every module."""

import ast
import dataclasses
import inspect
import math
import pathlib
import re

import numpy as np
import pytest

import trotterion
import trotterion.apps as apps
from trotterion import DomainError, InvalidInputError
from trotterion.certify import fit_loglog
from trotterion.formula import as_count, as_real, word_series

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


def test_readme_library_tour_runs(capsys):
    block = README.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(block, "README.md", "exec"), {})
    ba, slope = capsys.readouterr().out.split()
    assert ba == "-1.0"
    assert abs(float(slope) - 6.0) < 0.3


# The input contract: a count is a Python or numpy integer (`as_count`), a
# real number a Python or numpy real scalar that is finite (`as_real`), a
# matrix a square array of numbers (`matcore.as_square_matrix`). Below, each
# numeric parameter of the public entry points gets each bad value with its
# other arguments valid, and must refuse it with InvalidInputError or
# DomainError; any other exception fails the test.
RAGGED = [[0.1, 0.2], [0.3]]
BAD_VALUES = {"2.5": 2.5, "True": True, "'1'": "1", "nan": math.nan, "inf": math.inf,
              "nested": [[0.1, 0.2]], "ragged": RAGGED}
# 2.5 is a bad value only where a count is expected
NOT_FOR_REALS = {"2.5"}
# bad values an entry point takes as good input, and the result it gives
PINNED = {("fit_loglog rows", "nested"): (None, None)}  # one row (0.1, 0.2): no fit

S3 = trotterion.s3()
M = -1j * np.array([[0.0, 1.0], [1.0, 0.0]])
H = np.array([[1.0, 0.5], [0.5, -1.0]])
U = np.eye(2) + 0.1 * M
ROWS = [(0.1, 1e-3), (0.2, 4e-3), (0.3, 9e-3)]
CHAIN = {"L": 6, "t1": 1.0, "t2": 0.5, "T": 1.0}
KM = {"Lx": 3, "Ly": 4, "J": 1.0, "phi": 1.0, "T": 1.0}
CD = {"J": -1.0, "hz": 5.0, "tau": 1.0, "n_steps": 10}


def _pair():
    return trotterion.GeneratorPair(M, -1j * np.diag([1.0, -1.0]))


def _config(cls, base, name):
    return lambda v: cls(**{**base, name: v})


def _entry_points():
    t = trotterion
    rows = [
        # name, kind, call(value), a good value
        ("repeat r", "count", lambda v: t.repeat(S3, v), 3),
        ("word_series degree", "count", lambda v: word_series(S3, v), 3),
        ("solve_sqrt4 n", "count", t.solve_sqrt4, 3),
        ("ProductFormula claimed_order", "count",
         lambda v: t.ProductFormula(S3.steps, claimed_order=v), 3),
        ("concat claimed_order", "count", lambda v: t.concat([S3], claimed_order=v), 3),
        ("gates_to_accuracy cap", "count",
         lambda v: t.gates_to_accuracy(S3, _pair(), 0.1, 1e-3, cap=v), 64),
        ("ProductFormula coefficient", "real",
         lambda v: t.ProductFormula((("A", v), ("B", 1.0))), 0.5),
        ("ProductFormula steps", "sequence", t.ProductFormula, (("A", 0.5), ("B", 1.0))),
        ("evaluate x", "real", lambda v: S3.evaluate(_pair(), v), 0.5),
        ("scale_argument v", "real", S3.scale_argument, 0.5),
        ("f_r R", "real", t.f_r, 6.0),
        ("f_r_signed R", "real", t.f_r_signed, -6.0),
        ("solve_p_of_r R", "real", t.solve_p_of_r, 0.5),
        ("error_scan xs", "sequence", lambda v: t.error_scan(S3, _pair(), xs=v), [0.05, 0.1]),
        ("error_scan R", "real", lambda v: t.error_scan(t.f_r(6.0), _pair(), xs=[0.05, 0.1],
                                                        target="sum-commutator", R=v), 6.0),
        ("error_scan window", "sequence",
         lambda v: t.error_scan(S3, _pair(), xs=[0.05, 0.1], window=v), (0.05, 0.1)),
        ("gates_to_accuracy x", "real", lambda v: t.gates_to_accuracy(S3, _pair(), v, 1e-3), 0.1),
        ("gates_to_accuracy eps", "real", lambda v: t.gates_to_accuracy(S3, _pair(), 0.1, v), 1e-3),
        ("fit_loglog rows", "sequence", lambda v: fit_loglog(v, None), ROWS),
        ("fit_loglog window", "sequence", lambda v: fit_loglog(ROWS, v), (0.05, 0.25)),
        ("commutator a", "matrix", lambda v: t.commutator(v, M), M),
        ("commutator b", "matrix", lambda v: t.commutator(M, v), M),
        ("eigh", "matrix", t.eigh, H),
        ("expm", "matrix", t.expm, M),
        ("logm_near_identity", "matrix", t.logm_near_identity, U),
        ("spectral_norm", "matrix", t.spectral_norm, H),
        ("GeneratorPair a", "matrix", lambda v: t.GeneratorPair(v, M), M),
        ("GeneratorPair b", "matrix", lambda v: t.GeneratorPair(M, v), M),
        ("GeneratorPair c", "matrix", lambda v: t.GeneratorPair(M, M, v), M),
        ("chain_simulate ns", "sequence",
         lambda v: apps.chain_simulate(apps.ChainConfig(**CHAIN), ns=v), [8, 16]),
        ("km_simulate ns", "sequence",
         lambda v: apps.km_simulate(apps.KMConfig(**KM), ns=v), [8, 16]),
        ("flat_band_coupling J", "real", lambda v: apps.flat_band_coupling(v, 1.0), 1.0),
        ("flat_band_coupling phi", "real", lambda v: apps.flat_band_coupling(1.0, v), 1.0),
        ("phases_wrap_consistently Ly", "count",
         lambda v: apps.phases_wrap_consistently(v, math.pi / 2), 4),
        ("phases_wrap_consistently phi", "real",
         lambda v: apps.phases_wrap_consistently(4, v), math.pi / 2),
        ("km_gate_count n", "count", lambda v: apps.km_gate_count(apps.KMConfig(**KM), v), 8),
        ("chain_gate_count n", "count",
         lambda v: apps.chain_gate_count(apps.ChainConfig(**CHAIN), v), 8),
        ("cd_hamiltonians lam", "real",
         lambda v: apps.cd_hamiltonians(apps.CDConfig(**CD), v), 0.5),
        ("schedule t", "real", lambda v: apps.schedule(v, 1.0), 0.5),
        ("schedule tau", "real", lambda v: apps.schedule(0.5, v), 1.0),
        ("schedule_rate t", "real", lambda v: apps.schedule_rate(v, 1.0), 0.25),
        ("schedule_rate tau", "real", lambda v: apps.schedule_rate(0.25, v), 1.0),
        ("cd_beta t", "real", lambda v: apps.cd_beta(apps.CDConfig(**CD), v), 0.5),
    ]
    for cls, base in ((apps.ChainConfig, CHAIN), (apps.KMConfig, KM), (apps.CDConfig, CD)):
        for name, good in base.items():
            kind = "count" if type(good) is int else "real"
            rows.append((f"{cls.__name__} {name}", kind, _config(cls, base, name), good))
    rows.append(("cd_run config", "real", lambda v: apps.cd_run(apps.CDConfig(**{**CD, "J": v}),
                                                                exact_coefficients=True), -1.0))
    return rows


ENTRY_POINTS = _entry_points()
NUMPY_SCALAR = {"count": np.int64, "real": np.float64}


def _same(a, b) -> bool:
    """Equal, bit for bit, through arrays, sequences and dataclasses."""
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return np.array_equal(a, b, equal_nan=True)
    if dataclasses.is_dataclass(a):
        return type(a) is type(b) and all(_same(getattr(a, f.name), getattr(b, f.name))
                                           for f in dataclasses.fields(a))
    if isinstance(a, (list, tuple)):
        return type(a) is type(b) and len(a) == len(b) and all(map(_same, a, b))
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_same(a[k], b[k]) for k in a)
    return a == b or (a != a and b != b)


# Public names whose numbers no contract checks: plain records, which the
# solver fills with arrays and cd_run with the numbers it computed
CONTRACT_EXEMPT = {"SixGateParams", "reparam", "CDPoint"}


def numeric_parameters() -> list[tuple[str, str, bool]]:
    """(name, parameter, whether it is the only one) for each parameter of
    each callable in trotterion.__all__ and trotterion.apps.__all__, outside
    CONTRACT_EXEMPT and the exception classes, whose annotation names int,
    float or ndarray, or that has no annotation."""
    out = []
    for module in (trotterion, apps):
        for name in module.__all__:
            obj = getattr(module, name)
            if (name in CONTRACT_EXEMPT or not callable(obj)
                    or isinstance(obj, type) and issubclass(obj, Exception)):
                continue
            params = inspect.signature(obj).parameters.values()
            out += [(name, p.name, len(params) == 1) for p in params
                    if p.annotation is p.empty
                    or re.search(r"\b(int|float|ndarray)\b", str(p.annotation))]
    return out


def unchecked_parameters(rows) -> list[str]:
    """The numeric parameters no row covers: the row "NAME PARAM" covers that
    parameter, and the row "NAME" the only parameter of NAME."""
    names = {row[0] for row in rows}
    return [f"{name} {param}" for name, param, only in numeric_parameters()
            if f"{name} {param}" not in names and not (only and name in names)]


def test_every_public_numeric_parameter_has_a_contract_row():
    assert unchecked_parameters(ENTRY_POINTS) == []


def test_taking_out_a_contract_row_fails_the_parameter_walk():
    # each walked parameter has a row of its own: without it the walk
    # names that parameter, and nothing else
    named = []
    for i in range(len(ENTRY_POINTS)):
        missing = unchecked_parameters(ENTRY_POINTS[:i] + ENTRY_POINTS[i + 1:])
        assert len(missing) <= 1
        named += missing
    assert sorted(named) == sorted(f"{name} {param}" for name, param, _ in numeric_parameters())


@pytest.mark.parametrize("name,call,bad", [
    pytest.param(name, call, bad, id=f"{name}-{bad}") for name, kind, call, _ in ENTRY_POINTS
    for bad in BAD_VALUES if not (kind == "real" and bad in NOT_FOR_REALS)])
def test_bad_numeric_input_is_refused(name, call, bad):
    if (name, bad) in PINNED:
        assert _same(call(BAD_VALUES[bad]), PINNED[name, bad])
        return
    with pytest.raises((InvalidInputError, DomainError)):
        call(BAD_VALUES[bad])


@pytest.mark.parametrize("name,kind,call,good", [r for r in ENTRY_POINTS if r[1] in NUMPY_SCALAR],
                         ids=[r[0] for r in ENTRY_POINTS if r[1] in NUMPY_SCALAR])
def test_numpy_scalars_give_the_python_result(name, kind, call, good):
    want = call(good)
    got = call(NUMPY_SCALAR[kind](good))
    assert _same(got, want)
    if isinstance(got, (apps.ChainConfig, apps.KMConfig, apps.CDConfig)):
        # the configs hold Python numbers
        assert all(type(getattr(got, f.name)) in (int, float, str) for f in dataclasses.fields(got))


@pytest.mark.parametrize("call", [
    lambda: apps.chain_simulate(apps.ChainConfig(**CHAIN), ns=(8.9, 16.9)),
    lambda: apps.chain_simulate(apps.ChainConfig(**CHAIN), ns=(True, 2)),
    lambda: trotterion.error_scan(S3, _pair(), xs=["0.1", "0.2"]),
    lambda: fit_loglog(ROWS, ("0.1", "0.2")),
    lambda: trotterion.GeneratorPair([["0", "1"], ["1", "0"]], M),
    lambda: trotterion.GeneratorPair({"a": 1}, M),
    lambda: trotterion.GeneratorPair(np.eye(2, dtype=bool), M),
    lambda: trotterion.GeneratorPair(np.array([[1, 0], [0, 1]], dtype=object), M),
    lambda: trotterion.spectral_norm("ab"),
    lambda: trotterion.eigh([["a"]]),
    lambda: trotterion.solve_sqrt4(7.0),
    lambda: as_count(True, "count"),
    lambda: as_count(np.True_, "count"),
    lambda: S3.evaluate(_pair(), [[0.1, 0.2]]),
    lambda: S3.evaluate(_pair(), ["0.1"]),
    lambda: trotterion.from_json(2.5),
    lambda: trotterion.from_json(None),
    lambda: trotterion.apply_scheme(["g10"], S3),
    lambda: trotterion.apply_scheme("g10", S3.steps),
    lambda: trotterion.apply_scheme("g10", None),
    lambda: trotterion.to_json(S3.steps),
    lambda: trotterion.to_json(None),
    lambda: trotterion.ProductFormula((("A", 1.0),), label=5),
    lambda: trotterion.repeat(S3, 2, commutator_target="no"),
    lambda: apps.cd_run(apps.CDConfig(**CD), exact_coefficients="no"),
], ids=["ns-fractions", "ns-bool", "xs-strings", "window-strings", "string-matrix", "dict-matrix",
        "bool-matrix", "object-matrix", "spectral_norm-string", "eigh-strings", "sqrt4-float",
        "count-bool", "count-numpy-bool", "evaluate-nested", "evaluate-strings",
        "from_json-float", "from_json-none", "scheme-name-list", "scheme-formula-steps",
        "scheme-formula-none", "to_json-steps", "to_json-none", "label-int",
        "repeat-flag-string", "cd_run-flag-string"])
def test_values_inside_a_parameter_are_refused(call):
    with pytest.raises(InvalidInputError):
        call()


@pytest.mark.parametrize("call", [
    lambda: apps.km_gate_count(apps.KMConfig(**KM), 0),
    lambda: apps.chain_gate_count(apps.ChainConfig(**CHAIN), -8),
    lambda: apps.phases_wrap_consistently(0, math.pi / 2),
    lambda: apps.phases_wrap_consistently(10**400, math.pi / 2),
    lambda: apps.phases_wrap_consistently(10**300, 1e10),
    lambda: apps.cd_hamiltonians(apps.CDConfig(**CD), 1e300),
    lambda: apps.schedule(0.5, 0.0),
    lambda: apps.schedule_rate(0.5, -1.0),
    lambda: apps.schedule(1e300, 1e-300),
    lambda: apps.schedule_rate(1.5e308, 1.7e308),
], ids=["km-gates-zero-steps", "chain-gates-negative-steps", "wrap-zero-extent",
        "wrap-extent-beyond-float-range", "wrap-phase-overflows", "cd-lam-beyond-cap",
        "schedule-zero-tau", "schedule_rate-negative-tau", "schedule-phase-overflows",
        "schedule_rate-phase-overflows"])
def test_helper_values_out_of_range_are_refused(call):
    with pytest.raises(InvalidInputError):
        call()


def test_input_contract_pins():
    assert as_count(np.int64(2), "count") == 2 and type(as_count(np.int64(2), "count")) is int
    assert type(as_real(np.float32(0.5), "x")) is float
    with pytest.raises(InvalidInputError, match="argument x must be finite"):
        trotterion.gates_to_accuracy(S3, _pair(), math.nan, 1e-3)
    # an infinite window end leaves that side open
    assert fit_loglog(ROWS, (0.0, math.inf)) == fit_loglog(ROWS, None)
    with pytest.raises(InvalidInputError, match="fit window needs LO < HI"):
        fit_loglog(ROWS, (math.nan, 1.0))
    # a numpy bool is a flag
    assert trotterion.repeat(S3, 2, commutator_target=np.False_) == trotterion.repeat(S3, 2, False)
    # a refused value's message is the command line's error line
    with pytest.raises(InvalidInputError, match=r"^J must be finite and at most 1e\+15$"):
        apps.KMConfig(**{**KM, "J": 1e16})
    with pytest.raises(InvalidInputError, match="^total time must be positive and finite$"):
        apps.ChainConfig(**{**CHAIN, "T": -1.0})
    with pytest.raises(InvalidInputError,
                       match=r"^R must be finite and at most 1e\+08 in magnitude$"):
        trotterion.solve_p_of_r(math.inf)
