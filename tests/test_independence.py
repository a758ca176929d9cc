"""The library needs numpy and the standard library only, and the oracles in
tests/oracles share no code with the functions they check."""

import ast
import sys
from pathlib import Path

import pytest

import cvmw

LIBRARY = sorted(Path(cvmw.__file__).parent.glob("*.py"))
ORACLES = Path(__file__).parent / "oracles"

# oracle module -> function -> the library functions it checks
CHECKS = {
    "routes.py": {
        "lossy_tmst_constructive": {"cvmw.channel.lossy_tmst",
                                    "cvmw.channel.lossy_tmst_params",
                                    "cvmw.channel.source_terms",
                                    "cvmw.channel.tmst_polys"},
        "bifreq_received_constructive": {"cvmw.bifreq.bifreq_received",
                                         "cvmw.bifreq.received_params",
                                         "cvmw.bifreq.received_family",
                                         "cvmw.bifreq._probe_terms"},
        "qi_received_constructive": {"cvmw.illumination.qi_received",
                                     "cvmw.illumination.received_params",
                                     "cvmw.illumination.received_family"},
        "illumination_classical_constructive": {
            "cvmw.illumination.classical_received_family"},
        "bifreq_classical_constructive": {"cvmw.bifreq.classical_received_family"},
        "eta_eff_iterated": {"cvmw.illumination.eta_eff", "cvmw.channel.eta_eff"},
        "success_probability_series": {"cvmw.distill.PsTmsv.success_probability",
                                       "cvmw.distill.hyp2f1_k"},
        "two_mode_symplectic_eigenvalues": {"cvmw.core.symplectic_eigenvalues"},
        "classical_limit_full_bracket": {
            "cvmw.teleport.TeleportResource.classical_limit_distance"},
    },
    "monras.py": {
        "gaussian_qfi": {"cvmw.estimation.gaussian_qfi"},
        "_sld_matrices": {"cvmw.estimation.gaussian_qfi"},
        "matrix_family": {"cvmw.estimation.gaussian_qfi"},
        "optimal_observable_numeric": {"cvmw.bifreq.optimal_coeffs"},
    },
    "finite_difference.py": {
        "jet": {"cvmw.illumination.received_family",
                "cvmw.illumination.classical_received_family",
                "cvmw.bifreq.received_family",
                "cvmw.bifreq.classical_received_family"},
    },
}


def imported_names(tree):
    """{bound name: qualified name} of every import in a module's AST."""
    out = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                out[alias.asname or alias.name.split(".")[0]] = (
                    alias.name if alias.asname else alias.name.split(".")[0])
        elif isinstance(node, ast.ImportFrom):
            base = "." * node.level + (node.module or "")
            for alias in node.names:
                out[alias.asname or alias.name] = base + "." + alias.name
    return out


@pytest.mark.parametrize("path", LIBRARY, ids=lambda p: p.name)
def test_library_imports_only_numpy_and_the_standard_library(path):
    text = path.read_text()
    assert "scipy" not in text
    tops = {name.lstrip(".").split(".")[0]
            for name in imported_names(ast.parse(text)).values()
            if not name.startswith(".")}
    assert "tests" not in tops
    assert tops - {"numpy"} <= set(sys.stdlib_module_names), tops


@pytest.mark.parametrize("module,function",
                         [(m, f) for m, fs in CHECKS.items() for f in fs])
def test_oracle_uses_nothing_it_checks(module, function):
    tree = ast.parse((ORACLES / module).read_text())
    names = imported_names(tree)
    body = next(node for node in tree.body
                if isinstance(node, ast.FunctionDef) and node.name == function)
    used = set()
    for node in ast.walk(body):
        if isinstance(node, ast.Name) and node.id in names:
            used.add(names[node.id])
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)  # a method reached through an argument
            if isinstance(node.value, ast.Name) and node.value.id in names:
                used.add(names[node.value.id] + "." + node.attr)
    checked = CHECKS[module][function]
    short = {name.rsplit(".", 1)[1] for name in checked}
    assert not used & (checked | short), used & (checked | short)


def test_monras_oracle_imports_nothing_from_estimation():
    names = imported_names(ast.parse((ORACLES / "monras.py").read_text()))
    assert not [name for name in names.values() if name.startswith("cvmw.estimation")]
