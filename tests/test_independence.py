"""The library needs numpy and the standard library only, and the oracles in
tests/oracles share no code with the functions they check."""

import ast
import importlib
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
                                    "cvmw.channel.tmst_params",
                                    "cvmw.channel.tmst_at",
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
        "nu_minus_mp": {"cvmw.entanglement.nu_minus_standard",
                        "cvmw.illumination.probe_nu_minus"},
        "probe_nu_minus_mp": {"cvmw.illumination.probe_nu_minus",
                              "cvmw.entanglement.nu_minus_standard"},
        "ps2_standard_form_mp": {"cvmw.distill.ps2_standard_form",
                                 "cvmw.distill._ps2_numerators"},
        "heuristic_factor_mp": {"cvmw.distill.heuristic_factor",
                                "cvmw.distill._ps2_kernel"},
        "ps2_fidelity_mp": {"cvmw.distill.heuristic_factor",
                            "cvmw.distill.ps2_standard_form",
                            "cvmw.distill._ps2_numerators",
                            "cvmw.distill.ps2_fidelity",
                            "cvmw.distill._ps2_kernel",
                            "cvmw.teleport.TeleportResource.fidelity"},
        "classical_limit_mp": {
            "cvmw.teleport.TeleportResource.classical_limit_distance",
            "cvmw.teleport.TeleportResource._march_step",
            "cvmw.teleport.anderson_bjorck"},
        "illinois": {"cvmw.teleport.anderson_bjorck"},
        "classical_limit_full_bracket": {
            "cvmw.teleport.TeleportResource.classical_limit_distance",
            "cvmw.teleport.TeleportResource._march_step",
            "cvmw.teleport.anderson_bjorck",
            "cvmw.channel.sym_reach", "cvmw.channel.l_max"},
        "classical_limit_array_bracket": {
            "cvmw.teleport.TeleportResource.classical_limit_distance",
            "cvmw.teleport.TeleportResource._march_step",
            "cvmw.channel.sym_reach", "cvmw.channel.l_max"},
        "l_max_quartic": {"cvmw.channel.l_max", "cvmw.channel.tmst_polys",
                          "cvmw.channel.root_distance"},
        "tmst_polys_array": {"cvmw.channel.tmst_polys", "cvmw.channel.source_terms"},
        "half_fidelity_condition_array": {"cvmw.teleport.half_fidelity_condition"},
        "half_fidelity_poly_array": {
            "cvmw.teleport.TeleportResource._half_fidelity_poly",
            "cvmw.teleport.half_fidelity_condition", "cvmw.teleport.swap_condition",
            "cvmw.channel.tmst_polys",
            "cvmw.channel.source_terms"},
        "l_max_condition_array": {"cvmw.channel.l_max", "cvmw.channel.tmst_polys",
                                  "cvmw.channel.sym_reach"},
        "blocks_bfs": {"cvmw.fock._blocks"},
        "negativity_dense": {"cvmw.fock.negativity_fock", "cvmw.fock._blocks",
                             "cvmw.fock._block_eigvalsh", "cvmw.fock._eigvalsh"},
        "tmst_density_loop": {"cvmw.fock.tmst_density"},
        "gaussian_density_moveaxis": {"cvmw.fock.gaussian_density"},
    },
    "monras.py": {
        "gaussian_qfi": {"cvmw.estimation.gaussian_qfi"},
        "gaussian_qfi_mp": {"cvmw.estimation.gaussian_qfi", "cvmw.bifreq.ratio",
                            "cvmw.bifreq.h_q_bifreq"},
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


def test_every_checked_name_resolves():
    """A name that no longer exists in the library would pass the test above
    unseen."""
    missing = []
    for name in sorted({n for fs in CHECKS.values() for ns in fs.values() for n in ns}):
        package, module, *attrs = name.split(".")
        obj = importlib.import_module(package + "." + module)
        for attr in attrs:
            obj = getattr(obj, attr, None)
        if obj is None:
            missing.append(name)
    assert not missing, missing


def test_monras_oracle_imports_nothing_from_estimation():
    names = imported_names(ast.parse((ORACLES / "monras.py").read_text()))
    assert not [name for name in names.values() if name.startswith("cvmw.estimation")]
