"""The library needs numpy and the standard library only, the oracles in
tests/oracles share no code with the functions they check, and every name
in the library is reached from the CLI, the benchmark or a paper result."""

import ast
import importlib
import sys
from pathlib import Path

import pytest

import cvmw

LIBRARY = sorted(Path(cvmw.__file__).parent.glob("*.py"))
ORACLES = Path(__file__).parent / "oracles"
BENCH = Path(__file__).parent.parent / "bench"

# Paper content that neither the CLI nor the benchmark computes: each name,
# with the test that checks it. A name no command, benchmark op or entry
# here reaches does not belong in src/cvmw (test_every_library_name_is_reached).
PAPER_RESULTS = (
    ("bifreq.high_noise_ratio",
     "tests/test_bifreq.py::TestFisherInformation::test_high_noise_limit"),
    ("bifreq.qcrb_gap",
     "tests/test_bifreq.py::TestQcrbSaturation::test_root_exists_and_brackets"),
    ("bifreq.qcrb_saturating_noise",
     "tests/test_bifreq.py::TestQcrbSaturation::test_root_exists_and_brackets"),
    ("bifreq.thermal_ratio",
     "tests/test_bifreq.py::TestThermalRatio::test_twenty_percent_detuning_error"),
    ("bifreq.jpa_synthesis",
     "tests/test_bifreq.py::TestJpaSynthesis::test_synthesized_mode_is_canonical"),
    ("channel.eta_env_inhomogeneous",
     "tests/test_channel.py::TestAttenuation::test_inhomogeneous_reduces_to_homogeneous"),
    ("channel.hemt_amplify",
     "tests/test_channel.py::TestAmplification::test_hemt_destroys_entanglement"),
    ("channel.MU_WATER_VAPOR_AVG",
     "tests/test_channel.py::TestReach::test_water_vapor_presets"),
    ("channel.MU_WATER_VAPOR_MAX",
     "tests/test_channel.py::TestReach::test_water_vapor_presets"),
    ("teleport.fidelity_ps_tmsv",
     "tests/test_teleport.py::TestPsTmsvFidelities::test_crossing_with_bare_tmsv_exists"),
)

# the Fock operators that measure covariances and moments
FOCK_MOMENTS = {"cvmw.core.apply", "cvmw.core.beam_splitter",
                "cvmw.fock.gaussian_density"}
# the density matrices whose spectrum and trace deficit the diagnostics read
FOCK_DENSITIES = {"cvmw.fock.gaussian_density", "cvmw.fock.tmst_density",
                  "cvmw.fock.thermal_density"}
PS_TMSV = {"cvmw.distill.PsTmsv.success_probability", "cvmw.distill.PsTmsv.negativity"}

# oracle module -> function -> the library functions it checks
CHECKS = {
    "routes.py": {
        "lossy_tmst_constructive": {"cvmw.channel.lossy_tmst",
                                    "cvmw.channel.tmst_params",
                                    "cvmw.channel.tmst_at",
                                    "cvmw.channel.tmst_u",
                                    "cvmw.channel.tmst_at_u",
                                    "cvmw.channel.source_terms",
                                    "cvmw.channel.tmst_polys"},
        "bifreq_received_constructive": {"cvmw.bifreq.bifreq_received",
                                         "cvmw.bifreq.received_params",
                                         "cvmw.bifreq.received_family",
                                         "cvmw.bifreq._probe_terms"},
        "qi_received_constructive": {"cvmw.illumination.received_params",
                                     "cvmw.illumination.received_family"},
        "illumination_classical_constructive": {
            "cvmw.illumination.classical_received_family"},
        "bifreq_classical_constructive": {"cvmw.bifreq.classical_received_family"},
        "eta_eff": {"cvmw.channel.tmst_params", "cvmw.channel.tmst_polys"},
        "eta_eff_iterated": {"cvmw.illumination.eta_eff"},
        "success_probability_series": {"cvmw.distill.PsTmsv.success_probability",
                                       "cvmw.distill.hyp2f1_k"},
        "two_mode_symplectic_eigenvalues": {"cvmw.core.symplectic_eigenvalues"},
        "symplectic_spectrum_mp": {"cvmw.core._closed_form", "cvmw.core.pair_excess",
                                   "cvmw.core.GaussianState.validate",
                                   "cvmw.core.symplectic_eigenvalues"},
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
        "blocks_bfs": {"cvmw.fock._sectors"},
        "negativity_dense": {"cvmw.fock.negativity_fock",
                             "cvmw.fock._deflated_eigvalsh",
                             "cvmw.fock._sectors",
                             "cvmw.fock._conserves_difference",
                             "cvmw.fock._one_block"},
        "tmst_density_loop": {"cvmw.fock.tmst_density"},
        "squeezing_exponential_mp": {"cvmw.fock._squeezing_exponentials",
                                     "cvmw.fock._squeezing_basis",
                                     "cvmw.fock.tmst_density"},
        "gaussian_density_moveaxis": {"cvmw.fock.gaussian_density"},
    },
    "monras.py": {
        "gaussian_qfi": {"cvmw.estimation.gaussian_qfi"},
        "gaussian_qfi_mp": {"cvmw.estimation.gaussian_qfi", "cvmw.bifreq.ratio",
                            "cvmw.bifreq.h_q_bifreq"},
        "gaussian_sld_mp": {"cvmw.estimation.sld_standard_form",
                            "cvmw.estimation.gaussian_qfi", "cvmw.bifreq.optimal_coeffs"},
        "_sld_matrices": {"cvmw.estimation.gaussian_qfi",
                          "cvmw.estimation.sld_standard_form"},
        "matrix_family": {"cvmw.estimation.gaussian_qfi",
                          "cvmw.estimation.sld_standard_form"},
        "optimal_observable_numeric": {"cvmw.bifreq.optimal_coeffs",
                                       "cvmw.estimation.sld_standard_form"},
    },
    "fock_ops.py": {
        "destroy": FOCK_MOMENTS,
        "quadrature_ops": FOCK_MOMENTS,
        "op_on_mode": FOCK_MOMENTS,
        "displacement_element": {"cvmw.estimation.gaussian_qfi"},
        "displacement": {"cvmw.estimation.gaussian_qfi"},
        "tmsv_ket": {"cvmw.core.tmsv", "cvmw.distill.tmsv_negativity",
                     "cvmw.entanglement.negativity"},
        "photon_subtract": {"cvmw.distill.heuristic_negativity",
                            "cvmw.distill.ps2_heuristic"},
        "bs_amplitude": PS_TMSV,
        "ps_project": PS_TMSV | {"cvmw.distill.ps2_gaussian"},
        "_expm_antihermitian": {"cvmw.core.beam_splitter", "cvmw.core.apply"},
        "beam_splitter_unitary": {"cvmw.core.beam_splitter"},
        "squeeze_unitary": {"cvmw.core.apply"},
        "check_density": FOCK_DENSITIES,
        "partial_transpose": {"cvmw.fock.negativity_fock"},
        "ket_negativity": {"cvmw.fock.negativity_fock", "cvmw.entanglement.negativity",
                           "cvmw.distill.PsTmsv.negativity"},
        "ptrace": {"cvmw.core.tmsv"},
        "uhlmann_fidelity": {"cvmw.estimation.gaussian_qfi"},
        "char_fn": {"cvmw.distill.ps2_gaussian", "cvmw.distill.ps2_heuristic"},
        "qfi_spectral": {"cvmw.estimation.gaussian_qfi", "cvmw.illumination.h_q"},
    },
    "general.py": {
        "rotation": {"cvmw.entanglement.negativity",
                     "cvmw.entanglement.BipartiteCM.standard_params"},
        "single_mode_squeezer": {"cvmw.core.apply", "cvmw.core.tmsv"},
        "two_mode_squeezer": {"cvmw.core.tmsv", "cvmw.core.tmst"},
        "partial_trace": {"cvmw.channel.lossy_tmst", "cvmw.illumination.probe_nu_minus"},
        "characteristic_function": {"cvmw.core.tmst", "cvmw.core.coherent",
                                    "cvmw.core.thermal"},
        "swap": {"cvmw.teleport.swap_link", "cvmw.teleport.swapped_finite_gain_params"},
        "char_fn_heuristic": {"cvmw.distill.ps2_gaussian"},
        "regaussify": {"cvmw.teleport.regaussify_standard"},
        "directivity": {"cvmw.channel.tau_path"},
        "friis": {"cvmw.channel.tau_path"},
        "coeffs_high_reflectivity": {"cvmw.bifreq.optimal_coeffs"},
        "coeffs_noiseless": {"cvmw.bifreq.optimal_coeffs"},
        "jpa_forward": {"cvmw.bifreq.jpa_synthesis"},
        "jpa_identification_residual": {"cvmw.bifreq.jpa_synthesis"},
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


# numpy functions whose SIMD loops round by the CPU they dispatch to, with
# geomspace and logspace, which call power; the library takes them from
# math, through core.math_map for an array, and a log grid from core.log_grid
NUMPY_TRANSCENDENTALS = {
    "exp", "expm1", "exp2", "log", "log2", "log10", "log1p", "sinh", "cosh", "tanh",
    "arcsinh", "arccosh", "arctanh", "sin", "cos", "tan", "arctan", "arctan2", "power",
    "geomspace", "logspace"}

# (module, function) -> why it keeps them; None stands for every function
NUMPY_TRANSCENDENTAL_SITES = {
    ("fock", None): "the truncated-Fock oracle checks the closed forms to a "
                    "tolerance, so its own last bits may follow the CPU",
    ("cli", "_float_cells"): "a decade guess that the exactness check corrects: "
                             "it decides no digit",
}


def numpy_transcendentals(tree):
    """{(innermost enclosing function or None, name)} of every reference to a
    numpy transcendental in a module's AST: an np. or numpy. attribute, called
    or not, or a name imported from numpy."""
    numpy_names = {bound for bound, name in imported_names(tree).items()
                   if name == "numpy"}
    imported = {bound: name.split(".")[-1] for bound, name in imported_names(tree).items()
                if name.startswith("numpy.") and name.split(".")[-1] in NUMPY_TRANSCENDENTALS}
    found = set()

    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if (isinstance(child, ast.Attribute) and child.attr in NUMPY_TRANSCENDENTALS
                    and isinstance(child.value, ast.Name) and child.value.id in numpy_names):
                found.add((function, child.attr))
            elif isinstance(child, ast.Name) and child.id in imported:
                found.add((function, imported[child.id]))
            visit(child, function)
    visit(tree, None)
    return found


def test_transcendentals_take_the_math_route():
    """No module calls a numpy transcendental outside the named sites, and
    each named site still does."""
    stray, used = [], set()
    for path in LIBRARY:
        for function, name in numpy_transcendentals(ast.parse(path.read_text())):
            site = next((site for site in ((path.stem, function), (path.stem, None))
                         if site in NUMPY_TRANSCENDENTAL_SITES), None)
            if site is None:
                stray.append("%s.%s: np.%s" % (path.stem, function, name))
            used.add(site)
    assert not stray, stray
    assert used - {None} == NUMPY_TRANSCENDENTAL_SITES.keys()


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


# -- every library name is reached -------------------------------------------
#
# A top-level name of src/cvmw (a function, a class, or a module constant) is
# reached when cli.py's module code or main refers to it, when bench/*.py
# reads it from a module it imports through lazy(...), when PAPER_RESULTS
# names it, or when a reached name's definition refers to it: by its name in
# its own module, by a `from .module import name` binding, or as an attribute
# of a `from . import module` binding. A class counts as one name, with its
# methods.

def top_level_names(tree):
    """{name: defining node} of a module's functions, classes and constants."""
    out = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            out[node.name] = node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        out[name.id] = node
    return out


class Library:
    def __init__(self):
        self.trees = {path.stem: ast.parse(path.read_text())
                      for path in LIBRARY if path.stem != "__init__"}
        self.names = {m: top_level_names(tree) for m, tree in self.trees.items()}
        self.bindings = {m: self._relative_imports(tree) for m, tree in self.trees.items()}

    @staticmethod
    def _relative_imports(tree):
        """{bound name: (module, attribute or None)} of `from . import m`
        and `from .m import x`."""
        out = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                for alias in node.names:
                    out[alias.asname or alias.name] = (
                        (alias.name, None) if node.module is None
                        else (node.module, alias.name))
        return out

    def references(self, module, node):
        """(module, name) of every library name the node refers to."""
        out = set()
        bound = self.bindings[module]
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                if sub.id in self.names[module]:
                    out.add((module, sub.id))
                elif sub.id in bound and bound[sub.id][1] is not None:
                    out.add(bound[sub.id])
            elif (isinstance(sub, ast.Attribute) and isinstance(sub.value, ast.Name)
                  and sub.value.id in bound and bound[sub.value.id][1] is None):
                out.add((bound[sub.value.id][0], sub.attr))
        return out

    def cli_roots(self):
        """main, and what cli.py's module code (its tables) refers to."""
        roots = {("cli", "main")}
        for node in self.trees["cli"].body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef, ast.Import,
                                     ast.ImportFrom)):
                roots |= self.references("cli", node)
        return roots

    def closure(self, roots):
        seen, stack = set(), list(roots)
        while stack:
            module, name = key = stack.pop()
            node = self.names.get(module, {}).get(name)
            if node is None or key in seen:
                continue
            seen.add(key)
            stack.extend(self.references(module, node))
        return seen


def bench_reads():
    """(module, attribute) of every read of a cvmw module that bench/*.py
    imports through lazy("module"): `m = lazy("x")` then `m.attr`, or
    `lazy("x").attr`."""

    def lazy_module(node):
        if (isinstance(node, ast.Call) and node.args
                and isinstance(node.args[0], ast.Constant)
                and getattr(node.func, "id", getattr(node.func, "attr", None)) == "lazy"):
            return node.args[0].value
        return None

    reads = set()
    for path in sorted(BENCH.glob("*.py")):
        tree = ast.parse(path.read_text())
        bound = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Assign) and len(node.targets) == 1:
                target, value = node.targets[0], node.value
                pairs = (zip(target.elts, value.elts)
                         if isinstance(target, ast.Tuple) and isinstance(value, ast.Tuple)
                         else [(target, value)])
                for name, call in pairs:
                    module = lazy_module(call)
                    if module and isinstance(name, ast.Name):
                        bound.setdefault(name.id, set()).add(module)
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                if isinstance(node.value, ast.Name):
                    reads |= {(m, node.attr) for m in bound.get(node.value.id, ())}
                module = lazy_module(node.value)
                if module:
                    reads.add((module, node.attr))
    return reads


def test_every_library_name_is_reached():
    library = Library()
    paper = {tuple(name.split(".")) for name, _ in PAPER_RESULTS}
    reached = library.closure(library.cli_roots() | bench_reads() | paper)
    unreached = sorted("%s.%s" % (m, name) for m, names in library.names.items()
                       for name in names if (m, name) not in reached)
    assert not unreached, "unreached from the CLI, the benchmark's reads and " \
        "PAPER_RESULTS (%d): %s" % (len(unreached), ", ".join(unreached))


@pytest.mark.parametrize("name,test_id", PAPER_RESULTS, ids=[n for n, _ in PAPER_RESULTS])
def test_every_paper_result_names_a_library_name_and_its_test(name, test_id):
    module, attr = name.split(".")
    assert attr in top_level_names(ast.parse((LIBRARY[0].parent / (module + ".py"))
                                             .read_text()))
    path, *scope = test_id.split("::")
    body = ast.parse((Path(__file__).parent.parent / path).read_text()).body
    for part in scope:
        node = next((n for n in body if isinstance(n, (ast.ClassDef, ast.FunctionDef))
                     and n.name == part), None)
        assert node is not None, test_id
        body = node.body
    assert attr in ast.unparse(node), (name, test_id)
