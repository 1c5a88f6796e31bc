"""Nothing in the package goes unread.

No linter ships with the project's toolchain, so these are the checks that a
deletion leaves nothing stale behind: no module imports a name it never reads,
and every function, method, property and dataclass field defined in the
package is read somewhere in it besides its own definition. A name counts as
read if it is loaded as a name or an attribute anywhere (annotations included)
or, in a package __init__, listed in its __all__; a method, property or field
is read only as an attribute, since a bare name of the same spelling is
another variable. Reads are matched by name, not by type, so a dead method
that shares its name with a live one passes.

Every defaulted parameter is also set by some call in the package, by
keyword or by position, so that no option has only the one value its default
gives it. Calls are matched to definitions by name in the same way.

Outside geometry.py no function forms e^{+-2 phi} of the factor on the grid:
geometry.grid_geometry builds phi, e^{+-2 phi} and the area weights once, and
every plane-side site reads them from it.

No function calls BLAS or LAPACK (np.dot, np.vdot, np.inner, np.matmul,
np.tensordot, np.polyfit, np.linalg or the @ operator) outside a listed reason:
a threaded BLAS sum adds in an order that follows the thread count, so a printed
value would change with the machine. domain.line_fit fits every line instead.
"""

import ast
from collections import Counter
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "curvedks"

# Definitions that nothing in the package reads, each kept for its one reason.
ALLOWED_UNREAD = {
    # criteria APIs that tests/test_acceptance.py and bench/ call
    "sphere.transport_to_sphere": "criterion 7's round-sphere check and the fine workload",
    "sphere.kw_residual": "criterion 7's manufactured residual and the fine workload",
    "sphere.obstruction_integral": "criterion 7's 2-D oracle for the certificate's 1-D reduction",
    "sphere.plane_side_obstruction": "criterion 7's plane-side evaluation of the same obstruction",
    "sphere.TransportReport.cap_fraction": "what criterion 7 and the fine workload assert on",
    "energy.conformal_covariance_check": "criterion 6's covariance check and the fine workload",
    "energy.CovarianceCheck.difference": "what criterion 6 and the fine workload assert on",
    # fields only bench/ reads or sets, until the benchmark stops using them
    "sphere.SphereField.role": "bench/workloads.py constructs SphereField with role=",
    "virial.AuxSolution.iterations": "bench/tracer.py counts the solves of each auxiliary solve",
    "virial.AuxSolution.residual_trace": "bench/tracer.py records the auxiliary solve's residual",
}

# Defaulted parameters that no call in the package sets, each kept for its one reason.
ALLOWED_DEFAULTED = {
    "stationary.DensityField.potential(method)":
        "the direct oracle: bench/test_bench.py passes method='direct'",
    "energy.free_energy(q)": "the covariant q = 2 energy that tests/test_energy.py checks",
    "energy.lambda_scan(x_star)":
        "criterion 5's fixed-grid flat reference scan and bench/workloads.py pass it",
    "energy.conformal_covariance_check(x_star)": "criterion 6 passes it",
    "sphere.plane_side_obstruction(u1_index)": "criterion 7 passes it",
    "virial.solve_aux_pde(tol)": "tests/test_virial.py and bench/workloads.py pass it",
    "sphere.nonexistence_certificate(n_lon)":
        "selects nothing (the certificate is a zonal sum); bench/workloads.py passes it",
    "cli.main(argv)": "tests pass argv; the console script passes none, so argparse reads sys.argv",
    "stationary.DensityField.to_csv(meta)": "a writer bench/tracer.py times; tests pass meta",
    # the CSV writers of the commands: main passes meta through Outcome.tables' write(path, meta=)
    "energy.ScanTable.to_csv(meta)": "set through Outcome.tables",
    "flow.diagnostics_to_csv(meta)": "set through Outcome.tables",
    "virial.export_virial_csv(meta)": "set through Outcome.tables",
}


# np.exp(+-2.0 * ...) calls outside geometry.py, by function and argument: none is of phi
# on the grid, which only geometry.grid_geometry exponentiates
ALLOWED_DOUBLED_EXP = {
    ("sphere.kw_residual", "2.0 * u.values"): "e^{2u} of a sphere field u, not of phi",
    ("sphere.obstruction_integral", "2.0 * u.values"): "e^{2u} of a sphere field u, not of phi",
    ("sphere.plane_side_obstruction", "2.0 * field_u"): "e^{2u} of the transported u on the plane",
    ("sphere.transport_to_sphere", "2.0 * phi(X, Y)"): "e^{2 phi} at sphere nodes, off the grid",
}


# BLAS and LAPACK sites in src/, by function and expression, each with its one reason
_GEMM = "dgemm splits the output's rows and columns among threads, never the summed index"
ALLOWED_BLAS = {
    ("potential._toeplitz_sum", "q[lo - a:hi - a] @ M[a + n]"):
        "the direct oracle: only method='direct' runs it, and no command selects it",
    ("stationary.static_weak_residual", "A @ (field.samples * gfy)"): _GEMM,
    ("stationary.static_weak_residual", "field.samples * gfx @ B.T"): _GEMM,
    ("virial.solve_aux_pde", "A @ x"): "a scipy.sparse matrix-vector product, not BLAS",
}


def _all_names(tree: ast.Module) -> set[str]:
    names = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            names |= {elt.value for elt in node.value.elts}
    return names


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[(alias.asname or alias.name).split(".")[0]] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    read |= _all_names(tree)
    return sorted(f"{name} (line {line})" for name, line in imported.items()
                  if name not in read)


def _loads(node: ast.AST) -> tuple[Counter, Counter]:
    """How often each name is loaded under node as a bare name, and as an attribute."""
    names, attributes = Counter(), Counter()
    for n in ast.walk(node):
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
            names[n.id] += 1
        elif isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load):
            attributes[n.attr] += 1
    return names, attributes


def _is_dataclass(node: ast.ClassDef) -> bool:
    decorators = (d.func if isinstance(d, ast.Call) else d for d in node.decorator_list)
    return any(isinstance(d, ast.Name) and d.id == "dataclass" for d in decorators)


def _definitions(node: ast.AST, prefix: str, in_class: bool = False):
    """(qualified name, name, defining node, is a class member) of each function, method,
    property and dataclass field under node."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield f"{prefix}.{child.name}", child.name, child, in_class
            yield from _definitions(child, f"{prefix}.{child.name}")
        elif isinstance(child, ast.ClassDef):
            if _is_dataclass(child):
                for stmt in child.body:
                    if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
                        yield f"{prefix}.{child.name}.{stmt.target.id}", stmt.target.id, stmt, True
            yield from _definitions(child, f"{prefix}.{child.name}", in_class=True)
        else:
            yield from _definitions(child, prefix, in_class)


def unread_definitions(sources: dict[str, str]) -> list[str]:
    """Qualified names (module.Class.name) of the definitions in sources, a map from
    module name to source, that no load outside their own definition reads."""
    trees = {mod: ast.parse(src) for mod, src in sources.items()}
    names, attributes = Counter(), Counter()
    for tree in trees.values():
        tree_names, tree_attributes = _loads(tree)
        names += tree_names
        names.update(_all_names(tree))
        attributes += tree_attributes
    unread = []
    for mod, tree in trees.items():
        for qual, name, node, member in _definitions(tree, mod):
            if name.startswith("__") and name.endswith("__"):
                continue
            own_names, own_attributes = _loads(node)
            reads = attributes[name] - own_attributes[name]
            if not member:
                reads += names[name] - own_names[name]
            if reads <= 0:
                unread.append(qual)
    return sorted(unread)


def unset_defaults(sources: dict[str, str]) -> list[str]:
    """module.Class.function(parameter) of each defaulted parameter in sources, a map from
    module name to source, that no call of a function of that name sets, by keyword or by
    position; a method's first parameter is self or cls. A *args in a call sets every
    position, a **kwargs every keyword."""
    trees = {mod: ast.parse(src) for mod, src in sources.items()}
    calls = {}    # called name -> (positional arguments, keyword names) of each call
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", getattr(node.func, "attr", None))
                starred = any(isinstance(a, ast.Starred) for a in node.args)
                calls.setdefault(name, []).append(
                    (float("inf") if starred else len(node.args), {k.arg for k in node.keywords}))
    unset = []
    for mod, tree in trees.items():
        for qual, name, node, member in _definitions(tree, mod):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            args = node.args
            positional = args.posonlyargs + args.args
            first, skip = len(positional) - len(args.defaults), int(member)
            defaulted = [(a.arg, i - skip) for i, a in enumerate(positional) if i >= first]
            defaulted += [(a.arg, None) for a, d in zip(args.kwonlyargs, args.kw_defaults)
                          if d is not None]
            for param, index in defaulted:
                if not any(param in kws or None in kws or (index is not None and n > index)
                           for n, kws in calls.get(name, [])):
                    unset.append(f"{qual}({param})")
    return sorted(unset)


def _numpy_call(node: ast.AST, name: str) -> bool:
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr == name and getattr(node.func.value, "id", None) == "np")


def _is_two(node: ast.AST) -> bool:
    """The literal 2.0 or -2.0 (+2.0 too)."""
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
        node = node.operand
    return isinstance(node, ast.Constant) and type(node.value) in (int, float) \
        and abs(node.value) == 2.0


def doubled_exponentials(sources: dict[str, str]) -> list[tuple[str, str]]:
    """(module.function, argument) of each np.exp call in a function of sources, a map from
    module name to source, whose argument is +-2.0 * ... (either side), or np.multiply(...)
    with a +-2.0 argument; a nested function counts as its outermost one."""
    sites = []
    for mod, src in sources.items():
        stack = [(node, f"{mod}") for node in ast.parse(src).body]
        while stack:
            node, prefix = stack.pop()
            if isinstance(node, ast.ClassDef):
                stack += [(child, f"{prefix}.{node.name}") for child in node.body]
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for call in ast.walk(node):
                    if not (_numpy_call(call, "exp") and call.args):
                        continue
                    arg = call.args[0]
                    if ((isinstance(arg, ast.BinOp) and isinstance(arg.op, ast.Mult)
                         and (_is_two(arg.left) or _is_two(arg.right)))
                            or (_numpy_call(arg, "multiply") and any(map(_is_two, arg.args)))):
                        sites.append((f"{prefix}.{node.name}", ast.unparse(arg)))
    return sorted(sites)


_BLAS_CALLS = {"dot", "vdot", "inner", "matmul", "tensordot", "polyfit"}


def _is_blas(node: ast.AST) -> bool:
    """An @, or a call of np.<one of _BLAS_CALLS> or of np.linalg.<anything>."""
    if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
        return True
    if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)):
        return False
    owner = node.func.value
    return (getattr(owner, "id", None) == "np" and node.func.attr in _BLAS_CALLS) or (
        isinstance(owner, ast.Attribute) and owner.attr == "linalg"
        and getattr(owner.value, "id", None) == "np")


def blas_sites(sources: dict[str, str]) -> list[tuple[str, str]]:
    """(module.function, expression) of each BLAS or LAPACK site (_is_blas) in a function of
    sources, a map from module name to source; a nested function counts as its outermost one."""
    sites = []
    for mod, src in sources.items():
        stack = [(node, mod) for node in ast.parse(src).body]
        while stack:
            node, prefix = stack.pop()
            if isinstance(node, ast.ClassDef):
                stack += [(child, f"{prefix}.{node.name}") for child in node.body]
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                sites += [(f"{prefix}.{node.name}", ast.unparse(n))
                          for n in ast.walk(node) if _is_blas(n)]
    return sorted(sites)


def test_the_check_finds_an_unused_import():
    source = ("import os\nimport numpy as np\nfrom typing import Any, List\n"
              "x: List = np.zeros(1)\n")
    assert unused_imports(source) == ["Any (line 3)", "os (line 1)"]
    assert unused_imports("from .a import b\n__all__ = ['b']\n") == []


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_the_check_finds_an_unread_definition():
    source = """
from dataclasses import dataclass

@dataclass(frozen=True)
class Report:
    used: float
    unused: float

    def __post_init__(self):
        pass

    @property
    def doubled(self):
        return 2 * self.used

def helper():
    return 1

def countdown(n):
    return countdown(n - 1) if n else 0

def main(report):
    unused = report.doubled
    return unused
"""
    # unused is read only as a local variable, countdown only by itself
    assert unread_definitions({"m": source, "__init__": "__all__ = ['main']\n"}) == [
        "m.Report.unused", "m.countdown", "m.helper"]


def test_everything_defined_in_the_package_is_read():
    sources = {p.stem: p.read_text(encoding="utf-8") for p in SRC.glob("*.py")}
    assert unread_definitions(sources) == sorted(ALLOWED_UNREAD)


def test_the_check_finds_an_unset_default():
    source = """
class Grid:
    def refine(self, factor=2, *, keep=False):
        return self

def solve(grid, tol=1e-8, method="lu", verbose=False, limit=10):
    return grid.refine(3)

def main(grid, options):
    solve(grid, 1e-6, verbose=True)
    solve(*options)
    solve(**options)
"""
    # factor is set by position past self, tol by position and verbose by keyword;
    # method and limit only by the *options and **options of main
    assert unset_defaults({"m": source}) == ["m.Grid.refine(keep)"]
    assert unset_defaults({"m": source.replace("    solve(*options)\n", "").replace(
        "    solve(**options)\n", "")}) == [
        "m.Grid.refine(keep)", "m.solve(limit)", "m.solve(method)"]


def test_every_defaulted_parameter_is_set():
    sources = {p.stem: p.read_text(encoding="utf-8") for p in SRC.glob("*.py")}
    assert unset_defaults(sources) == sorted(ALLOWED_DEFAULTED)


def test_the_check_finds_a_doubled_exponential():
    source = """
import numpy as np

class Field:
    def weights(self, phi):
        return np.exp(phi * -2.0)

def sample(phi, grid, u):
    def inner():
        return np.exp(np.multiply(phi, 2.0, out=phi), out=phi)
    a = np.exp(2.0 * u) + np.exp(-2.0 * phi.on_grid(grid)) + np.exp(3.0 * u)
    return a + np.expm1(2.0 * u) + np.exp(2 * u - 1.0) + inner()
"""
    # the factor 3.0, expm1 and a sum whose term is doubled are not doubled exponentials
    assert doubled_exponentials({"m": source}) == [
        ("m.Field.weights", "phi * -2.0"), ("m.sample", "-2.0 * phi.on_grid(grid)"),
        ("m.sample", "2.0 * u"), ("m.sample", "np.multiply(phi, 2.0, out=phi)")]


def test_only_geometry_exponentiates_the_factor_on_the_grid():
    sources = {p.stem: p.read_text(encoding="utf-8") for p in SRC.glob("*.py")
               if p.name != "geometry.py"}
    assert doubled_exponentials(sources) == sorted(ALLOWED_DOUBLED_EXP)


def test_the_check_finds_blas_calls():
    source = """
import numpy as np

class Fit:
    def slope(self, x, y):
        return np.dot(x, y) / np.linalg.norm(x) ** 2

def solve(A, b, x):
    def inner():
        return np.polyfit(x, b, 1)
    x @= A
    return A @ b + np.sum(x * b) + np.einsum("i,i", x, b) + inner()
"""
    # np.sum of a product and np.einsum are numpy's own loops, not BLAS
    assert blas_sites({"m": source}) == [
        ("m.Fit.slope", "np.dot(x, y)"), ("m.Fit.slope", "np.linalg.norm(x)"),
        ("m.solve", "A @ b"), ("m.solve", "np.polyfit(x, b, 1)"), ("m.solve", "x @= A")]


def test_no_printed_value_sums_through_blas():
    sources = {p.stem: p.read_text(encoding="utf-8") for p in SRC.glob("*.py")}
    assert blas_sites(sources) == sorted(ALLOWED_BLAS)
