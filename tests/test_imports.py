"""The package imports nothing beyond the standard library and numpy, and uses what it imports.

``pyproject.toml`` declares numpy as the one dependency, so an import of any
other installed package would pass here and fail on a clean install.
"""

import ast
import sys
import types
from pathlib import Path

import dimwitness

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "dimwitness"
ALLOWED = set(sys.stdlib_module_names) | {"numpy"}


def test_package_imports_only_stdlib_numpy_or_relative():
    sources = sorted(PACKAGE.glob("*.py"))
    assert sources
    foreign = []
    for source in sources:
        for node in ast.walk(ast.parse(source.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                roots = [alias.name.split(".")[0] for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                roots = [node.module.split(".")[0]]
            else:
                continue
            foreign += [f"{source.name}: {root}" for root in roots if root not in ALLOWED]
    assert not foreign


def test_modules_use_every_name_they_import():
    """An import a module never uses is dead code; a line marked ``# noqa`` is kept on purpose."""
    unused = []
    for source in sorted(PACKAGE.glob("*.py")):
        if source.name == "__init__.py":
            continue
        text = source.read_text(encoding="utf-8")
        lines = text.splitlines()
        tree = ast.parse(text)
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if not isinstance(node, (ast.Import, ast.ImportFrom)) or "# noqa" in lines[node.lineno - 1]:
                continue
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if name not in used:
                    unused.append(f"{source.name}:{node.lineno}: {name}")
    assert not unused


#: Each module's imports from within the package. A new edge is a design change: ``files`` alone knows
#: the file formats, and the see-saw hands it states, not effects.
IMPORTS = {
    "__init__": {"classical", "errors", "kernels", "linalg", "quantum", "seesaw", "simulate", "witnesses"},
    "__main__": {"cli"},
    "classical": {"errors", "kernels", "linalg", "witnesses"},
    "cli": {"classical", "errors", "files", "quantum", "seesaw", "witnesses"},
    "errors": set(),
    "files": {"errors", "kernels", "linalg", "quantum", "witnesses"},
    "kernels": {"linalg"},
    "linalg": {"errors"},
    "quantum": {"errors", "kernels", "linalg"},
    "seesaw": {"errors", "kernels", "quantum", "witnesses"},
    "simulate": {"errors", "kernels", "linalg", "quantum", "witnesses"},
    # "classical" is the one back edge: certify_dimension's deferred import, which the closed-form
    # linear classical bound of ROADMAP item 2 would delete
    "witnesses": {"classical", "errors", "kernels", "linalg"},
}


def test_module_import_graph_is_pinned():
    graph = {}
    for source in sorted(PACKAGE.glob("*.py")):
        deps = set()
        for node in ast.walk(ast.parse(source.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                deps.update([node.module.split(".")[0]] if node.module else [alias.name for alias in node.names])
        graph[source.stem] = deps
    assert graph == IMPORTS


#: The public names of ``dimwitness``: a name added or removed here is an API change.
PUBLIC_API = {
    # errors
    "BadArgument", "DimensionMismatch", "DimWitnessError", "FileFormatError", "IncompleteDecoding",
    "NonMonotonic", "NotAPovm", "NotHermitian", "NotPure", "OutOfRange", "ShapeMismatch", "TooLarge",
    # quantum objects and tools
    "DensityMatrix", "Effect", "Ensemble", "PairMeasurementSet", "StateVector", "average_state",
    "fidelity_pure", "fourier_ensemble", "helstrom_differences", "helstrom_effect",
    "helstrom_measurements", "overlap_sum_identity_check", "pure_overlaps", "pure_state", "purity",
    "trace_distance", "trace_norm",
    # witnesses
    "CertifiedDimensions", "ProbabilityTable", "WitnessKind", "certify_dimension", "classical_bound",
    "evaluate", "pair_differences", "pair_labels", "pair_value", "quantum_bound",
    # classical strategies
    "DeterministicStrategy", "enumerate_max", "strategy_table",
    # see-saw
    "TIGHT_DIMENSIONS", "SeesawConfig", "SeesawResult", "TightnessEntry", "optimize", "verify_table2",
    # simulation
    "NoiseModel", "born_table", "depolarize", "guessing_table", "noisy_table",
}


def test_public_names_are_the_listed_api():
    public = {name for name, value in vars(dimwitness).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert public == PUBLIC_API
