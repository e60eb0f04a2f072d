"""Every name a module lists in __all__ exists, so `import *` works, and
every module-level import is used."""

import ast
import importlib
from pathlib import Path

import pytest

SRC = Path(importlib.import_module("kmslab").__file__).parent


@pytest.mark.parametrize("module", ["quasifree", "detector", "disjointness",
                                    "liouville"])
def test_all_names_exist(module):
    mod = importlib.import_module("kmslab." + module)
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert missing == []


def _top_level_imports(tree):
    """(bound name, line) of each import in the module body itself."""
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_module_imports_are_used_or_exported(path):
    tree = ast.parse(path.read_text())
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and [getattr(t, "id", None) for t in node.targets] == ["__all__"]):
            used |= set(ast.literal_eval(node.value))
    unused = ["%s (line %d)" % (name, line)
              for name, line in _top_level_imports(tree) if name not in used]
    assert unused == []


def test_fock_and_initial_state_names_exist():
    from kmslab import liouville as lv
    for name in ("rank", "free_energies", "creation_matrix"):
        assert callable(getattr(lv.TruncatedFock, name))
    assert "INITIAL_STATES" in lv.__all__


# The functions bench/tracing.py wraps, with the parameters they keep.
TRACED = {
    "TruncatedFock.__init__": ["self", "disc", "n_tot_max", "n_max"],
    "assemble_liouvillean": ["space", "E", "G", "lam"],
    "perturbed_kms_vector": ["L0", "I_mat", "lam", "beta",
                             "consistency_tol"],
    "spectrum_scan": ["L", "theta", "k", "method"],
    "evolve": ["L", "psi0", "tgrid", "observe"],
    "reduce_detector": ["psi", "space"],
    "trace_distance": ["rho1", "rho2"],
}


@pytest.mark.parametrize("name", sorted(TRACED))
def test_traced_signatures_unchanged(name):
    import inspect
    from kmslab import liouville as lv
    obj = lv
    for part in name.split("."):
        obj = getattr(obj, part)
    assert list(inspect.signature(obj).parameters) == TRACED[name]


def test_traced_operator_attributes_kept():
    # bench/tracing.py reads op.dim and op.matrix.nnz of each assembled
    # generator
    import dataclasses
    from kmslab import liouville as lv
    fields = [f.name for f in dataclasses.fields(lv.LiouvilleanOperator)]
    assert "matrix" in fields
    assert isinstance(lv.LiouvilleanOperator.dim, property)
