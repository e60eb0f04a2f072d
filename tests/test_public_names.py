"""Every name a module lists in __all__ exists, so `import *` works,
every module-level import is used, and every private function and class
is named somewhere else in the package."""

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


def _named(tree):
    """Every name that tree imports, reads or takes as an attribute."""
    named = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            named |= {alias.name for alias in node.names}
        elif isinstance(node, ast.Name):
            named.add(node.id)
        elif isinstance(node, ast.Attribute):
            named.add(node.attr)
    return named


def test_every_error_class_is_named_by_another_module():
    # TruncationWarning is exempt: the acceptance gate imports it, and
    # whether the truncation ladder raises it is still open
    tree = ast.parse((SRC / "errors.py").read_text())
    classes = {node.name for node in tree.body
               if isinstance(node, ast.ClassDef)}
    named = set()
    for path in SRC.glob("*.py"):
        if path.name != "errors.py":
            named |= _named(ast.parse(path.read_text()))
    assert sorted(classes - named - {"TruncationWarning"}) == []


def test_every_private_function_and_class_is_used():
    # a private top-level function or class is named somewhere in the
    # package other than in its own definition, or it is dead code
    nodes = [(path.name, node) for path in sorted(SRC.glob("*.py"))
             for node in ast.parse(path.read_text()).body]
    named = [_named(node) for _, node in nodes]
    unused = ["%s: %s" % (module, node.name) for k, (module, node)
              in enumerate(nodes)
              if isinstance(node, (ast.FunctionDef, ast.ClassDef))
              and node.name.startswith("_")
              and not any(node.name in names for other, names
                          in enumerate(named) if other != k)]
    assert unused == []


def test_only_the_front_end_names_the_writers():
    # cli writes every output file; oneparticle keeps save_glued beside
    # load_glued, and textio defines the two writers
    def naming(tree):
        return _named(tree) | {node.name for node in ast.walk(tree)
                               if isinstance(node, ast.FunctionDef)}
    writers = {"write_csv", "write_keyvals"}
    found = [path.stem for path in sorted(SRC.glob("*.py"))
             if writers & naming(ast.parse(path.read_text()))]
    assert found == ["cli", "oneparticle", "textio"]


def test_no_class_defines_save():
    # results are data: the command line front end writes them
    found = ["%s: %s" % (path.name, node.name)
             for path in sorted(SRC.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.ClassDef)
             and any(isinstance(item, ast.FunctionDef) and item.name == "save"
                     for item in node.body)]
    assert found == []


def test_fock_and_initial_state_names_exist():
    from kmslab import liouville as lv
    for name in ("rank", "free_energies", "creation_matrix"):
        assert callable(getattr(lv.TruncatedFock, name))
    assert "INITIAL_STATES" in lv.__all__


# The functions bench/tracing.py wraps, with the parameters they keep.  The
# tracer passes every argument through, so a new trailing keyword keeps it
# working.
TRACED = {
    "TruncatedFock.__init__": ["self", "disc", "n_tot_max", "n_max",
                               "energy_max"],
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
