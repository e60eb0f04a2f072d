"""Every name a module lists in __all__ exists, so `import *` works."""

import importlib

import pytest


@pytest.mark.parametrize("module", ["quasifree", "detector", "disjointness",
                                    "liouville"])
def test_all_names_exist(module):
    mod = importlib.import_module("kmslab." + module)
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert missing == []


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
