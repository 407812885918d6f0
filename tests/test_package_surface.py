"""Deleted library surface stays deleted.

No experiment driver, service job or example ran ``epsilon_constraint``;
the E5/E6 comparison uses the weighted sum.  No workload took the sparse
plan's Woodbury update, so its residual tolerance is gone with it.
"""

import importlib

import pytest

DELETED_NAMES = {
    "repro.optimize": ["epsilon_constraint"],
    "repro.optimize.scalarization": ["epsilon_constraint"],
    "repro.analysis.sparsemna": ["WOODBURY_RESIDUAL_TOL"],
}


@pytest.mark.parametrize("package", sorted(DELETED_NAMES))
def test_deleted_names_are_gone(package):
    module = importlib.import_module(package)
    present = [name for name in DELETED_NAMES[package]
               if hasattr(module, name)
               or name in getattr(module, "__all__", ())]
    assert present == []
