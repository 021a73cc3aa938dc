import importlib

import pytest

MODULES = ["fusion_model", "gate", "growth_costs", "optimal", "rng", "simulate"]


@pytest.mark.parametrize("name", MODULES)
def test_every_export_resolves_once(name):
    module = importlib.import_module(f"wfuse.{name}")
    exports = module.__all__
    assert len(exports) == len(set(exports)), exports
    assert [export for export in exports if not hasattr(module, export)] == []
