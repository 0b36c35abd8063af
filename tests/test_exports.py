"""The package's public names."""

import pytest

import trotterion
import trotterion.apps


@pytest.mark.parametrize("module", [trotterion, trotterion.apps],
                         ids=["trotterion", "trotterion.apps"])
def test_every_exported_name_resolves(module):
    assert [name for name in module.__all__ if not hasattr(module, name)] == []
