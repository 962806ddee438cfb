"""Every name the packages export resolves."""
import pytest

import dicomforge
import dicomforge.web


@pytest.mark.parametrize("module", [dicomforge, dicomforge.web], ids=lambda m: m.__name__)
def test_every_exported_name_resolves(module):
    assert module.__all__
    assert [name for name in module.__all__ if not hasattr(module, name)] == []
