import pytest

import schubpat


@pytest.fixture(autouse=True)
def _fresh_caches():
    """Every test starts and ends with empty memo tables."""
    schubpat.clear_caches()
    yield
    schubpat.clear_caches()
