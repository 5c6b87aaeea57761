import pytest

from schubpat import incexc, schubert, weylchar


@pytest.fixture(autouse=True)
def _fresh_caches():
    """Every test starts and ends with empty module-level memo tables."""
    for module in (schubert, incexc, weylchar):
        module.clear_caches()
    yield
    for module in (schubert, incexc, weylchar):
        module.clear_caches()
