import pytest

from chaoslab import operator


@pytest.fixture(autouse=True)
def cold_kernel_cache():
    """Every test starts without a kept kernel block, so a test that counts
    builds or traces a peak does not depend on the tests run before it."""
    operator._LAST_BLOCK.clear()
    yield
