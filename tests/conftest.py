import pytest

from infalex.johnson import johnson_context


@pytest.fixture
def fresh_contexts():
    """An empty johnson_context cache for the test, emptied again after it,
    so a context built under a fault, or a large one, outlives neither."""
    johnson_context.cache_clear()
    yield
    johnson_context.cache_clear()
