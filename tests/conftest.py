import pytest

from aconst import euler


def _clear_memos():
    euler._stream.clear()
    euler._ell.cache_clear()
    euler._wilson.cache_clear()
    euler._kluyver_weights.cache_clear()


@pytest.fixture(autouse=True)
def empty_memos():
    """Every test starts and ends with empty Euler memos (the Gregory streams,
    the right sides' ell values and Wilson quotients and the Kluyver
    weights), so no test depends on which tests ran before it."""
    _clear_memos()
    yield
    _clear_memos()
