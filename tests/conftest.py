import pytest

from aconst import analytic, euler


def _clear_memos():
    euler._stream.clear()
    euler._ell.cache_clear()
    euler._wilson.cache_clear()
    euler._kluyver_weights.cache_clear()
    analytic._gregory_fixed.cache_clear()
    analytic._newton_zeros.cache_clear()


@pytest.fixture(autouse=True)
def empty_memos():
    """Every test starts and ends with empty memos: the Euler ones (the
    Gregory streams, the right sides' ell values and Wilson quotients and the
    Kluyver weights) and the analytic ones (the certified fixed-point streams
    and the last Newton inversion), so no test depends on which tests ran
    before it."""
    _clear_memos()
    yield
    _clear_memos()
