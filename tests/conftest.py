import pytest

from aconst import euler


@pytest.fixture(autouse=True)
def empty_stream_memo():
    """Every test starts and ends with an empty Gregory stream memo, so no
    test depends on which tests ran before it."""
    euler._stream.clear()
    yield
    euler._stream.clear()
