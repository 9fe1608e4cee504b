import pytest

import fgred.gauss as gauss


@pytest.fixture
def openblas_at_two_threads():
    """The process's OpenBLAS setters, every copy at 2 threads for the test."""
    setters = gauss._openblas_setters()
    if not setters:
        pytest.skip("no OpenBLAS copy with openblas_set_num_threads_local is loaded")
    before = [setter(2) for setter in setters]
    yield setters
    for setter, count in zip(setters, before):
        setter(count)
