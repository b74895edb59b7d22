import pytest
from memory import traced_peak


def test_a_measurement_inside_another_is_refused_and_tracing_stops():
    with pytest.raises(RuntimeError, match="^tracemalloc is already tracing"):
        traced_peak(traced_peak, int)
    assert traced_peak(int)[0] == 0  # the outer call stopped tracing on the way out
