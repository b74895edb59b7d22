"""The memory gates' one instrument: the peak bytes tracemalloc traces while a
call runs, and the bytes a storage operator holds."""
import tracemalloc

from twosided.operators import DenseSymmetric


def traced_peak(call, *args):
    """``call(*args)``'s result and the peak bytes tracemalloc traced while it ran.
    Tracing already on is a RuntimeError: its peak could be another call's."""
    if tracemalloc.is_tracing():
        raise RuntimeError("tracemalloc is already tracing; the peak would not be this call's")
    tracemalloc.start()
    try:
        result = call(*args)
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def traced_bytes():
    """The bytes tracemalloc traces now, read inside a call ``traced_peak`` runs."""
    return tracemalloc.get_traced_memory()[0]


def stored_arrays(op):
    """A storage operator's arrays: its dense entries or its three CSR arrays."""
    return [op.entries] if isinstance(op, DenseSymmetric) else [op.indptr, op.indices, op.data]


def stored_nbytes(op):
    return sum(a.nbytes for a in stored_arrays(op))
