"""Peak memory of one call, as tracemalloc sees it.  numpy reports its array
buffers to tracemalloc, so the peak covers arrays and Python objects alike."""

import tracemalloc


def traced_peak(fn, *args):
    """(fn(*args), the peak bytes traced during the call above what was
    traced when it began)."""
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        result = fn(*args)
        return result, tracemalloc.get_traced_memory()[1] - before
    finally:
        if not tracing:
            tracemalloc.stop()
