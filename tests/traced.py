"""The peak memory that tracemalloc traces while a call runs, for the memory-bound tests."""
import tracemalloc


def traced_peak(fn):
    """fn() and the peak of the memory traced while it ran."""
    tracemalloc.start()
    try:
        return fn(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
