"""Memory measures for the memory-bound tests: the peak that tracemalloc traces while a
call runs, and the bytes that a result's arrays keep alive."""
import dataclasses
import tracemalloc

import numpy as np


def traced_peak(fn):
    """fn() and the peak of the memory traced while it ran."""
    tracemalloc.start()
    try:
        return fn(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def held_bytes(result) -> int:
    """The bytes of the buffers that the arrays in result keep alive, each base buffer
    counted once, so a view into a larger array counts the whole of it. Dataclass
    fields, dict values and list or tuple items are walked."""
    buffers = {}

    def walk(obj):
        if isinstance(obj, np.ndarray):
            while isinstance(obj.base, np.ndarray):
                obj = obj.base
            owner = obj if obj.base is None else obj.base
            buffers[id(owner)] = (owner, memoryview(owner).nbytes)
        elif dataclasses.is_dataclass(obj) and not isinstance(obj, type):
            for f in dataclasses.fields(obj):
                walk(getattr(obj, f.name))
        elif isinstance(obj, dict):
            for value in obj.values():
                walk(value)
        elif isinstance(obj, (list, tuple)):
            for item in obj:
                walk(item)

    walk(result)
    return sum(nbytes for _, nbytes in buffers.values())
