"""Stream model: tuple identity, stream tuples, sliding windows."""

from .tuples import ArgsTuple, StreamTuple, TupleID
from .windows import SlidingWindow, WindowParams

__all__ = [
    "ArgsTuple", "StreamTuple", "TupleID", "SlidingWindow", "WindowParams",
]
