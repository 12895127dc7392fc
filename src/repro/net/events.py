"""The unified radio observer protocol.

Every radio-layer occurrence — physical (``tx``/``rx``/``drop``/
``collision``) and transport-level (``ack``/``retry``/``dup``/
``give_up``) — is published as one typed :class:`RadioEvent` to every
subscribed observer — built only when there is one.  Every consumer
(a test recording frames, a fault watcher) subscribes with
:meth:`Radio.subscribe` instead of growing yet another hook.
Telemetry catches up from the radio's own counts instead.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

from .messages import Message


class RadioEvent(NamedTuple):
    """One radio-layer occurrence, as published to observers.

    ``attempt`` is the 1-based transmission attempt for reliable
    transfers (0 when not applicable); ``detail`` carries the drop
    reason (``"loss"``, ``"dead"``, ``"collision"``) or is empty.
    """

    time: float
    event: str            # 'tx'|'rx'|'drop'|'collision'|'ack'|'retry'|'dup'|'give_up'
    src: int
    dst: int
    message: Message
    category: str
    size_bytes: int
    attempt: int = 0
    detail: str = ""


#: An observer is any callable accepting one RadioEvent.
RadioObserver = Callable[[RadioEvent], None]
