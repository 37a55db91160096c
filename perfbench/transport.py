"""Fixed-latency scripted backend for the record-mode workload.

It stands in for a remote model: ``ScriptedTransport(default_stage_script)``
from ``decisionflow.testing``, with a fixed sleep before every send, so a
store it fills replays to the same traces as one recorded with the scripted
backend. It opens no socket and starts no thread; the counters are guarded
by a lock because the gateway calls ``send`` from several threads.
"""

from __future__ import annotations

import threading
import time

from decisionflow.gateway import request_digest
from decisionflow.testing import ScriptedTransport, default_stage_script

LATENCY_S = 0.020


class FixedLatencyTransport(ScriptedTransport):
    def __init__(self):
        super().__init__(default_stage_script)
        self.sends = 0
        self.digests: set[str] = set()
        self._lock = threading.Lock()

    def send(self, request):
        with self._lock:
            self.sends += 1
            self.digests.add(request_digest(request))
        time.sleep(LATENCY_S)
        return super().send(request)

    def counters(self) -> dict:
        with self._lock:
            return {"sends": self.sends, "unique_digests": len(self.digests)}
