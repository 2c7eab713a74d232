"""Echo peer for the service workloads' host-speed samples.

Started by ``service.EchoPeer`` with one end of a packet socket pair as
its standard input.  It answers each JSON request with a JSON reply after
``work(request["n"])``, like a minimal admission server, and exits when
the other end closes.  The driver side runs the same ``work`` on each
reply, so a round costs what a service call costs: two processes taking
turns on one CPU, system calls, wake-ups, JSON and interpreter work.
"""

import json
import socket
from typing import Dict, List


def work(n: int) -> float:
    """``n`` steps of fixed interpreter work: dict, float and list ops."""
    table: Dict[int, int] = {}
    acc = 0.0
    buf: List[float] = []
    for i in range(n):
        k = i & 127
        table[k] = table.get(k, 0) + 1
        acc += (i % 7) * 0.5
        buf.append(acc)
        if len(buf) > 32:
            buf.clear()
    return acc


def serve(sock: socket.socket) -> None:
    while True:
        data = sock.recv(65536)
        if not data:
            break
        request = json.loads(data)
        work(request["n"])
        sock.sendall(json.dumps({"ok": True, "id": request["id"],
                                 "echo": request}).encode())


if __name__ == "__main__":
    serve(socket.socket(fileno=0))
