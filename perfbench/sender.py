"""Open-loop NetFlow v5 sender: the serve workload's traffic source.

Runs as its own process so that its CPU is not charged to the daemon.
Datagrams go out in bursts of ``BURST``, as an exporter flushing its
cache does; burst ``b`` is due at ``t0 + records_before_b / pps`` on
the system-wide monotonic clock, whatever the receiver does: a stalled
daemon meets a backlog, not a slower sender.  Prints one JSON line:
records and datagrams sent, and how late the bursts ran.

Usage::

    python3 sender.py DATAGRAMS.npz HOST PORT PPS T0
"""

from __future__ import annotations

import json
import socket
import sys
import time

import numpy as np

HEADER_BYTES = 24
RECORD_BYTES = 48

#: Datagrams per burst (300 records when full).
BURST = 10


def main(argv: list[str]) -> int:
    path, host, port, pps, t0 = argv
    pps = float(pps)
    t0 = float(t0)
    with np.load(path) as data:
        payload = data["payload"].tobytes()
        offsets = data["offsets"].tolist()
    sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
    address = (host, int(port))
    lags = []
    sent = 0
    try:
        for k in range(len(offsets) - 1):
            datagram = payload[offsets[k] : offsets[k + 1]]
            if k % BURST == 0:
                due = t0 + sent / pps
                delay = due - time.monotonic()
                if delay > 0:
                    time.sleep(delay)
                lags.append(time.monotonic() - due)
            sock.sendto(datagram, address)
            sent += (len(datagram) - HEADER_BYTES) // RECORD_BYTES
    finally:
        sock.close()
    lags.sort()
    print(
        json.dumps(
            {
                "records": sent,
                "datagrams": len(offsets) - 1,
                "lag_ms_p99": lags[int(0.99 * (len(lags) - 1))] * 1e3 if lags else 0.0,
                "lag_ms_max": lags[-1] * 1e3 if lags else 0.0,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
