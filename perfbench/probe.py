"""Host-speed probe: reference readings on one core while a session runs.

The serve workload's daemon runs for the whole measured time, so it has
no gaps between passes in which to take reference readings.  One probe
per core runs beside it instead: it takes a reading
(``common.reference_ms``) every ``PERIOD`` seconds until its stdin
closes, then prints the readings as one JSON list.  The probe's own CPU
time is not the daemon's, and it costs the same in every run.

Usage::

    python3 probe.py CORE
"""

from __future__ import annotations

import json
import os
import select
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench.common import reference_ms  # noqa: E402

#: Seconds between readings; a reading takes about 60 ms.
PERIOD = 1.0


def main(argv: list[str]) -> int:
    os.sched_setaffinity(0, {int(argv[0])})
    readings = []
    while True:
        readings.append(reference_ms())
        ready, _, _ = select.select([sys.stdin], [], [], PERIOD)
        if ready:  # stdin closed (or written to): the session is over
            break
    print(json.dumps(readings))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
