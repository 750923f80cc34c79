"""Set-up of one benchmark workload in a fresh interpreter.

Usage: python3 setup_probe.py <workload> <seed> <work dir>

Imports fsrv, generates the workload's inputs and loads its table seeds,
sampling the host speed meanwhile (hostspeed.py). When ready it prints
time.monotonic(), the seconds spent sampling, and the mean host speed
relative to the reference speed. The caller subtracts its own monotonic
reading taken before the spawn and the sampling time, and scales the rest.
"""

import sys
import time
from pathlib import Path

here = Path(__file__).resolve().parent
sys.path.insert(0, str(here))

from hostspeed import HostSpeed  # noqa: E402

t0 = time.monotonic()
speed = HostSpeed()
speed.start()
start_s = time.monotonic() - t0

import workloads  # noqa: E402

fsrv = workloads.import_fsrv(here.parent)
workload = workloads.build(sys.argv[1], int(sys.argv[2]), Path(sys.argv[3]))
for path in workload.tables:
    fsrv.parse_seed_spec(f"table:{path}")
ready = time.monotonic()
speed.stop()
print(repr(ready), repr(start_s + speed.handler_s), repr(speed.ratio()), flush=True)
