"""Time serlink's set-up in a fresh process: import plus first calibration.

    python3 bench/setup_probe.py

Run from the root of a serlink checkout.  Prints one JSON line.  Nothing
is imported before the clock starts, so numpy and scipy imports count.
"""

import time

t0 = time.perf_counter()

import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402

sys.path.insert(0, os.path.abspath("src"))
import serlink  # noqa: E402

t1 = time.perf_counter()
serlink.phy.pole_for_length(2.0)
t2 = time.perf_counter()

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from child import REF_REP_S, host_speed  # noqa: E402

speed = host_speed(0.25 * (t2 - t0))
print(json.dumps({"setup_s": (t2 - t0) * REF_REP_S / speed, "host_setup_s": t2 - t0,
                  "import_s": t1 - t0, "calibration_s": t2 - t1,
                  "serlink": serlink.__file__}))
