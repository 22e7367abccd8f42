"""Set-up probe: import the CLI from the given source tree, print the clock.

Run as `python3 perfbench/probe.py <src>`. The parent reads time.monotonic()
before starting this process; the system-wide monotonic clock printed here
after the import gives the set-up time of one fresh process.
"""

import sys
import time
from pathlib import Path

src = Path(sys.argv[1]).resolve()
sys.path.insert(0, str(src))
import mixent.cli  # noqa: E402

done = time.monotonic()
if not Path(mixent.cli.__file__).resolve().is_relative_to(src):
    sys.exit(f"mixent imported from {mixent.cli.__file__}, not from {src}")
print(repr(done))
