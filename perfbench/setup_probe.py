"""One set-up sample: import dsfq and validate a workload's generated configs.

Prints ``time.monotonic()`` when done; ``run.py`` subtracts the moment it
spawned this interpreter, so the sample spans process start to ready.
"""

from __future__ import annotations

import common  # first: pins the BLAS thread pools before numpy loads

import argparse
import time

from run import set_up

if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args()
    set_up(args.workload, args.seed)
    print(time.monotonic())
