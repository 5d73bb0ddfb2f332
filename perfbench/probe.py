"""Set-up probe: a fresh interpreter imports mesorate, loads the workload's
config and parses its grid, then prints `ready`.  run.py times it from
process start to that line.

Usage: python3 perfbench/probe.py CONFIG_OR_EMPTY GRID_OR_EMPTY
"""

import sys

import mesorate
from mesorate.config import load_config, parse_grid

if sys.argv[1]:
    load_config(sys.argv[1])
if sys.argv[2]:
    parse_grid(sys.argv[2])
print("ready", mesorate.__version__, flush=True)
