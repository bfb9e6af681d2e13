"""Run the surgeaccess command line with process pools started by spawn.

Usage: python tests/spawn_cli.py run --data BUNDLE --out DIR --workers 2

Under fork, pool workers inherit the evaluation context; under spawn it is
pickled into each worker, so a run through this script checks that the
context pickles and scores the same. Spawned workers re-import this file,
hence the main guard.
"""

import multiprocessing
import sys

from surgeaccess import cli

if __name__ == "__main__":
    multiprocessing.set_start_method("spawn")
    sys.exit(cli.main(sys.argv[1:]))
