"""Run one kolsys CLI command in a fresh interpreter and report its timings.

Usage: python3 perfbench/child.py RESULT_JSON SPAWN_CLOCK [CLI ARGS...]

SPAWN_CLOCK is CLOCK_MONOTONIC as read by the parent just before it spawned
this process, so `imported - SPAWN_CLOCK` is the set-up a user pays before
the command starts.  With no CLI arguments the child only imports the
package, which the parent uses as a warm-up.  The exit code is the
command's.
"""

import json
import sys
import time


def clock():
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def main():
    result_path, spawned = sys.argv[1], float(sys.argv[2])
    import kolsys.cli

    imported = clock()
    cpu0 = time.process_time()
    rc = kolsys.cli.run(sys.argv[3:]) if len(sys.argv) > 3 else 0
    done = clock()
    cpu1 = time.process_time()
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump({"rc": rc, "setup_s": imported - spawned, "command_s": done - imported,
                   "cpu_s": cpu1 - cpu0, "module": kolsys.cli.__file__}, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main())
