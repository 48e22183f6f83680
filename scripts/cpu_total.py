"""Total CPU time of one kolsys command, its forked workers included.

Run from anywhere, with the command's own arguments:

    python3 scripts/cpu_total.py verify --suite core --config CFG --out OUT

The command runs through `kolsys.cli.run` in this fresh interpreter, on the
kolsys of the checkout that holds this script (its `src/` comes first on
the import path).  One JSON line goes to stdout:

- `rc`: the command's exit code, which is also this script's;
- `wall_s`: wall time of the command, from after the import to its return;
- `self_cpu_s`: user + system time of this process over the command
  (`RUSAGE_SELF`);
- `children_cpu_s`: user + system time of the reaped children over the
  command (`RUSAGE_CHILDREN`); a command reaps every worker it forks before
  it returns, so this holds all of them;
- `total_cpu_s`: the sum of the two;
- `vm_hwm_mb`: this process's own peak resident set (`VmHWM` in
  `/proc/self/status`, Linux only, else null), import included and the
  workers' left out;
- `children_hwm_mb`: the peak resident set of the largest reaped child
  (`RUSAGE_CHILDREN` `ru_maxrss`, in kB on Linux).  It is a high-water
  mark over the life of the process, exec included, so it also counts
  children reaped before this script started, such as a launcher's
  helpers (about 3 MB under a pyenv shim).  A forked worker starts with
  the pages it shares with this process, so this counts them too.

Both peaks are in MB of 10^6 bytes, kB x 1024 / 1e6, as the benchmark's
`peak_rss_mb` reads `ru_maxrss`.

What the command prints goes to stderr, so stdout holds the JSON line alone.
"""

import contextlib
import json
import os
import resource
import sys
import time

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def cpu(who):
    usage = resource.getrusage(who)
    return usage.ru_utime + usage.ru_stime


def mb(kb):
    """Kilobytes of 1024 bytes in MB of 10^6 bytes."""
    return kb * 1024 / 1e6


def vm_hwm_mb():
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return mb(int(line.split()[1]))
    except OSError:
        pass
    return None


def main(argv):
    sys.path.insert(0, SRC)
    import kolsys.cli

    start = time.monotonic()
    self0, children0 = cpu(resource.RUSAGE_SELF), cpu(resource.RUSAGE_CHILDREN)
    with contextlib.redirect_stdout(sys.stderr):
        rc = kolsys.cli.run(argv)
    wall = time.monotonic() - start
    own = cpu(resource.RUSAGE_SELF) - self0
    children = cpu(resource.RUSAGE_CHILDREN) - children0
    children_hwm = mb(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    print(json.dumps({"rc": rc, "wall_s": wall, "self_cpu_s": own, "children_cpu_s": children,
                      "total_cpu_s": own + children, "vm_hwm_mb": vm_hwm_mb(),
                      "children_hwm_mb": children_hwm}))
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
