"""Child process of the timed CLI runs: the ``ptfollow`` console script with clock stamps.

    python3 perfbench/cli_child.py STAMP_FILE [ptfollow arguments ...]

Runs ``ptfollow.cli.main`` on the arguments, as the installed console script
does, and writes to STAMP_FILE, as native 64-bit integers, this process's
peak resident set size in kB and then the ``time.perf_counter_ns`` stamps
taken when this script starts, whenever a module is about to be imported,
after every ``TimeSeriesLog.append`` (one call per tick) and when ``main``
returns.  The clock is system-wide, so the parent puts its own stamps at
spawn and at exit around these.

The peak comes from ``VmHWM`` in ``/proc/self/status``, which covers only
this program's address space.  The parent cannot use its child's
``ru_maxrss`` for it: that also counts the address space the child was
forked from, that is the parent's own, which is the larger of the two.

The append hook is installed when ``ptfollow.runlog`` is first imported, so
the CLI imports the same modules at the same points as without it.  If that
module or method is gone, the run has no tick stamps.
"""

import sys
import time
from array import array

STAMPS = [time.perf_counter_ns()]


def hook_append(cls, stamps: list):
    """Wrap ``cls.append`` to add a clock stamp to ``stamps`` after every
    call.  Returns a function that undoes it, or None if ``cls`` defines no
    ``append`` of its own."""
    original = vars(cls).get("append")
    if original is None:
        return None
    clock = time.perf_counter_ns
    stamp = stamps.append

    def append(self, values):
        original(self, values)
        stamp(clock())

    cls.append = append
    return lambda: setattr(cls, "append", original)


class StampImports:
    """Meta path finder that stamps the clock at every import it is asked
    about, leaves finding each module to the finders after it, but for
    ``ptfollow.runlog``: that one it finds on the path as they would, and
    hooks its ``TimeSeriesLog.append`` once the module has been executed."""

    def find_spec(self, name, path, target=None):
        STAMPS.append(time.perf_counter_ns())
        if name != "ptfollow.runlog":
            return None
        from importlib.machinery import PathFinder

        spec = PathFinder.find_spec(name, path)
        if spec is None or not hasattr(spec.loader, "exec_module"):
            return spec
        exec_module = spec.loader.exec_module

        def exec_and_hook(module):
            exec_module(module)
            cls = getattr(module, "TimeSeriesLog", None)
            if isinstance(cls, type):
                hook_append(cls, STAMPS)

        spec.loader.exec_module = exec_and_hook
        return spec


def peak_rss_kb() -> int:
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    return 0


def main() -> int:
    stamp_file = sys.argv[1]
    sys.argv[1:] = sys.argv[2:]
    sys.meta_path.insert(0, StampImports())
    from ptfollow.cli import main as cli_main

    try:
        return cli_main()
    finally:
        STAMPS.append(time.perf_counter_ns())
        with open(stamp_file, "wb") as fh:
            array("q", [peak_rss_kb(), *STAMPS]).tofile(fh)


if __name__ == "__main__":
    sys.exit(main())
