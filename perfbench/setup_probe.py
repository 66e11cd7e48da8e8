"""Set-up probe: a fresh interpreter imports inertdrift and parses a config.

Usage: ``python3 perfbench/setup_probe.py SRC_DIR CONFIG``.  Prints one JSON
line with the import and config-load times and the CLOCK_MONOTONIC reading
at which the process was ready to step, which the parent subtracts from its
own reading taken just before it started this process.
"""

import sys
import time

CLOCK = time.CLOCK_MONOTONIC


def main(src, config):
    sys.path.insert(0, src)
    start = time.clock_gettime(CLOCK)
    import inertdrift  # noqa: F401
    from inertdrift import cli

    imported = time.clock_gettime(CLOCK)
    cli.load_run_config(config)
    ready = time.clock_gettime(CLOCK)
    print('{"import_s": %r, "load_config_s": %r, "ready": %r}'
          % (imported - start, ready - imported, ready))


if __name__ == "__main__":
    main(*sys.argv[1:3])
