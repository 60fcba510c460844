"""One benchmark job in a fresh interpreter: run ``eisenzeta.cli.main``.

Usage: python3 perfbench/child.py SPEC.json

SPEC holds the source directory, the CLI argv, the name of the ``cli``
function whose return ends set-up, whether to trace, and where to write
the measurement.  The measurement file records the monotonic clock when
``main`` is called, when set-up ends and when ``main`` returns, the CLI
exit code, the peak resident memory and, when traced, the
tracer's export and whether every wrapper was removed afterwards.  The clock is
CLOCK_MONOTONIC, shared with the parent, which stamps the spawn time.
"""

import json
import os
import resource
import sys
import time

CLOCK = time.monotonic


def main() -> int:
    with open(sys.argv[1], encoding="utf-8") as fh:
        spec = json.load(fh)
    sys.path.insert(0, spec["src"])
    from eisenzeta import cli

    marks = {}
    boundary = spec["setup_boundary"]
    inner = getattr(cli, boundary)

    def marked(*args, **kwargs):
        result = inner(*args, **kwargs)
        if "setup_end" not in marks:
            marks["setup_end"] = CLOCK()
        return result

    out = {}
    patches = None
    tracer = None
    if spec["trace"]:
        sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
        import tracer as tracer_mod
        tracer = tracer_mod.Tracer(CLOCK)
        patches = tracer_mod.install(tracer)
        inner = getattr(cli, boundary)
    setattr(cli, boundary, marked)
    start = CLOCK()
    try:
        rc = cli.main(spec["argv"])
    except SystemExit as exc:
        rc = exc.code if isinstance(exc.code, int) else 1
    end = CLOCK()
    setattr(cli, boundary, inner)
    if tracer is not None:
        out["restored"] = tracer_mod.uninstall(patches)
        out["trace"] = tracer.export()
    out.update(rc=rc, start=start, setup_end=marks.get("setup_end"), end=end,
               rss_kib=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
    with open(spec["out"], "w", encoding="utf-8") as fh:
        json.dump(out, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
