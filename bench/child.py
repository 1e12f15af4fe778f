"""Run one normrisk CLI command in this fresh interpreter and report its cost.

    python3 bench/child.py [--spans FILE] -- <normrisk arguments>

The command writes its output to stdout as the CLI always does.  After it
returns, one last stderr line ``BENCH {json}`` gives the monotonic clock
reading when the package was imported and ``normrisk.cli.main`` was ready,
the seconds spent inside ``main``, its exit code and the peak resident set
of this process.  With ``--spans`` the public functions of every module are
traced (see tracer.py) and the spans are written to FILE.
"""

import os
import sys
import time


def main() -> int:
    args = sys.argv[1:]
    spans_path = None
    if args[:1] == ["--spans"]:
        spans_path, args = args[1], args[2:]
    if args[:1] != ["--"]:
        print("usage: child.py [--spans FILE] -- <normrisk arguments>", file=sys.stderr)
        return 2
    argv = args[1:]

    here = os.path.dirname(os.path.abspath(__file__))
    sys.path.insert(0, os.path.join(os.path.dirname(here), "src"))
    import normrisk.cli as cli

    ready = time.monotonic()
    tracer = None
    if spans_path is not None:
        sys.path.insert(0, here)
        import tracer as tracing

        tracer = tracing.Tracer()
        tracer.install()
    start = time.monotonic()
    code = cli.main(argv)
    sys.stdout.flush()
    main_s = time.monotonic() - start
    if tracer is not None:
        tracer.dump(spans_path)

    import json
    import resource

    report = {
        "ready": ready,
        "main_s": main_s,
        "exit": code,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    print("BENCH " + json.dumps(report), file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
