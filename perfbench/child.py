"""Run one bridgestate command in this fresh process and record its costs.

Usage: child.py RESULT_JSON LAUNCH_MONOTONIC TRACE_PREFIX -- CLI_ARGS...

LAUNCH_MONOTONIC is ``time.monotonic()`` taken by the parent just before it
started this process (CLOCK_MONOTONIC is system-wide), so ``setup_s`` is the
time from launch until ``bridgestate.cli`` is imported.  TRACE_PREFIX is
``-`` for an untraced run; otherwise every layer is wrapped (see spans.py)
and each process writes ``TRACE_PREFIX.<pid>.json``.  An empty CLI_ARGS
only measures set-up.  The command's stdout goes wherever the parent
pointed this process's stdout.
"""

import sys
import time

import bridgestate.cli

IMPORTED = time.monotonic()

import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import traceback  # noqa: E402

import spans  # noqa: E402


def main() -> int:
    result_path, launch, trace_prefix, sep, *cli_args = sys.argv[1:]
    if sep != "--":
        raise SystemExit("usage: child.py RESULT LAUNCH TRACE_PREFIX -- ARGS")
    src = os.path.realpath(os.environ["PERFBENCH_SRC"])
    if not os.path.realpath(bridgestate.cli.__file__).startswith(src + os.sep):
        raise SystemExit(f"bridgestate imported from outside {src}")
    result = {"setup_s": IMPORTED - float(launch), "rc": None, "error": None}
    tracer = None
    if cli_args:
        if trace_prefix != "-":
            tracer = spans.Tracer(os.environ["PERFBENCH_RUN_ID"], trace_prefix)
            tracer.install()
        start = time.perf_counter()
        try:
            result["rc"] = bridgestate.cli.main(cli_args)
        except Exception:
            result["error"] = traceback.format_exc()
        sys.stdout.flush()
        result["body_s"] = time.perf_counter() - start
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    result["cpu_s"] = own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime
    result["peak_rss_kb"] = max(spans.own_peak_rss_kb(), kids.ru_maxrss)
    if tracer is not None:
        tracer.uninstall()
        tracer.write()
    with open(result_path, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
