"""Child process of the cold_cli workload: a cold `loopcool.cli.main` run.

    python3 perfbench/cli_child.py RECORD TRACE CLI-ARGS...

Untraced (TRACE = 0) it samples machine speed (speed.py) and times every
`optimize.evaluate` call; traced (TRACE = 1) it installs the span
wrappers instead.  Then it runs `loopcool.cli.main(CLI-ARGS)`, writes a
JSON record to RECORD (import time, evaluation intervals, speed samples or
spans, peak resident memory) and exits with the CLI's exit code.
"""

from time import perf_counter

T0 = perf_counter()

import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

import env  # noqa: E402  (pins BLAS/OpenMP threads before numpy loads)
import speed  # noqa: E402
import spans  # noqa: E402

TRACED = sys.argv[2] == "1"
PROBE = None if TRACED else speed.SpeedProbe()
if PROBE is not None:
    PROBE.start()

env.use_checkout_source()

import loopcool.cli as cli  # noqa: E402
from loopcool import optimize  # noqa: E402

T_IMPORTED = perf_counter()


def main() -> int:
    record_path, argv = sys.argv[1], sys.argv[3:]
    env.check_imported(cli)
    record = {"t0": T0, "t_imported": T_IMPORTED}
    if TRACED:
        tracer = spans.Tracer()
        tracer.install(with_cli=True)
        rc = cli.main(argv)
        tracer.uninstall()
        record["spans"] = tracer.spans
        record["evals"] = [(start, end) for name, start, end, _, _ in tracer.spans
                           if name == "optimize.evaluate"]
    else:
        timer = spans.CallTimer(optimize, "evaluate")
        rc = cli.main(argv)
        timer.uninstall()
        PROBE.stop()
        record["evals"] = timer.intervals
        record["speed"] = PROBE.record()
    record["rc"] = rc
    record["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    with open(record_path, "w") as fh:
        json.dump(record, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main())
