"""Benchmark worker: runs glioseg CLI stages inside one long-lived process.

run.py starts it with the repository's ``src`` on PYTHONPATH and talks to it
over stdin/stdout, one JSON object per line:

    worker -> {"ready": true}             after imports and config load
                                          (and network builds for netkit)
    run.py -> {"case": ID, "stages": [[NAME, ARGV], ...], "trace": 0|1}
    worker -> {"case": ID, "stages": [{"name", "rc", "seconds", "stdout"}]}
    run.py -> {"quit": SPANS_PATH or null}
    worker -> {"peak_rss_mib": X}         then exits

Each stage is one ``glioseg.cli.main(ARGV)`` call, timed with
``perf_counter``. With "trace": 1 the layer wrappers of spans.py are
installed for that case only and removed afterwards. Everything the CLI
prints goes to a buffer; its logs go to this process's stderr.

Closing its stdin without a quit request ends it right after the ready line;
run.py does that to time set-up.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import sys
from time import perf_counter

import spans


def _run_stage(main, argv: list[str]) -> tuple[int | None, float, str]:
    out = io.StringIO()
    start = perf_counter()
    try:
        with contextlib.redirect_stdout(out):
            rc = main(argv)
    except SystemExit as exc:  # argparse usage errors
        rc = exc.code if isinstance(exc.code, int) else 2
    except Exception as exc:  # noqa: BLE001 - a crashing stage is a failed operation
        print(f"stage {argv[0]} raised {exc!r}", file=sys.stderr)
        rc = None
    return rc, perf_counter() - start, out.getvalue()


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--netkit", action="store_true", help="also build the three networks")
    args = parser.parse_args()

    from glioseg.cli import main as cli_main
    from glioseg.config import load_config

    load_config(None)
    if args.netkit:
        from glioseg.cli import ARCHITECTURES

        for build in ARCHITECTURES.values():
            build()
    proto = sys.stdout
    proto.write(json.dumps({"ready": True}) + "\n")
    proto.flush()

    tracer = spans.Tracer()
    for line in sys.stdin:
        request = json.loads(line)
        if "quit" in request:
            if request["quit"]:
                tracer.dump(request["quit"])
            peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            proto.write(json.dumps({"peak_rss_mib": peak}) + "\n")
            proto.flush()
            return 0
        traced = bool(request["trace"])
        tracer.case = request["case"]
        if traced:
            spans.install(tracer)
        stages = []

        def span(name):
            return tracer.span(name) if traced else contextlib.nullcontext()

        try:
            with span("case"):
                for name, argv in request["stages"]:
                    with span(f"cli.{name}"):
                        rc, seconds, text = _run_stage(cli_main, argv)
                    stages.append({"name": name, "rc": rc, "seconds": seconds, "stdout": text})
        finally:
            tracer.uninstall()
        proto.write(json.dumps({"case": request["case"], "stages": stages}) + "\n")
        proto.flush()
    return 1  # stdin closed without a quit request


if __name__ == "__main__":
    sys.exit(main())
