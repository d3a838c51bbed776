"""Launch ``repro-experiments serve`` in this process, optionally traced.

Usage (the ``service-mixed`` workload starts it)::

    python3 perfbench/serve.py [--trace-out SPANS.json] -- <serve arguments>

With ``--trace-out`` the span wrappers of ``spans.py`` are installed
before the server starts, and the spans — plus each query's batcher
queue wait and each executed batch's size — are written to the file
once the server has shut down.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from common import prepare_process  # noqa: E402


class QueueWaits:
    """Observers pairing each batcher submission with its batch's start."""

    def __init__(self) -> None:
        self.exec_start = {}
        self.waits_ms = []
        self.batch_sizes = []

    def on_execute(self, args, result, span) -> None:
        requests = args[1]
        self.batch_sizes.append(len(requests))
        for request in requests:
            self.exec_start[id(request)] = span.start

    def on_submit(self, args, result, span) -> None:
        start = self.exec_start.pop(id(args[1]), None)
        if start is not None:
            self.waits_ms.append((start - span.start) * 1000.0)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--trace-out", default=None)
    parser.add_argument("serve_args", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    serve_args = [a for a in args.serve_args if a != "--"]
    prepare_process()
    tracer = waits = None
    if args.trace_out:
        from spans import Tracer

        tracer = Tracer().install()
        waits = QueueWaits()
        tracer.observers["service.state"] = waits.on_execute
        tracer.observers["service.batcher"] = waits.on_submit
    from repro.service.cli import run_serve

    try:
        return run_serve(serve_args)
    finally:
        if tracer is not None:
            tracer.uninstall()
            with open(args.trace_out, "w") as handle:
                json.dump(
                    {
                        "spans": tracer.dump(),
                        "queue_waits_ms": waits.waits_ms,
                        "batch_sizes": waits.batch_sizes,
                    },
                    handle,
                )


if __name__ == "__main__":
    sys.exit(main())
