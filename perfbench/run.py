"""The repository's benchmark: one command, three workloads, checked outputs.

Run from the root of a checkout::

    python3 perfbench/run.py --workload session-faithful --seed 1 --seconds 36 --trace 0
    python3 perfbench/run.py --workload fig2-smoke --seed 1 --seconds 36 --trace 1
    python3 perfbench/run.py --workload service-mixed --seed 1 --seconds 36 --trace 0 \
        --out results.jsonl
    python3 perfbench/run.py --compare parent.jsonl change.jsonl

Workloads (one process each; see each ``wl_*.py`` for why it exists):

``session-faithful``
    Uncapped HATP sessions (``native`` kernels) on the 600-node NetHEPT
    proxy, k=50: the paper's stopping conditions decide every node.
``fig2-smoke``
    The shipped ``reproduce_figure2`` at the SMOKE preset on all four proxies,
    default backends: capped engines, small batches, baselines, MC scoring.
``service-mixed``
    ``repro-experiments serve`` on the 5000-node Epinions proxy in its own
    process, driven open-loop at a fixed rate and then closed-loop, with
    hot queries and 32 residual states competing for the collection cache.

End-to-end metrics (``--trace 0``), each over the workload's own unit:

``setup_s``         median of several set-ups in the run (graphs, instance
                    and kernel warm-up; for the service, boot until healthy
                    plus the first warm collection)
``work_s``          mean wall time of one unit of work: an HATP session,
                    a four-panel figure, or 1000 closed-loop service queries
``latency_p50_ms``  latency of the workload's answers.  Service: p50 and p99
``latency_p99_ms``  of the open-loop queries, each timed from its due send
                    time (a failed query counts as slower than any limit).
                    Session and figure, whose units repeat the same
                    answers (one decision per target node, one panel per
                    dataset): p50 and p99 over answers of each answer's
                    mean latency across the run's units
``peak_rss_mib``    peak RSS of the process doing the work (the server for
                    the service)

The names the workloads use for these (``session_s``, ``figure_s``,
``closed_qps``, ``failed_frac``) are printed above the result line, with
the run's fingerprint.  ``--trace 1`` runs the same workload with timing
wrappers around every layer's public entry points and reports the
per-layer metrics of ``metrics.py`` instead.  The last line of standard
output is the JSON result; the exit status is 1 when an output check
failed and 2 when the checkout has no library sources.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import sys
from typing import List, Optional, Sequence

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from common import BUILD_DIR, fingerprint, prepare_process, result_line  # noqa: E402

WORKLOADS = {
    "session-faithful": "wl_session",
    "fig2-smoke": "wl_fig2",
    "service-mixed": "wl_service",
}


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--out", default=None, help="append the full record (with fingerprint) to this JSONL file"
    )
    parser.add_argument(
        "--compare",
        nargs=2,
        metavar=("PARENT", "CHANGE"),
        help="compare two JSONL result sets written with --out",
    )
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _parser().parse_args(argv)
    if args.compare:
        from compare import compare_files

        return compare_files(*args.compare)
    if not args.workload:
        _parser().error("--workload is required")
    prepare_process()
    from metrics import END_TO_END, PER_LAYER

    module = importlib.import_module(WORKLOADS[args.workload])
    outcome = module.run(args.seed, args.seconds, bool(args.trace))
    names: List[str] = list(PER_LAYER if args.trace else END_TO_END)
    units = dict(END_TO_END, **PER_LAYER)
    fp = fingerprint(
        args.seed, outcome.extra.pop("backend"), outcome.extra.pop("mc_backend")
    )
    failed_frac = outcome.failed / outcome.attempted if outcome.attempted else 1.0
    print(f"fingerprint: {json.dumps(fp)}")
    print(f"workload: {args.workload} trace={args.trace} valid={outcome.valid}")
    for key, value in outcome.extra.items():
        print(f"  {key} = {value}")
    print(f"  failed_frac = {failed_frac} ({outcome.failed}/{outcome.attempted})")
    for name in names:
        print(f"  {name} = {outcome.metrics.get(name, 0.0):.6g} {units[name]}")
    for problem in outcome.problems:
        print(f"  FAILED: {problem}")
    if outcome.spans:
        path = os.path.join(BUILD_DIR, "spans", f"{args.workload}-seed{args.seed}.json")
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as handle:
            json.dump(outcome.spans, handle)
        print(f"  spans written to {path}")
    line = result_line(outcome, names, units)
    if args.out:
        record = dict(
            json.loads(line), workload=args.workload, trace=args.trace, fingerprint=fp
        )
        with open(args.out, "a") as handle:
            handle.write(json.dumps(record) + "\n")
    print(line, flush=True)
    return 0 if outcome.correct else 1


if __name__ == "__main__":
    sys.exit(main())
