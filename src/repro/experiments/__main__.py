"""Command-line entry point for the experiment harness.

Usage examples::

    python -m repro.experiments table2
    python -m repro.experiments fig2 --scale smoke --datasets nethept epinions
    python -m repro.experiments fig4b --dataset epinions --csv out/fig4b.csv
    python -m repro.experiments fig7 --scale small
    python -m repro.experiments fig2 --journal results/fig2.journal.jsonl
    python -m repro.experiments fig2 --resume     # continue an interrupted run
    python -m repro.experiments convert-graph soc-LiveJournal1.txt.gz lj.rgx
    python -m repro.experiments serve --dataset nethept --port 8321
    python -m repro.experiments loadgen --self-serve --queries 200

Each subcommand regenerates one table/figure of the paper, prints the series
as a text table, and optionally writes the long-format rows to a CSV file.
``--journal``/``--resume`` checkpoint every data point to a JSONL file so an
interrupted sweep can continue where it stopped (``docs/robustness.md``).
``serve`` runs the long-lived seeding service and ``loadgen`` measures it
(both have their own ``--help``; see ``docs/service.md``).
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from repro.experiments import (
    epsilon_sensitivity,
    format_figure,
    format_table2,
    get_scale,
    reproduce_figure2,
    reproduce_figure3,
    reproduce_figure4a,
    reproduce_figure5,
    reproduce_figure6,
    reproduce_figure7,
    reproduce_figure8,
    reproduce_table2,
    sample_size_scaling,
)
from repro.experiments.journal import ResultJournal, journal_path
from repro.experiments.reporting import collect_figure_rows, write_rows_csv
from repro.utils.exceptions import ConfigurationError

EXPERIMENTS = (
    "table2",
    "fig2",
    "fig3",
    "fig4a",
    "fig4b",
    "fig5",
    "fig6",
    "fig7",
    "fig8",
    "fig9",
)

#: Subcommands that support --journal / --resume checkpointing.
JOURNALED_EXPERIMENTS = frozenset(EXPERIMENTS) - {"table2"}


def _backend_choices() -> list:
    """Every registered kernel backend plus ``auto`` (for --help listings)."""
    from repro import kernels

    return list(kernels.registered_backends()) + [kernels.AUTO]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Regenerate the paper's tables and figures.",
    )
    parser.add_argument("experiment", choices=EXPERIMENTS, help="which artefact to regenerate")
    parser.add_argument("--scale", default="smoke", choices=["smoke", "small", "paper"])
    parser.add_argument("--datasets", nargs="+", default=None, help="restrict to these datasets")
    parser.add_argument("--dataset", default=None, help="single-dataset experiments (fig4a/4b/9)")
    parser.add_argument("--seed", type=int, default=2020, help="master random seed")
    parser.add_argument(
        "--jobs",
        type=int,
        default=None,
        help="threads for RR-set generation (-1 = all cores; default: the "
        "REPRO_JOBS environment variable, else all usable cores; results do "
        "not depend on it)",
    )
    parser.add_argument(
        "--eval-jobs",
        type=int,
        default=None,
        help="worker processes for whole-session evaluation: complete "
        "adaptive runs fan out across realizations (-1 = all cores; "
        "outcomes are independent of the worker count; default: the "
        "REPRO_EVAL_JOBS environment variable, else 1)",
    )
    parser.add_argument(
        "--backend",
        choices=_backend_choices(),
        default=None,
        help="RR-sampling kernel backend (default: the REPRO_BACKEND "
        "environment variable, else 'auto', which picks 'native' where it "
        "builds and 'vectorized' otherwise; every backend samples "
        "identical RR sets)",
    )
    parser.add_argument(
        "--journal",
        default=None,
        metavar="PATH",
        help="checkpoint each completed data point to this JSONL file "
        "(default with --resume: results/<experiment>.journal.jsonl); "
        "every point has its own spawned RNG stream, so interrupted "
        "sweeps resume bit-for-bit and results match a run without it",
    )
    parser.add_argument(
        "--resume",
        action="store_true",
        help="replay completed data points from the journal and compute "
        "only the missing ones (implies --journal)",
    )
    parser.add_argument("--csv", default=None, help="write long-format rows to this CSV file")
    parser.add_argument(
        "--plot", action="store_true", help="also render each series as an ASCII chart"
    )
    parser.add_argument(
        "--log-y", action="store_true", help="use a logarithmic y axis for --plot"
    )
    return parser


def resolve_journal(args: argparse.Namespace) -> Optional[ResultJournal]:
    """Build the :class:`ResultJournal` the flags ask for (or ``None``).

    ``--resume`` without ``--journal`` uses the default per-experiment
    location ``results/<experiment>.journal.jsonl``.
    """
    if args.journal is None and not args.resume:
        return None
    if args.experiment not in JOURNALED_EXPERIMENTS:
        raise ConfigurationError(
            f"--journal/--resume is not supported for {args.experiment!r} "
            f"(supported: {', '.join(sorted(JOURNALED_EXPERIMENTS))})"
        )
    path = args.journal if args.journal is not None else journal_path(args.experiment)
    return ResultJournal(path, resume=args.resume)


def run_experiment(args: argparse.Namespace, journal: Optional[ResultJournal] = None):
    """Dispatch to the requested driver and return its result object."""
    scale = get_scale(args.scale)
    if args.jobs is not None:
        scale = scale.with_engine(n_jobs=args.jobs)
    if args.eval_jobs is not None:
        scale = scale.with_engine(eval_jobs=args.eval_jobs)
    if args.backend is not None:
        scale = scale.with_engine(backend=args.backend)
    seed = args.seed
    if args.experiment == "table2":
        return reproduce_table2(scale, dataset_names=args.datasets, random_state=seed)
    if args.experiment == "fig2":
        return reproduce_figure2(
            scale, datasets=args.datasets, random_state=seed, journal=journal
        )
    if args.experiment == "fig3":
        return reproduce_figure3(
            scale, datasets=args.datasets, random_state=seed, journal=journal
        )
    if args.experiment == "fig4a":
        return reproduce_figure4a(
            scale, dataset=args.dataset or "epinions", random_state=seed, journal=journal
        )
    if args.experiment == "fig4b":
        return epsilon_sensitivity(
            dataset=args.dataset or "epinions",
            scale=scale,
            random_state=seed,
            journal=journal,
        )
    if args.experiment == "fig5":
        return reproduce_figure5(
            scale, datasets=args.datasets, random_state=seed, journal=journal
        )
    if args.experiment == "fig6":
        return reproduce_figure6(
            scale, datasets=args.datasets, random_state=seed, journal=journal
        )
    if args.experiment == "fig7":
        return reproduce_figure7(
            scale, dataset=args.dataset or "livejournal", random_state=seed, journal=journal
        )
    if args.experiment == "fig8":
        return reproduce_figure8(
            scale, dataset=args.dataset or "livejournal", random_state=seed, journal=journal
        )
    if args.experiment == "fig9":
        return sample_size_scaling(
            dataset=args.dataset or "epinions",
            scale=scale,
            random_state=seed,
            journal=journal,
        )
    raise ValueError(f"unhandled experiment {args.experiment!r}")  # pragma: no cover


def run_convert_graph(argv: Sequence[str]) -> int:
    """``convert-graph``: stream a SNAP edge list into a binary ``.rgx`` file."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments convert-graph",
        description="Convert a SNAP-style edge list (optionally .gz) to the "
        "binary .rgx CSR format, which loads O(header) via mmap.",
    )
    parser.add_argument("source", help="edge-list file: 'u v [p]' per line")
    parser.add_argument("destination", help="output .rgx path")
    parser.add_argument(
        "--undirected",
        action="store_true",
        help="the file lists undirected edges; materialise both directions",
    )
    parser.add_argument(
        "--no-weighted-cascade",
        action="store_true",
        help="when the file has no probability column, use --probability "
        "for every edge instead of weighted cascade p(u,v)=1/indeg(v)",
    )
    parser.add_argument(
        "--probability",
        type=float,
        default=1.0,
        help="uniform probability used with --no-weighted-cascade (default 1.0)",
    )
    parser.add_argument("--name", default=None, help="graph name stored in the header")
    parser.add_argument(
        "--verify",
        action="store_true",
        help="after writing, re-read every section and check it against its "
        "stored CRC32 (one full pass over the output file)",
    )
    args = parser.parse_args(list(argv))

    from repro.graphs.binary import convert_edge_list, verify_rgx

    n, m = convert_edge_list(
        args.source,
        args.destination,
        directed=not args.undirected,
        apply_weighted_cascade=not args.no_weighted_cascade,
        default_probability=args.probability,
        name=args.name,
    )
    import os

    size = os.path.getsize(args.destination)
    print(
        f"converted {args.source} -> {args.destination}: "
        f"n={n} m={m} ({size} bytes)"
    )
    if args.verify:
        checked = verify_rgx(args.destination)
        print(f"verified {len(checked)} section checksums: ok")
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    # The service subcommands carry their own flag sets; dispatch before
    # the figure parser rejects them.
    if argv and argv[0] == "serve":
        from repro.service.cli import run_serve

        return run_serve(argv[1:])
    if argv and argv[0] == "loadgen":
        from repro.service.cli import run_loadgen

        return run_loadgen(argv[1:])
    if argv and argv[0] == "convert-graph":
        return run_convert_graph(argv[1:])
    args = _build_parser().parse_args(argv)
    journal = resolve_journal(args)
    try:
        result = run_experiment(args, journal=journal)
    finally:
        if journal is not None:
            journal.close()

    if args.experiment == "table2":
        print(format_table2(result))
        rows = result
    else:
        print(format_figure(result))
        rows = collect_figure_rows(result)
        if args.plot:
            from repro.experiments.plotting import ascii_chart
            from repro.experiments.results import SeriesResult

            panels = [result] if isinstance(result, SeriesResult) else list(result.values())
            for panel in panels:
                print()
                print(ascii_chart(panel, log_y=args.log_y))

    if args.csv:
        write_rows_csv(rows, args.csv)
        print(f"\nwrote {len(rows)} rows to {args.csv}")
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess in tests
    sys.exit(main())
