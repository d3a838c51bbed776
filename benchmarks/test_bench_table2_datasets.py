"""Table II — dataset statistics of the four proxies."""

from __future__ import annotations

from benchmarks.conftest import BENCH_SEED, OUTPUT_DIR, run_once
from repro.experiments.reporting import write_rows_csv
from repro.experiments.table2 import format_table2, reproduce_table2


def test_bench_table2_dataset_statistics(benchmark, bench_scale):
    rows = run_once(
        benchmark,
        reproduce_table2,
        bench_scale,
        dataset_names=("nethept", "epinions", "dblp", "livejournal"),
        random_state=BENCH_SEED,
    )
    write_rows_csv(rows, OUTPUT_DIR / "table2.csv")
    print()
    print(format_table2(rows))

    # structural expectations from Table II: two undirected collaboration
    # networks, two directed social networks, LiveJournal densest.
    by_name = {row["dataset"]: row for row in rows}
    assert by_name["NetHEPT"]["proxy_type"] == "undirected"
    assert by_name["DBLP"]["proxy_type"] == "undirected"
    assert by_name["Epinions"]["proxy_type"] == "directed"
    assert by_name["LiveJournal"]["proxy_type"] == "directed"
    assert by_name["LiveJournal"]["proxy_avg_deg"] == max(
        row["proxy_avg_deg"] for row in rows
    )
    for row in rows:
        assert row["proxy_m"] > 0
