#!/usr/bin/env python3
"""The paper's headline demo: protecting an interactive task from a hog.

Reproduces the Figure 1 / Figure 10(a) experiment on the 'small' machine:
the interactive task (touch a data set, sleep, repeat) shares the machine
with MATVEC in each of its four versions, across a sweep of sleep times.
Response times are printed per sleep time, next to the dedicated-machine
baseline.

Run:  python examples/interactive_protection.py
"""

from repro.config import small
from repro.experiments.harness import interactive_alone, run_multiprogram
from repro.experiments.report import format_table


def main() -> None:
    scale = small()
    sleep_times = scale.figure_sleep_times_s[:5]

    rows = []
    for sleep in sleep_times:
        alone = interactive_alone(scale, sleep, sweeps=6)
        alone_ms = (
            sum(s.response_time for s in alone[1:]) / max(1, len(alone) - 1) * 1e3
        )
        row = [round(sleep, 3), round(alone_ms, 3)]
        for version in "OPRB":
            run = run_multiprogram(scale, "MATVEC", version, sleep_time_s=sleep)
            row.append(round(run.mean_response() * 1e3, 3))
        rows.append(row)

    print(
        format_table(
            ["sleep_s", "alone_ms", "O_ms", "P_ms", "R_ms", "B_ms"],
            rows,
            title=(
                "Interactive response time (ms) vs. sleep time, sharing the "
                "machine with MATVEC"
            ),
        )
    )
    print(
        "\nThe shape to look for (paper Figures 1 and 10(a)):\n"
        "  - alone: flat — the task always finds its pages resident;\n"
        "  - O: rises once sleeps exceed the clock hands' revolution time;\n"
        "  - P: rises at much shorter sleeps and to a higher level —\n"
        "       aggressive prefetching keeps the paging daemon sweeping;\n"
        "  - R and B: indistinguishable from running alone."
    )


if __name__ == "__main__":
    main()
