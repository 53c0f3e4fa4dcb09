#!/usr/bin/env python
"""How platform costs decide the protocol/granularity question.

The paper's conclusions are prefixed "for our applications and
platform" for a reason: the best combination is a function of the cost
ratios.  This study sweeps two of them on LU under SC and watches the
granularity preference move:

* make access faults expensive (toward all-software SVM) and coarse
  blocks win harder — fewer faults matter more;
* make network bytes expensive and fine blocks claw back — coarse
  blocks move 64x the data per miss.

Run::

    python examples/sensitivity_study.py [--scale tiny|default]
"""

import argparse

from repro.harness.sensitivity import granularity_preference, sweep_parameter

BAR = 40


def show(title, points, ratios):
    print(f"\n{title}")
    print(f"{'cost':>12s} {'sp@64':>7s} {'sp@4096':>8s} {'4096/64':>8s}")
    for p, r in zip(points, ratios):
        bar = "#" * int(round(BAR * min(r, 3.0) / 3.0))
        print(f"{p.value:12.4g} {p.speedups[64]:7.2f} "
              f"{p.speedups[4096]:8.2f} {r:8.2f} |{bar}")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--scale", default="default", choices=["tiny", "default"])
    args = ap.parse_args()

    points = sweep_parameter(
        app="lu", field="fault_exception_us", multipliers=[1, 4, 16, 64],
        protocol="sc", granularities=[64, 4096], scale=args.scale,
    )
    show("Access-fault cost sweep (5us Typhoon-0 -> 320us worse-than-SVM):",
         points, granularity_preference(points, 64, 4096))

    points = sweep_parameter(
        app="lu", field="net_per_byte_us", multipliers=[0.25, 1, 4, 16],
        protocol="sc", granularities=[64, 4096], scale=args.scale,
    )
    show("Per-byte network cost sweep (fast link -> slow link):",
         points, granularity_preference(points, 64, 4096))

    print("\nReading: ratio > 1 means 4096-byte blocks win; the two sweeps "
          "pull the preference in opposite directions, and the paper's "
          "platform sits near the crossover -- hence 'no single combination "
          "performs best'.")


if __name__ == "__main__":
    main()
