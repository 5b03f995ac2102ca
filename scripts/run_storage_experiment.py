#!/usr/bin/env python3
"""Sweep storage time in the measured operating regime and write the
fidelity-vs-time table (raw, background-corrected, classical bounds)."""

import argparse
import sys

from vortexmem import config, pipeline, text


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="results/fidelity_vs_time")
    parser.add_argument("--seed", type=int, default=12345)
    parser.add_argument("--trials", type=int, default=150_000,
                        help="trials per projection (0 = exact tomography)")
    parser.add_argument("--times", type=float, nargs="+",
                        default=[0.0, 0.5, 1.0, 2.0, 3.0, 5.0, 7.0, 10.0, 12.0, 15.0],
                        help="storage times in microseconds")
    args = parser.parse_args(argv)

    cfg = config.default_config("fidelity_vs_time")
    payload = config.config_to_dict(cfg)
    payload.update(
        storage_times=args.times,
        trials_per_projection=args.trials,
        seed=args.seed,
    )
    report = pipeline.run(config.config_from_dict(payload))
    text.emit(report, args.out)

    all_rows = report.table.rows()   # the results.jsonl lines, parsed
    print(f"\nsix-state averages ({args.trials or 'exact'} trials/projection):")
    for t in args.times:
        rows = [r for r in all_rows if r["time_us"] == t]
        raw = sum(r["fidelity_raw"] for r in rows) / len(rows)
        # a row that retrieved nothing has no corrected fidelity
        corrected = [r["fidelity_corrected"] for r in rows if r["fidelity_corrected"] is not None]
        corr = f"{sum(corrected) / len(corrected):.4f}" if corrected else "none"
        bound = rows[0]["bound_efficiency"]
        print(f"  t={t:5.1f} us  raw={raw:.4f}  corrected={corr}  "
              f"classical bound={bound:.4f}  secure={'yes' if raw > 0.89 else 'no'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
