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
        # a row with an empty basis pair has no raw fidelity, and one that
        # retrieved nothing has no corrected fidelity: average the rest
        raw, corr = ([r[key] for r in rows if r[key] is not None]
                     for key in ("fidelity_raw", "fidelity_corrected"))
        raw, corr = (sum(values) / len(values) if values else None for values in (raw, corr))
        raw_text, corr_text = ("none" if v is None else f"{v:.4f}" for v in (raw, corr))
        secure = "none" if raw is None else "yes" if raw > 0.89 else "no"
        bound = rows[0]["bound_efficiency"]
        print(f"  t={t:5.1f} us  raw={raw_text}  corrected={corr_text}  "
              f"classical bound={bound:.4f}  secure={secure}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
