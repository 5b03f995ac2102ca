#!/usr/bin/env python3
"""Rotate the detection frame and compare encodings: hybrid states stay
flat while linear polarization qubits follow the Malus law."""

import argparse
import math
import sys

from vortexmem import config, pipeline, text
from vortexmem.hilbert import HYBRID_SPHERE_NAMES


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="results/rotation")
    parser.add_argument("--seed", type=int, default=12345)
    parser.add_argument("--trials", type=int, default=150_000)
    parser.add_argument("--angles", type=float, nargs="+",
                        default=[0, 10, 20, 30, 40, 45, 50, 60],
                        help="detection-frame angles in degrees")
    args = parser.parse_args(argv)

    cfg = config.default_config("fidelity_vs_rotation")
    payload = config.config_to_dict(cfg)
    payload.update(
        rotation_angles=[math.radians(d) for d in args.angles],
        trials_per_projection=args.trials,
        seed=args.seed,
    )
    report = pipeline.run(config.config_from_dict(payload))
    text.emit(report, args.out)

    groups = {
        "hybrid": HYBRID_SPHERE_NAMES,
        "linear pol": ("H", "V", "D", "A"),
        "circular pol": ("R", "L"),
    }
    all_rows = report.table.rows()   # the results.jsonl lines, parsed
    print("\naverage raw fidelity per encoding family:")
    for deg in args.angles:
        rows = [r for r in all_rows if abs(r["angle_deg"] - deg) < 1e-6]
        line = f"  theta={deg:5.1f} deg"
        for label, names in groups.items():
            # a row with an empty basis pair has no raw fidelity
            sel = [r["fidelity_raw"] for r in rows
                   if r["state"] in names and r["fidelity_raw"] is not None]
            line += f"  {label}={sum(sel) / len(sel):.4f}" if sel else f"  {label}=none"
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
