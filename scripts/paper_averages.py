#!/usr/bin/env python3
"""Print the paper's averages from the results.jsonl of a CLI run, as in
`python3 scripts/paper_averages.py results/time/results.jsonl`.

fidelity_vs_rotation: the raw fidelity per detection-frame angle and
encoding family.  fidelity_vs_time: per storage time, the raw and corrected
fidelities over all input states, the classical bound and the Shor-Preskill
verdict on the raw average.  An average leaves out null estimates and is
none without any; angles and times come in the order the rows show them.
"""

import argparse
import json
import sys

from vortexmem.hilbert import HYBRID_SPHERE_NAMES
from vortexmem.security import SHOR_PRESKILL_THRESHOLD

FAMILIES = {"hybrid": HYBRID_SPHERE_NAMES, "linear pol": ("H", "V", "D", "A"),
            "circular pol": ("R", "L")}


def _mean(rows: list[dict], key: str) -> tuple[float | None, str]:
    """The mean of key over the rows where it is not null, and its text."""
    values = [row[key] for row in rows if row[key] is not None]
    mean = sum(values) / len(values) if values else None
    return mean, "none" if mean is None else f"{mean:.4f}"


def _by(rows: list[dict], key: str) -> list[tuple]:
    """The rows grouped by their value of key, in first-seen order."""
    values = dict.fromkeys(row[key] for row in rows)
    return [(v, [row for row in rows if row[key] == v]) for v in values]


def _rotation_lines(rows: list[dict]):
    yield "average raw fidelity per encoding family:"
    for deg, at in _by(rows, "angle_deg"):
        yield f"  theta={deg:5.1f} deg" + "".join(
            f"  {label}={_mean([r for r in at if r['state'] in names], 'fidelity_raw')[1]}"
            for label, names in FAMILIES.items())


def _time_lines(rows: list[dict]):
    yield "averages over the input states per storage time:"
    for t, at in _by(rows, "time_us"):
        (raw, raw_text), (_, corrected) = _mean(at, "fidelity_raw"), _mean(at, "fidelity_corrected")
        secure = "none" if raw is None else "yes" if raw > SHOR_PRESKILL_THRESHOLD else "no"
        yield (f"  t={t:5.1f} us  raw={raw_text}  corrected={corrected}  "
               f"classical bound={at[0]['bound_efficiency']:.4f}  secure={secure}")


LINES = {"fidelity_vs_rotation": _rotation_lines, "fidelity_vs_time": _time_lines}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("results", help=f"results.jsonl of a {' or '.join(LINES)} run")
    path = parser.parse_args(argv).results
    try:
        with open(path) as handle:
            rows = [json.loads(line) for line in handle]
    except (OSError, ValueError) as exc:
        sys.exit(f"{path}: cannot read: {exc}")
    try:
        lines = list(LINES[rows[0]["scenario"]](rows))
    except (LookupError, TypeError, ValueError):   # no rows, another scenario, not result rows
        sys.exit(f"{path}: not the results of a {' or '.join(LINES)} run")
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
