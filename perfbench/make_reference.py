"""Regenerate perfbench/reference.json, the expected outputs the benchmark checks against.

    PYTHONPATH=src python3 perfbench/make_reference.py

Stores a SHA-256 digest of the canonical JSON of
- macdonald(mu) for every supported shape of size 1..12 and for the
  macdonald-cold shapes of size 13,
- unimodal_profile(mu) for the family shapes of size 4..10 (crosscheck),
- the default run_battery() report at seed 0.
Run it only on a commit whose outputs are known to be right: every later
benchmark run compares against these digests.
"""

from __future__ import annotations

import json
from pathlib import Path

from qtkostka.battery import run_battery
from qtkostka.stats import unimodal_profile
from qtkostka.vertex import macdonald
from worker import canonical_digest, family_shapes, mu_key, profile_payload, supported_shapes


def main() -> None:
    shapes = supported_shapes(1, 12) + family_shapes(13)
    reference = {
        "macdonald": {mu_key(mu): canonical_digest(macdonald(mu).to_json()) for mu in shapes},
        "profile": {
            mu_key(mu): canonical_digest(profile_payload(unimodal_profile(mu)))
            for n in range(4, 11)
            for mu in family_shapes(n)
        },
        "battery_seed0": canonical_digest(run_battery()),
    }
    path = Path(__file__).resolve().parent / "reference.json"
    path.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
