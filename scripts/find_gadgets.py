#!/usr/bin/env python3
"""Search for the two non-colorable gadget instances and freeze them as assets.

The gadgets are the tightness witnesses for the two largest reducible
configurations: lowering one boundary floor from 3 to 2 admits a matching
assignment with no transversal.  The exhaustive checker finds one; this
script re-verifies it with the complete transversal search (verify_witness)
and writes assets/ce6.json / ce7.json.
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from dpcolor.io import write_cover_file  # noqa: E402
from dpcolor.reduce import (  # noqa: E402
    NOT_REDUCIBLE, check_reducible, config_catalog, verify_witness,
)


def main() -> None:
    assets = Path(__file__).resolve().parents[1] / "src" / "dpcolor" / "assets"
    cat = config_catalog()
    for label, fname in [("CE-6", "ce6.json"), ("CE-7", "ce7.json")]:
        verdict = check_reducible(cat[label], mode="full")
        if verdict.status != NOT_REDUCIBLE or verdict.witness is None:
            raise SystemExit(f"{label}: expected a counterexample, got "
                             f"{verdict.status}")
        if not verify_witness(verdict.witness):
            raise SystemExit(f"{label}: witness admits a transversal")
        write_cover_file(assets / fname, verdict.witness)
        print(f"wrote {assets / fname} "
              f"(enumerated {verdict.stats['enumerated']} branches)")


if __name__ == "__main__":
    main()
