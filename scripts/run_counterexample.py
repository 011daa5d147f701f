"""Show a weight whose minimal connection length is never attained.

The weight vanishes on two horizontal lines and decays along them; candidate
curves pushed further out get strictly shorter toward the infimum 2 g_inf,
while every curve confined to a box |x| <= R stays above the crossing bound
at R.  The candidate through the wall x = R brackets each box infimum from
above.  Writes both series (candidates.tsv, boxed.tsv) as plot data.
"""

import json
import sys
from pathlib import Path

from hetconn.cli import main

ROOT = Path(__file__).resolve().parent.parent
CONFIG = ROOT / "configs" / "counterexample.json"


def run(out="runs/counterexample"):
    code = main(["counterexample", "--config", str(CONFIG), "--out", out])
    if code != 0:
        return code
    results = json.loads((Path(out) / "manifest.json").read_text())["results"]
    print(f"infimum          {results['infimum']:.6f}")
    print(f"final candidate  {results['final_candidate']:.6f}")
    print(f"boxed above bound  {results['boxed_above_bound']}")
    print(f"widths decreasing {results['bracket_widths_decreasing']}")
    print("relative widths  " + " ".join(f"{v:.2e}" for v in results["bracket_rel_width"]))
    print(results["conclusion"])
    print(f"artifacts        {out}")
    return main(["verify", out])


if __name__ == "__main__":
    sys.exit(run(*sys.argv[1:]))
