"""Solve the scalar double-well connection and verify the run artifacts.

On the line the K-geodesic between the wells is the segment, so the run
needs no descent: d_K is the integral of K = sqrt(2W), and the
equipartitioned profile inverts the time map t(u) = integral of du / K by
quadrature.  For this potential the result must be tanh(t) with action 4/3.
"""

import json
import sys
from pathlib import Path

from hetconn.cli import main

ROOT = Path(__file__).resolve().parent.parent
CONFIG = ROOT / "configs" / "double_well.json"


def run(out="runs/double_well"):
    code = main(["connect", "--config", str(CONFIG), "--out", out])
    if code != 0:
        return code
    results = json.loads((Path(out) / "manifest.json").read_text())["results"]
    print(f"action       {results['action']:.8f}   (4/3 = {4/3:.8f})")
    print(f"d_K          {results['dk_value']:.8f}")
    print(f"defect       {results['equipartition_defect']:.3e}")
    print(f"el residual  {results['el_residual']:.3e}")
    print(f"artifacts    {out}")
    return main(["verify", out])


if __name__ == "__main__":
    sys.exit(run(*sys.argv[1:]))
