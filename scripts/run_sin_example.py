"""Assemble the 2D field whose x2-slices connect -sin(y) to +sin(y).

Runs the profile-path solver on a 257x257 grid (its Newton-CG on the
129x129 quarter x2 >= 0, x1 >= pi/2, mirrored odd in x2 and even in x1),
checks the interior PDE
residual of Delta u + u - 4u(u^2 - sin^2 y) = 0, and reports how fast the
boundary columns approach the two wells.
"""

import json
import sys
from pathlib import Path

import numpy as np

from hetconn.cli import main

ROOT = Path(__file__).resolve().parent.parent
CONFIG = ROOT / "configs" / "sin_example.json"


def run(out="runs/sin_example"):
    code = main(["double", "--config", str(CONFIG), "--out", out])
    if code != 0:
        return code
    manifest = json.loads((Path(out) / "manifest.json").read_text())
    results = manifest["results"]
    print(f"energy        {results['energy']:.9f}")
    print(f"residual max  {results['residual_max']:.3e}")
    print(f"polish        {results['solver_status']} after {results['polish_steps']} "
          f"Newton steps ({results['polish_cg_products']} CG products), "
          f"free gradient max {results['polish_gmax']:.2e}")
    print(f"              on {results['polish_columns']} of "
          f"{manifest['config']['opts']['n_out']} x2 columns and "
          f"{results['polish_rows']} of {manifest['config']['m']} x1 rows")
    # columns x2, gap_minus_l2, gap_plus_l2: the first column's gap to the
    # minus well and the last one's to the plus well
    gaps = np.load(Path(out) / "boundary_convergence.npy")
    print(f"end-column gaps  {gaps[0, 1]:.2e} / {gaps[-1, 2]:.2e}")
    print(f"artifacts     {out}  (u.npy, x1.npy, boundary_convergence.npy)")
    return main(["verify", out])


if __name__ == "__main__":
    sys.exit(run(*sys.argv[1:]))
