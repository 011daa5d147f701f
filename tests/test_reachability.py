"""Every function of the package is reached by a shipped config, or has a reason.

``scripts/unreached.py`` runs each shipped config and its ``verify`` under a
profile hook and lists the outermost functions that none of them entered.
Such a function stays in the package only for a reason named here: a layer
of the benchmark's tracer still wraps it, an acceptance criterion of the
paper's reproduction exercises it, or a test uses it as its reference.
Code that a change leaves unreached must either go or join this table.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

TRACED = "a traced benchmark layer, until the benchmark stops wrapping it"
FUNNEL = "criterion 4: the funnel envelope and its projection"
WITH_VALUES = "reached only through funnel_project and mollify"

UNREACHED = {
    "counterexample.CounterexampleWeight.f": "the gradient test's finite-difference reference",
    "counterexample.dense_polyline_length": TRACED,
    "function_space.GridFunction.with_values": WITH_VALUES,
    "function_space.GridFunction.translate": "reached only through gauge_fix_translations",
    "function_space.FunnelProfile.__post_init__": FUNNEL,
    "function_space.FunnelProfile.alpha": FUNNEL,
    "function_space.FunnelProfile.amplitude": FUNNEL,
    "function_space.FunnelProfile.offset": FUNNEL,
    "function_space.FunnelProfile._xi": FUNNEL,
    "function_space.FunnelProfile.envelope": FUNNEL,
    "function_space.FunnelProfile.envelope_deriv": FUNNEL,
    "function_space.FunnelProfile.mouth_slope": FUNNEL,
    "function_space.FunnelProfile.tail_l2": FUNNEL,
    "function_space.funnel_profile": FUNNEL,
    "function_space.funnel_project": TRACED,
    "function_space.mollify": "criterion 5: the mollifier energy bound",
    "function_space.gauge_fix_translations": TRACED,
    "heteroclinic.reparam_equipartition": TRACED,
    "metric._WeightedNorm.distance": "criterion 3: the chordal gaps of a_k_functional",
    "metric._WeightedNorm.norm": "criteria 3 and 9: a_k_functional and parallelogram_defect",
    "metric.a_k_functional": "criterion 3: the subdivision functional",
    "metric.metric_derivative": "reached only through uniform_bounds_audit",
    "potentials.Potential.hessian_lower_bound": "criteria 5 and 9: the convexity bound lambda",
    "potentials._unit_directions": "criterion 4: the sample directions of check_a4",
    "potentials.check_a4": "criterion 4: the growth exponent at a well",
    "regularity.parallelogram_defect": "criterion 9: the parallelogram law of the L2 norm",
    "regularity.second_difference_bound": TRACED + "; criterion 9: the second-difference audit",
    "regularity.uniform_bounds_audit": TRACED,
    "regularity.spectral_audit": "criterion 10: the kernel residual and spectral gap",
}

LINE = re.compile(r"^\s*(\d+)\s+(\w+)\.py:\d+\s+(\S+)$")


def test_every_unreached_function_has_a_reason():
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    out = subprocess.run([sys.executable, str(ROOT / "scripts" / "unreached.py")],
                         capture_output=True, text=True, cwd=ROOT, env=env)
    assert out.returncode == 0, out.stdout + out.stderr
    found = {f"{m.group(2)}.{m.group(3)}"
             for m in map(LINE.match, out.stdout.splitlines()) if m}
    assert sorted(found - set(UNREACHED)) == [], "unreached without a reason"
    assert sorted(set(UNREACHED) - found) == [], "reached now: drop from the table"
