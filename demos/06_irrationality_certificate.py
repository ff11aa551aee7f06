# The full pipeline: atoms, the obstruction, and the certificate.
#
# The zero eigenspace of kappa splits across the involution into ambient
# algebraic pieces plus the simple transcendental part T, whose Hodge
# polynomial has a nonzero t^2 coefficient. Blowup bookkeeping says a
# rational fourfold can only carry atoms assembled from point, curve and
# surface centres; an atom with t^2 != 0 and rho < 3 admits no such
# assembly, and T forces one in either placement. The pipeline re-checks
# every link in that chain and emits a machine-readable certificate.

import json

from hodgeatoms.atoms import (assemble_zero_atoms, exclusion_search,
                              transcendental_invariants)
from hodgeatoms.certificate import dump_json
from hodgeatoms.instance import load_instance
from hodgeatoms.pipeline import (EXCLUSION_CENTRES, EXCLUSION_GENUS, build_certificate,
                                 exit_code, run_pipeline)

verra = load_instance("verra")

trans = transcendental_invariants(verra)
print("transcendental atom:", trans.render())

case_plus, case_minus = assemble_zero_atoms(trans, 2, 1)
for case in (case_plus, case_minus):
    print(f"\nplacement {case.name}:")
    print("  ", case.plus.render())
    print("  ", case.minus.render())
    blocked = case.obstructed()
    print(f"  obstructed atom: {blocked.label}"
          f" (t^2 coeff {blocked.t2_coefficient()}, rho {blocked.rho})")
    print("  centre multisets that could assemble it:",
          exclusion_search(blocked, EXCLUSION_CENTRES, EXCLUSION_GENUS) or "none")

run = run_pipeline(verra)
print(f"\npipeline verdict: {run.verdict} (exit code {exit_code(run)})")
print(f"{sum(c['passed'] for c in run.checks)}/{len(run.checks)} checks passed")

cert = build_certificate(run)
out = "certificate.json"
with open(out, "w", encoding="utf-8") as fh:
    fh.write(dump_json(cert))
print(f"\nwrote {out} ({len(json.dumps(cert))} bytes of payload);"
      " reruns are byte-identical")
