"""Monte Carlo verification that each operator is a constant times a density.

Identity 1.1, for instance, states: draw independent beta mixing variables
x_j and an independent vector v from f, form u_j = x_j v_j; then the joint
density of u equals the second-kind operator applied to f, divided by a
gamma-ratio constant.  The engine simulates the construction, estimates
the density of u with box counts, and compares probe by probe.

Identity 2.4's printed mixing parameters admit two readings; the report
carries both candidates and names the one that satisfies the identity.
"""

from ekstat import make_spec, simulate, verify

print("== identity 1.1, k = 2, one million draws ==")
spec = make_spec("1.1", 2)
samples = simulate(spec, 10**6, seed=42)
report = verify(spec, samples=samples)
print(f"pass: {report.passed}  (fraction within 4 SE {report.fraction_within_4se:.2f}, "
      f"max |z| {report.max_abs_z:.2f})")
print("probe          empirical   predicted   z")
for p, e, g, z in list(zip(report.probes, report.empirical, report.predicted, report.z))[:6]:
    print(f"({p[0]:6.3f},{p[1]:6.3f})  {e:9.5f}  {g:9.5f}  {z:+5.2f}")

print("\n== negative control: corrupt the constant by 25 percent ==")
# the same draws: their probe grid and box counts are kept on `samples`,
# so the control only evaluates its predictions
corrupted = verify(spec, samples=samples, constant_scale=1.25)
print(f"pass: {corrupted.passed}  (max |z| {corrupted.max_abs_z:.1f})")

print("\n== identity 2.4: two candidate parameter readings ==")
report = verify(make_spec("2.4", 2), n_samples=10**6, seed=42)
for cand in report.candidates:
    print(f"  {cand.label:24s} pairs={cand.pairs} admissible={cand.admissible} "
          f"pass={cand.passed}")
print(f"adjudication: {report.adjudication_notes}")
