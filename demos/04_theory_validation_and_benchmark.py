"""Check the solver's large-sample guarantees empirically and time it.

First runs replicated fits on column-orthogonal designs and measures the
rates at which zero coefficients are truncated and strong coefficients
survive, how close the standardized estimation errors are to N(0,1), and
how close the tuning weight sits to its theoretical large-sample limit.
Then times the plain solver against the QR variant as dimension grows.
"""

from gaga.harness import benchmark_timing, validate_theorems

report = validate_theorems(n=1000, replicates=100,
                           beta_star=[5.0, 0.0], sigma_star=[1.0, 1.0])
print("orthogonal-design validation (n=1000, 100 replicates, beta*=(5,0)):")
print(f"  zero coefficient truncated  {report.zero_truncated}/{report.zero_positions}"
      f"  (rate {report.truncation_rate_zero_coef:.3f})")
print(f"  nonzero coefficient kept    {report.nonzero_retained}/{report.nonzero_positions}"
      f"  (rate {report.retention_rate_nonzero_coef:.3f})")
print(f"  KS distance of standardized errors from N(0,1): "
      f"{report.normality_statistic:.4f}")
print(f"  median |tuning - 1/beta*^2|: {report.tuning_limit_error:.2e}")

print("\ntiming, n=800, 3 repeats per dimension:")
print(f"  {'p':>5s} {'plain (s)':>10s} {'qr (s)':>10s}")
rows = benchmark_timing([50, 100, 200, 400], n=800, repeats=3)
by_p = {}
for row in rows:
    by_p.setdefault(row["p"], {})[row["estimator"]] = row["mean_s"]
for p, times in sorted(by_p.items()):
    print(f"  {p:5d} {times['gaga']:10.4f} {times['gaga_qr']:10.4f}")
