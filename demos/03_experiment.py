"""Run a replicated simulation study and a sample-size sweep.

Repeats the small correlated benchmark across seeds, averages the error
and support-accuracy metrics for both solver variants, then sweeps the
sample size on the consistency model to show both metrics improving as
n grows.
"""

from gaga import GagaConfig, gaga_qr_fit
from gaga.datagen import CONSISTENCY, MODEL1
from gaga.harness import (
    ExperimentSpec,
    GagaEstimator,
    run_consistency_sweep,
    run_experiment,
)

config = GagaConfig(variance_mode="estimated")
estimators = (GagaEstimator(config=config),
              GagaEstimator(config=config, name="gaga_qr", fit=gaga_qr_fit))

spec = ExperimentSpec(model=MODEL1, replicates=30, estimators=estimators)
rows = run_experiment(spec)
print("30 replicates of the small correlated benchmark:")
for row in rows:
    if row["status"] == "summary" and row["replicate"] == "mean":
        print(f"  {row['estimator']:8s} mean err={row['err']:.4f}"
              f"  mean acc={row['acc']:.3f}")

sweep_spec = ExperimentSpec(model=CONSISTENCY, replicates=30,
                            estimators=(GagaEstimator(config=config),),
                            sample_sizes=(30, 60, 90, 120, 150))
print("\nsample-size sweep (30 replicates per n):")
print(f"  {'n':>4s} {'mean err':>9s} {'mean acc':>9s}")
for row in run_consistency_sweep(sweep_spec):
    print(f"  {row['sample_size']:4d} {row['mean_err']:9.4f} {row['mean_acc']:9.3f}")
