// Experiment T7: the price of certifier crash recovery. Two claims to
// quantify:
//
//   * Recovery via snapshot + suffix re-ingest is proportional to the
//     suffix since the last snapshot, not to the whole behavior — compare
//     BM_CertifierSnapshotResume against BM_CertifierFullReingest as the
//     snapshot point moves;
//   * A faulted ingest (sim/fault_ingest.h) under a generated plan of
//     crashes and snapshots costs the snapshot copies plus the replayed
//     suffixes on top of BM_CertifierFullReingest. BM_CertifierChaosPlan is
//     a scale reference, not an overhead claim: it deliberately does extra
//     work. The plain ingest path carries no fault hooks at all.

#include <benchmark/benchmark.h>

#include "bench_util.h"
#include "fault/fault_plan.h"
#include "sg/incremental_certifier.h"
#include "sim/fault_ingest.h"

namespace ntsg {
namespace {

// Recovery the slow way: rebuild certifier state by re-ingesting the whole
// behavior from scratch.
void BM_CertifierFullReingest(benchmark::State& state) {
  const QuickRunResult& run =
      bench::CachedRun(static_cast<size_t>(state.range(0)), Backend::kMoss);
  const Trace& beta = run.sim.trace;
  for (auto _ : state) {
    IncrementalCertifier cert(*run.type, ConflictMode::kReadWrite);
    cert.IngestTrace(beta);
    benchmark::DoNotOptimize(cert.verdict());
  }
  state.counters["events"] = static_cast<double>(beta.size());
}

// Recovery the fast way: restore a snapshot taken at `range(1)` sixteenths
// of the behavior and replay only the suffix. As the snapshot point moves
// toward the crash, recovery cost falls toward zero while full re-ingest
// stays flat.
void BM_CertifierSnapshotResume(benchmark::State& state) {
  const QuickRunResult& run =
      bench::CachedRun(static_cast<size_t>(state.range(0)), Backend::kMoss);
  const Trace& beta = run.sim.trace;
  const size_t cut = beta.size() * static_cast<size_t>(state.range(1)) / 16;
  IncrementalCertifier checkpoint(*run.type, ConflictMode::kReadWrite);
  for (size_t i = 0; i < cut; ++i) checkpoint.Ingest(beta[i]);
  for (auto _ : state) {
    IncrementalCertifier restored = checkpoint;  // snapshot restore
    for (size_t i = cut; i < beta.size(); ++i) restored.Ingest(beta[i]);
    benchmark::DoNotOptimize(restored.verdict());
  }
  state.counters["events"] = static_cast<double>(beta.size());
  state.counters["replayed"] = static_cast<double>(beta.size() - cut);
}

// The default plan (two crashes, two snapshots) over the whole behavior.
void BM_CertifierChaosPlan(benchmark::State& state) {
  const QuickRunResult& run =
      bench::CachedRun(static_cast<size_t>(state.range(0)), Backend::kMoss);
  const Trace& beta = run.sim.trace;
  FaultPlan plan =
      FaultPlan::Generate(/*seed=*/7, beta.size(), FaultPlanParams{});
  size_t replayed = 0;
  for (auto _ : state) {
    IncrementalCertifier cert(*run.type, ConflictMode::kReadWrite);
    replayed = IngestWithFaults(beta, plan, &cert).actions_replayed;
    benchmark::DoNotOptimize(cert.verdict());
  }
  state.counters["events"] = static_cast<double>(beta.size());
  state.counters["replayed"] = static_cast<double>(replayed);
}

BENCHMARK(BM_CertifierFullReingest)->Arg(32)->Arg(128)->Arg(512)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_CertifierSnapshotResume)
    ->Args({128, 4})->Args({128, 8})->Args({128, 12})->Args({128, 15})
    ->Args({512, 12})->Args({512, 15})
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_CertifierChaosPlan)->Arg(32)->Arg(128)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace ntsg

NTSG_BENCH_MAIN();
