#include "iso/miner.h"

#include <sstream>

#include "iso/anomaly_traces.h"
#include "obs/families.h"
#include "obs/trace.h"
#include "sim/driver.h"
#include "tx/trace_io.h"

namespace ntsg {

namespace {

/// The deliberately broken backends the simulator half of the search
/// rotates through (plus the conflict mode each one is judged under —
/// kNoCommuteUndo only misbehaves for commuting data types, so it runs on
/// counters in commutativity mode, like the differential fuzz layer).
struct SimSource {
  Backend backend;
  ObjectType object_type;
  ConflictMode mode;
};

constexpr SimSource kSimSources[] = {
    {Backend::kDirtyReadMoss, ObjectType::kReadWrite,
     ConflictMode::kReadWrite},
    {Backend::kNoReadLockMoss, ObjectType::kReadWrite,
     ConflictMode::kReadWrite},
    {Backend::kIgnoreReadersMoss, ObjectType::kReadWrite,
     ConflictMode::kReadWrite},
    {Backend::kNoCommuteUndo, ObjectType::kCounter,
     ConflictMode::kCommutativity},
};
constexpr size_t kNumSimSources = sizeof(kSimSources) / sizeof(kSimSources[0]);

}  // namespace

MinerReport MineAnomalies(const MinerOptions& options) {
  const obs::IsoMetrics& metrics = obs::GetIsoMetrics();
  MinerReport report;
  const IsoCheckOptions check;

  for (size_t i = 0; i < options.runs; ++i) {
    metrics.miner_runs->Inc();
    ++report.runs;

    std::unique_ptr<SystemType> owned_type;
    Trace trace;
    ConflictMode mode = ConflictMode::kReadWrite;
    std::string source;
    if (i % 2 == 0) {
      // Template half: every anomaly template, salted so repeated visits
      // are distinct instances.
      size_t k = i / 2;
      AnomalyTemplate t =
          static_cast<AnomalyTemplate>(k % kNumAnomalyTemplates);
      uint64_t salt = options.seed + k / kNumAnomalyTemplates;
      BuiltTrace built = BuildAnomalyTrace(t, salt);
      owned_type = std::move(built.type);
      trace = std::move(built.trace);
      std::ostringstream s;
      s << "template:" << AnomalyTemplateName(t) << "#" << salt;
      source = s.str();
    } else {
      // Simulator half: the differential-fuzz workload shape (two objects,
      // depth-2 programs, three top-levels) against a broken backend.
      const SimSource& src = kSimSources[(i / 2) % kNumSimSources];
      QuickRunParams params;
      params.num_objects = 2;
      params.object_type = src.object_type;
      params.initial_value = 0;
      params.num_toplevel = 3;
      params.toplevel_retries = 1;
      params.gen.depth = 2;
      params.gen.fanout = 2;
      params.gen.read_prob = 0.5;
      params.gen.child_retries = 1;
      params.config.backend = src.backend;
      params.config.seed = options.seed * 1000003ull + i;
      QuickRunResult run = QuickRun(params);
      owned_type = std::move(run.type);
      trace = std::move(run.sim.trace);
      mode = src.mode;
      std::ostringstream s;
      s << "sim:" << BackendName(src.backend)
        << ":seed=" << params.config.seed;
      source = s.str();
    }

    IsoVerdictVector vv =
        CheckIsolationLevels(*owned_type, trace, mode, check);
    if (vv.SerializableOk()) continue;

    metrics.miner_hits->Inc();
    MinedHit hit;
    hit.run_index = i;
    hit.source = std::move(source);
    size_t first = vv.FirstFailing();
    hit.first_failing = static_cast<IsoLevel>(first);
    hit.weaker_level_accepts = first > 0;
    const IsoLevelVerdict& lv = vv.levels[first];
    hit.anomaly = lv.violation.anomaly;
    // Independent re-check: rebuild the relations from the trace and walk
    // the witness edge-by-edge (or re-derive the value violation).
    hit.witness_verified = VerifyIsoWitness(*owned_type, SerialPart(trace),
                                            vv.mode, lv.level, lv.violation);
    hit.trace_text = SerializeSystemAndTrace(*owned_type, trace);
    hit.render_text = vv.ToString(*owned_type);
    hit.verdicts = std::move(vv);
    obs::TraceEmit(obs::TraceEventKind::kIsoMinerHit, 0,
                   static_cast<uint32_t>(i),
                   static_cast<uint32_t>(hit.anomaly));
    ++report.anomaly_counts[AnomalyKindName(hit.anomaly)];
    report.hits.push_back(std::move(hit));
  }
  return report;
}

}  // namespace ntsg
