#include "fault/fault_plan.h"

#include <algorithm>
#include <sstream>

#include "common/rng.h"

namespace ntsg {

const char* FaultKindName(FaultKind kind) {
  switch (kind) {
    case FaultKind::kCrash:
      return "crash";
    case FaultKind::kSnapshot:
      return "snapshot";
    case FaultKind::kInjectAbort:
      return "inject-abort";
    case FaultKind::kSpuriousReject:
      return "spurious-reject";
  }
  return "unknown";
}

FaultPlan FaultPlan::Generate(uint64_t seed, uint64_t horizon,
                              const FaultPlanParams& params) {
  FaultPlan plan;
  if (horizon == 0) return plan;
  Rng rng(seed ^ 0xFA17FA17FA17FA17ull);
  auto emit = [&](FaultKind kind, size_t count) {
    for (size_t i = 0; i < count; ++i) {
      FaultEvent e;
      e.at = rng.NextBelow(horizon);
      e.kind = kind;
      if (kind == FaultKind::kInjectAbort) {
        // Deterministic victim selector; the site reduces it modulo the live
        // set at firing time.
        e.param = rng.NextU64();
      }
      plan.events.push_back(e);
    }
  };
  emit(FaultKind::kCrash, params.crashes);
  emit(FaultKind::kSnapshot, params.snapshots);
  emit(FaultKind::kInjectAbort, params.injected_aborts);
  emit(FaultKind::kSpuriousReject, params.spurious_rejects);
  std::stable_sort(plan.events.begin(), plan.events.end(),
                   [](const FaultEvent& a, const FaultEvent& b) {
                     return a.at < b.at;
                   });
  return plan;
}

std::string FaultPlan::ToString() const {
  std::ostringstream out;
  for (const FaultEvent& e : events) {
    out << "@" << e.at << " " << FaultKindName(e.kind);
    if (e.param != 0) out << " param=" << e.param;
    out << "\n";
  }
  return out.str();
}

}  // namespace ntsg
