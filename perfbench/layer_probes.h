// In-process measurements that complement the wire phases.
//
// Three kinds, all run in the client process after the wire phases:
//
//   * the obs primitives — ScopedSpan and CostLedger::AddPhaseNs — timed
//     alone on one thread and on two concurrent threads (the shape of the
//     drain's span-close and cost-flush path);
//   * a replay of the workload's own requests through FleetService
//     Submit/Drain, which times admission and drain bookkeeping without
//     the wire, and counts the spans one plan records;
//   * the determinism witness: served plans re-run on a fresh service must
//     reproduce F_E and F_CE bit for bit.

#ifndef PERFBENCH_LAYER_PROBES_H_
#define PERFBENCH_LAYER_PROBES_H_

#include <cstdint>
#include <string>
#include <vector>

#include "serve/request.h"
#include "workload.h"

namespace perfbench {

struct ObsProbe {
  double span_ns_1t = 0.0;
  double span_ns_2t = 0.0;
  double ledger_add_ns_1t = 0.0;
  double ledger_add_ns_2t = 0.0;
};

ObsProbe MeasureObsPrimitives(int iterations);

/// Requests checked by an in-process step, and the ones that came back
/// wrong (counted as failed requests of the run).
struct CheckTally {
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<std::string> errors;
};

struct ReplayResult {
  double submit_ns = 0.0;             ///< mean FleetService::Submit
  double drain_ns_per_request = 0.0;  ///< Drain wall ÷ requests drained
  double spans_per_plan = 0.0;        ///< flight-recorder spans per plan
  CheckTally tally;
};

/// Replays `waves` waves through an in-process service (2 workers). One
/// wave submits `windows[i]` requests from `streams[i]` for every i, then
/// drains once — the batch shape the wire server sees.
ReplayResult ReplayInProcess(const Fleet& fleet, std::vector<Stream> streams,
                             const std::vector<int>& windows, int waves);

/// One plan served over the wire, with the figures it came back with.
struct ServedPlan {
  imcf::serve::Request request;
  double fe_kwh = 0.0;
  double fce_pct = 0.0;
};

/// Re-runs each plan on a fresh single-worker service that admitted the
/// same tenant configs; any F_E/F_CE that differs in a single bit fails.
CheckTally ReplayPlanWitness(const Fleet& fleet,
                             const std::vector<ServedPlan>& plans);

}  // namespace perfbench

#endif  // PERFBENCH_LAYER_PROBES_H_
