// The benchmark's fleet and request streams.
//
// The fleet is fixed: which tenants it holds and which of them carry the
// two halves of the designed inter-tenant command cycle. The request
// sequence of every stream is a pure function of the workload seed.
// The service only ever sees the generated requests; each one travels
// with the outcome the benchmark expects back, so every reply is checked.

#ifndef PERFBENCH_WORKLOAD_H_
#define PERFBENCH_WORKLOAD_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.h"
#include "serve/fleet_service.h"

namespace perfbench {

/// Fleet size. kFull is what the gated runs use; kTiny is the self-test
/// size (a few tenants, fractions of a second per phase).
enum class Scale { kFull, kTiny };

/// The three kinds of client traffic.
enum class StreamKind : uint8_t { kPlan = 0, kInteractive = 1, kMrt = 2 };

/// The fleet every workload serves.
struct Fleet {
  std::vector<imcf::serve::TenantConfig> tenants;
  /// Tenants that receive Plan requests (never an MRT update, so a served
  /// plan can be re-run in-process from the admitted config).
  std::vector<std::string> plan_pool;
  /// Tenants that receive MRT updates; all share the anchor's shard.
  std::vector<std::string> updaters;
  /// The tenant admitted with one half of the command cycle.
  std::string anchor;
};

Fleet BuildFleet(Scale scale);

/// Service options shared by the wire server and the in-process replays.
imcf::serve::FleetOptions BenchFleetOptions(int workers);

/// One generated request and the outcome it must come back with.
struct Expected {
  imcf::serve::Request request;
  imcf::serve::ServeOutcome outcome = imcf::serve::ServeOutcome::kOk;
  StreamKind stream = StreamKind::kPlan;
};

/// A seeded request stream of one kind. Successive Next() calls walk a
/// fixed sequence for a given (fleet, kind, seed).
class Stream {
 public:
  Stream(const Fleet* fleet, StreamKind kind, uint64_t seed);

  Expected Next();

 private:
  Expected NextPlan();
  Expected NextInteractive();
  Expected NextMrt();

  const Fleet* fleet_;  ///< borrowed; outlives the stream
  StreamKind kind_;
  imcf::Rng rng_;
  std::vector<size_t> round_;  ///< plan pool order of the current round
  size_t next_in_round_ = 0;
};

/// Checks one reply against its expectation. Returns an empty string when
/// the reply is right, else what is wrong with it.
std::string CheckReply(const Expected& expected,
                       const imcf::serve::Response& response);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOAD_H_
