// The service under test, in its own process.
//
// perfbench_fleet execs itself with --serve. The child creates a
// FleetService (2 workers), admits the benchmark fleet, starts a
// net::WireServer on an ephemeral loopback port and announces the port on
// stdout. It then answers one-line commands on stdin:
//
//   cpu           -> process CPU (getrusage, user + system) in µs
//   snap          -> process CPU, the MetricRegistry snapshot and the
//                    CostLedger totals, then "end"
//   trace <path>  -> FleetService::DumpTrace(path), then "ok" or "fail"
//   quit (or EOF) -> stops the wire server and exits 0
//
// Keeping the service out of the client process means its CPU time,
// its metrics and its flight recorder hold only server-side work.

#ifndef PERFBENCH_SERVER_PROCESS_H_
#define PERFBENCH_SERVER_PROCESS_H_

#include <sys/types.h>

#include <cstdint>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "obs/accounting/cost_ledger.h"
#include "workload.h"

namespace perfbench {

/// Server-side state at one instant; Minus() turns two into a phase delta.
struct ServerSnapshot {
  struct Hist {
    std::vector<double> bounds;
    std::vector<int64_t> buckets;  ///< bounds.size() + 1 (last: overflow)
    int64_t count = 0;
    double sum = 0.0;
  };

  int64_t cpu_us = 0;  ///< user + system CPU of the server process
  std::map<std::string, double> scalars;  ///< counters/gauges, label-summed
  std::map<std::string, Hist> hists;      ///< histograms, label-summed
  imcf::obs::TenantCost ledger;           ///< summed over tenants

  ServerSnapshot Minus(const ServerSnapshot& earlier) const;
  /// Sums another delta into this one (phases run on different servers).
  void Add(const ServerSnapshot& other);
  double Scalar(const std::string& name) const;
  /// Quantile of a histogram by linear interpolation inside the bucket
  /// that holds the rank; 0 when the histogram is empty or absent.
  double Quantile(const std::string& name, double q) const;
  int64_t Count(const std::string& name) const;
};

/// What the child reports once it is listening.
struct ServerReady {
  int port = 0;
  double house_admit_ms = 0.0;  ///< median AddTenant time, house-week
  double dorms_admit_ms = 0.0;  ///< median AddTenant time, dorms-week
};

class ServerProcess {
 public:
  /// Forks and execs `exe --serve`, then waits for the ready line.
  static std::unique_ptr<ServerProcess> Spawn(const std::string& exe,
                                              Scale scale,
                                              std::string* error);

  /// Sends quit and waits for the child (see Quit()).
  ~ServerProcess();

  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  const ServerReady& ready() const { return ready_; }

  bool Snapshot(ServerSnapshot* out);
  /// The child's CPU time so far (µs), or -1 when it cannot be read.
  int64_t CpuUs();
  bool DumpTrace(const std::string& path);

  /// Asks the child to stop and reaps it. Returns true when it exited 0.
  /// Idempotent.
  bool Quit();

 private:
  ServerProcess() = default;
  bool ReadLine(std::string* line);

  pid_t pid_ = -1;
  FILE* to_child_ = nullptr;
  FILE* from_child_ = nullptr;
  ServerReady ready_;
  bool exited_ok_ = false;
};

/// Entry point of the --serve child. Returns the process exit code.
int ServeMain(Scale scale);

}  // namespace perfbench

#endif  // PERFBENCH_SERVER_PROCESS_H_
