#include "layer_probes.h"

#include <algorithm>
#include <atomic>
#include <cstring>
#include <set>
#include <thread>

#include "common/strings.h"
#include "obs/accounting/cost_ledger.h"
#include "obs/flight_recorder.h"
#include "obs/scoped_timer.h"
#include "obs/tracer.h"
#include "serve/fleet_service.h"
#include "trace/dataset.h"

namespace perfbench {

namespace {

using imcf::obs::ScopedTimer;

/// Runs `op(iterations)` on `threads` threads released together and
/// returns the mean per-operation wall time seen by one thread.
template <typename Op>
double TimePerOp(int threads, int iterations, const Op& op) {
  std::atomic<int> ready{0};
  std::atomic<bool> go{false};
  std::vector<int64_t> elapsed(static_cast<size_t>(threads), 0);
  std::vector<std::thread> pool;
  for (int t = 0; t < threads; ++t) {
    pool.emplace_back([&, t] {
      ready.fetch_add(1);
      while (!go.load(std::memory_order_acquire)) {
      }
      const int64_t t0 = ScopedTimer::NowNs();
      op(iterations);
      elapsed[static_cast<size_t>(t)] = ScopedTimer::NowNs() - t0;
    });
  }
  while (ready.load() < threads) {
  }
  go.store(true, std::memory_order_release);
  for (std::thread& thread : pool) thread.join();
  int64_t total = 0;
  for (int64_t ns : elapsed) total += ns;
  return static_cast<double>(total) / threads / iterations;
}

/// Median of five timings: the probe runs on a shared host.
template <typename Op>
double MedianPerOp(int threads, int iterations, const Op& op) {
  std::vector<double> runs;
  for (int i = 0; i < 5; ++i) {
    runs.push_back(TimePerOp(threads, iterations, op));
  }
  std::sort(runs.begin(), runs.end());
  return runs[runs.size() / 2];
}

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

/// Admits every tenant `fleet` lists that `keep` accepts.
template <typename Keep>
bool AdmitFleet(imcf::serve::FleetService* service, const Fleet& fleet,
                const Keep& keep, CheckTally* tally) {
  for (const imcf::serve::TenantConfig& config : fleet.tenants) {
    if (!keep(config)) continue;
    const imcf::Status admitted = service->AddTenant(config);
    if (!admitted.ok()) {
      tally->failed += 1;
      tally->errors.push_back("in-process admission of " + config.id + ": " +
                              admitted.ToString());
      return false;
    }
  }
  return true;
}

}  // namespace

ObsProbe MeasureObsPrimitives(int iterations) {
  ObsProbe probe;
  const imcf::obs::TraceContext root =
      imcf::obs::Tracer::Root(imcf::obs::Tracer::MintTraceId());
  auto spans = [root](int n) {
    for (int i = 0; i < n; ++i) {
      imcf::obs::ScopedSpan span("perfbench.probe", "perfbench", root);
    }
  };
  probe.span_ns_1t = MedianPerOp(1, iterations, spans);
  probe.span_ns_2t = MedianPerOp(2, iterations, spans);

  // Both threads charge one tenant on one stripe: the contended shape of
  // two drain workers flushing costs for tenants that share a shard.
  imcf::obs::CostLedger ledger(8);
  const std::string tenant = "probe";
  auto adds = [&ledger, &tenant](int n) {
    for (int i = 0; i < n; ++i) {
      ledger.AddPhaseNs(0, tenant, imcf::obs::CostPhase::kPlan, 1);
    }
  };
  probe.ledger_add_ns_1t = MedianPerOp(1, iterations, adds);
  probe.ledger_add_ns_2t = MedianPerOp(2, iterations, adds);
  return probe;
}

ReplayResult ReplayInProcess(const Fleet& fleet, std::vector<Stream> streams,
                             const std::vector<int>& windows, int waves) {
  ReplayResult result;
  auto service = imcf::serve::FleetService::Create(BenchFleetOptions(2));
  if (!service.ok()) {
    result.tally.failed += 1;
    result.tally.errors.push_back("in-process service: " +
                                  service.status().ToString());
    return result;
  }
  imcf::serve::FleetService& fleet_service = **service;
  if (!AdmitFleet(&fleet_service, fleet,
                  [](const imcf::serve::TenantConfig&) { return true; },
                  &result.tally)) {
    return result;
  }

  int64_t submit_ns = 0;
  int64_t drain_ns = 0;
  int64_t submitted = 0;
  for (int wave = 0; wave < waves; ++wave) {
    std::vector<Expected> sent;
    imcf::SimTime now = 0;
    for (size_t i = 0; i < streams.size(); ++i) {
      for (int k = 0; k < windows[i]; ++k) {
        Expected expected = streams[i].Next();
        now = std::max(now, expected.request.issue_time);
        const int64_t t0 = ScopedTimer::NowNs();
        std::optional<imcf::serve::Response> immediate =
            fleet_service.Submit(expected.request);
        submit_ns += ScopedTimer::NowNs() - t0;
        ++submitted;
        result.tally.attempted += 1;
        if (immediate.has_value()) {
          result.tally.failed += 1;
          result.tally.errors.push_back(
              imcf::StrFormat("in-process submit rejected: %s",
                              imcf::serve::ServeOutcomeName(
                                  immediate->outcome)));
          continue;
        }
        sent.push_back(std::move(expected));
      }
    }
    const int64_t t0 = ScopedTimer::NowNs();
    const std::vector<imcf::serve::Response> responses =
        fleet_service.Drain(now);
    drain_ns += ScopedTimer::NowNs() - t0;
    // Drain answers in request-id order, which is submission order.
    if (responses.size() != sent.size()) {
      result.tally.failed += static_cast<int64_t>(sent.size());
      result.tally.errors.push_back("in-process drain lost responses");
      continue;
    }
    for (size_t i = 0; i < sent.size(); ++i) {
      const std::string error = CheckReply(sent[i], responses[i]);
      if (!error.empty()) {
        result.tally.failed += 1;
        result.tally.errors.push_back("in-process: " + error);
      }
    }
  }
  if (submitted > 0) {
    result.submit_ns = static_cast<double>(submit_ns) / submitted;
    result.drain_ns_per_request = static_cast<double>(drain_ns) / submitted;
  }

  // Spans per plan: a fixed set of house-week plans, counted from the
  // flight recorder by the trace id the service derives per request.
  imcf::obs::FlightRecorder::Default().Clear();
  std::set<uint64_t> traces;
  int plans = 0;
  for (const imcf::serve::TenantConfig& config : fleet.tenants) {
    if (config.dataset != "house" || plans == 4) continue;
    imcf::serve::Request request;
    request.tenant = config.id;
    request.kind = imcf::serve::RequestKind::kPlan;
    request.issue_time = imcf::trace::EvaluationStart();
    request.plan.rep = plans;
    uint64_t id = 0;
    if (fleet_service.Submit(request, &id).has_value()) continue;
    traces.insert(imcf::serve::FleetService::TraceIdFor(id));
    ++plans;
  }
  fleet_service.Drain(imcf::trace::EvaluationStart());
  int64_t spans = 0;
  for (const imcf::obs::SpanRecord& record :
       imcf::obs::FlightRecorder::Default().Snapshot()) {
    spans += traces.count(record.trace_id) ? 1 : 0;
  }
  if (plans > 0) result.spans_per_plan = static_cast<double>(spans) / plans;
  return result;
}

CheckTally ReplayPlanWitness(const Fleet& fleet,
                             const std::vector<ServedPlan>& plans) {
  CheckTally tally;
  if (plans.empty()) return tally;
  auto service = imcf::serve::FleetService::Create(BenchFleetOptions(1));
  if (!service.ok()) {
    tally.failed += 1;
    tally.errors.push_back("witness service: " + service.status().ToString());
    return tally;
  }
  std::set<std::string> needed;
  for (const ServedPlan& plan : plans) needed.insert(plan.request.tenant);
  if (!AdmitFleet(service->get(), fleet,
                  [&needed](const imcf::serve::TenantConfig& config) {
                    return needed.count(config.id) > 0;
                  },
                  &tally)) {
    return tally;
  }
  for (const ServedPlan& plan : plans) {
    tally.attempted += 1;
    const imcf::serve::Response replay =
        (*service)->Call(plan.request, plan.request.issue_time);
    if (replay.outcome != imcf::serve::ServeOutcome::kOk ||
        !SameBits(replay.plan.fe_kwh, plan.fe_kwh) ||
        !SameBits(replay.plan.fce_pct, plan.fce_pct)) {
      tally.failed += 1;
      tally.errors.push_back(imcf::StrFormat(
          "witness: plan on %s rep %d served F_E=%.17g F_CE=%.17g, "
          "in-process %.17g %.17g",
          plan.request.tenant.c_str(), plan.request.plan.rep, plan.fe_kwh,
          plan.fce_pct, replay.plan.fe_kwh, replay.plan.fce_pct));
    }
  }
  return tally;
}

}  // namespace perfbench
