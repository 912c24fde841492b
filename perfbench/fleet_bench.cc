// The fleet benchmark: entry point and client side.
//
//   perfbench_fleet --workload plan|mixed --seed N --seconds S
//                   --trace 0|1 [--scale full|tiny] [--out-dir DIR]
//                   [--flip-expected K]
//
// Boots the FleetService behind net::WireServer in a child process (see
// server_process.h), drives it over loopback with at most three
// net::WireClient connections in a closed loop (each connection keeps a
// fixed number of requests in flight and sends the next one only when a
// reply comes back), checks every reply against the outcome its generator
// expects, and prints one JSON object as the last line of stdout:
//
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
//
// --trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones
// (README.md in this directory maps each to the end-to-end metric it
// should move). A line starting with {"diag": precedes it with the run's
// diagnostics: host steal share, CPU, build, sample counts. The exit code
// is 1 when any reply, replay or witness check failed, 2 on a usage or
// set-up error.
//
// --flip-expected K deliberately inverts the expected outcome of the K-th
// request the first connection sends; the self-test uses it to show that
// the correctness gate fails the run.

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/strings.h"
#include "layer_probes.h"
#include "net/client.h"
#include "net/wire.h"
#include "obs/flight_recorder.h"
#include "obs/scoped_timer.h"
#include "obs/trace_export.h"
#include "obs/tracer.h"
#include "server_process.h"
#include "workload.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

using imcf::obs::ScopedTimer;
using imcf::serve::RequestKind;

// ---------------------------------------------------------------- options

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  Scale scale = Scale::kFull;
  std::string out_dir = ".";
  int64_t flip_expected = -1;
  std::string git_sha = "unknown";
  std::string src_digest = "unknown";
  std::string exe;
};

/// One client connection's traffic: a stream kind and its in-flight count.
struct ConnSpec {
  StreamKind kind;
  int window;
};

/// `mixed`'s traffic: plans, interactive requests and MRT updates on
/// three connections.
std::vector<ConnSpec> MixedTraffic() {
  return {{StreamKind::kPlan, 4},
          {StreamKind::kInteractive, 8},
          {StreamKind::kMrt, 1}};
}

/// A workload: the traffic it exists for (`main`), and whether a probe
/// phase runs first. The probe carries `mixed`'s traffic for kProbeShare
/// of the measured time and reports its interactive and MRT figures,
/// which a main phase without those streams lacks: every run reports
/// every end-to-end metric.
struct WorkloadSpec {
  std::vector<ConnSpec> main;
  bool probe = false;
};

constexpr double kProbeShare = 0.5;

bool LookupWorkload(const std::string& name, WorkloadSpec* spec) {
  if (name == "plan") {
    *spec = {{{StreamKind::kPlan, 4}, {StreamKind::kPlan, 4}}, true};
  } else if (name == "mixed") {
    *spec = {MixedTraffic(), false};
  } else {
    return false;
  }
  return true;
}

// ----------------------------------------------------------- client loop

/// One reply that came back right.
struct Sample {
  StreamKind stream;
  RequestKind kind;
  int64_t done_ns;  ///< when the reply arrived
  int64_t rtt_ns;   ///< send to reply, at the client
  int64_t wall_ns;  ///< the reply's own execution time
  int command_attempts;
};

/// Everything one connection saw in one phase.
struct ConnPhase {
  std::vector<Sample> samples;
  std::vector<ServedPlan> plans;
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<std::string> errors;
  int64_t encode_ns = 0;
  int64_t decode_ns = 0;
  int64_t frames_encoded = 0;
  int64_t frames_decoded = 0;
};

/// A connection and the stream it draws from. Persists across phases so
/// the request sequence continues where the previous phase stopped.
struct Conn {
  std::unique_ptr<imcf::net::WireClient> client;
  uint64_t next_client_id = 1;
  int64_t sent_total = 0;
  int64_t flip_at = -1;  ///< --flip-expected, first connection only
};

struct InFlight {
  Expected expected;
  int64_t sent_ns = 0;
  uint64_t trace_id = 0;
  uint64_t span_id = 0;
};

void RecordSpan(const char* name, uint64_t trace_id, uint64_t span_id,
                uint64_t parent, int64_t start_ns, int64_t end_ns,
                const std::string& detail) {
  imcf::obs::SpanRecord record;
  record.trace_id = trace_id;
  record.span_id = span_id;
  record.parent_span_id = parent;
  record.name = name;
  record.category = "perfbench";
  record.wall_start_ns = start_ns;
  record.wall_end_ns = end_ns;
  std::snprintf(record.detail, sizeof(record.detail), "%s", detail.c_str());
  imcf::obs::FlightRecorder::Default().Record(record);
}

/// Drives one connection until `deadline_ns`, then collects the replies
/// still in flight. Traced runs time the wire codec around every frame and
/// record client-side spans.
void DriveConnection(Conn* conn, Stream* stream, int window,
                     int64_t deadline_ns, bool traced, ConnPhase* out) {
  std::unordered_map<uint64_t, InFlight> in_flight;
  std::string payload;
  while (true) {
    while (static_cast<int>(in_flight.size()) < window &&
           ScopedTimer::NowNs() < deadline_ns) {
      InFlight pending;
      pending.expected = stream->Next();
      if (conn->sent_total++ == conn->flip_at) {
        // Self-test hook: a deliberately wrong expectation.
        pending.expected.outcome =
            pending.expected.outcome == imcf::serve::ServeOutcome::kOk
                ? imcf::serve::ServeOutcome::kConflictRejected
                : imcf::serve::ServeOutcome::kOk;
      }
      const uint64_t id = conn->next_client_id++;
      const int64_t t0 = ScopedTimer::NowNs();
      payload.clear();
      imcf::net::EncodeRequestPayload(id, pending.expected.request, &payload);
      const std::string frame =
          imcf::net::EncodeFrame(imcf::net::FrameType::kRequest, payload);
      const int64_t t1 = ScopedTimer::NowNs();
      if (traced) {
        out->encode_ns += t1 - t0;
        out->frames_encoded += 1;
        pending.trace_id = imcf::obs::Tracer::MintTraceId();
        pending.span_id = imcf::obs::Tracer::MintTraceId();
        RecordSpan("net.encode", pending.trace_id,
                   imcf::obs::Tracer::MintTraceId(), pending.span_id, t0, t1,
                   "");
      }
      out->attempted += 1;
      if (!conn->client->SendBytes(frame)) {
        out->failed += 1 + static_cast<int64_t>(in_flight.size());
        out->errors.push_back("send failed: connection closed");
        return;
      }
      pending.sent_ns = t1;
      in_flight.emplace(id, std::move(pending));
    }
    if (in_flight.empty()) return;

    auto reply = conn->client->Receive();
    const int64_t received_ns = ScopedTimer::NowNs();
    if (!reply.ok()) {
      out->failed += static_cast<int64_t>(in_flight.size());
      out->errors.push_back("receive: " + reply.status().ToString());
      return;
    }
    auto it = in_flight.find(reply->client_id);
    if (it == in_flight.end()) {
      out->failed += 1;
      out->errors.push_back("reply for an unknown correlation id");
      continue;
    }
    const InFlight& pending = it->second;
    const imcf::serve::Response& response = reply->response;
    if (traced) {
      // Decode cost of this reply's exact bytes (the encoding is
      // deterministic, so re-encoding reproduces what the server sent).
      payload.clear();
      imcf::net::EncodeResponsePayload(reply->client_id, response, &payload);
      const std::string frame =
          imcf::net::EncodeFrame(imcf::net::FrameType::kResponse, payload);
      const int64_t t0 = ScopedTimer::NowNs();
      imcf::net::FrameReader reader;
      reader.Feed(frame);
      auto decoded_frame = reader.Next();
      bool decoded = decoded_frame.ok() && decoded_frame->has_value() &&
                     imcf::net::DecodeResponsePayload((**decoded_frame).payload)
                         .ok();
      const int64_t t1 = ScopedTimer::NowNs();
      if (!decoded) {
        out->failed += 1;
        out->errors.push_back("reply bytes do not decode");
      }
      out->decode_ns += t1 - t0;
      out->frames_decoded += 1;
      RecordSpan("net.decode", pending.trace_id,
                 imcf::obs::Tracer::MintTraceId(), pending.span_id, t0, t1,
                 "");
      RecordSpan("client.request", pending.trace_id, pending.span_id, 0,
                 pending.sent_ns, received_ns,
                 imcf::StrFormat("%s %s",
                                 imcf::serve::RequestKindName(response.kind),
                                 response.tenant.c_str()));
    }
    const std::string error = CheckReply(pending.expected, response);
    if (!error.empty()) {
      out->failed += 1;
      if (out->errors.size() < 8) out->errors.push_back(error);
    } else {
      out->samples.push_back({pending.expected.stream, response.kind,
                              received_ns, received_ns - pending.sent_ns,
                              response.wall_ns, response.command_attempts});
      if (response.kind == RequestKind::kPlan) {
        out->plans.push_back({pending.expected.request, response.plan.fe_kwh,
                              response.plan.fce_pct});
      }
    }
    in_flight.erase(it);
  }
}

/// Host-wide CPU jiffies from /proc/stat: total and steal.
struct HostCpu {
  int64_t total = 0;
  int64_t steal = 0;
};

HostCpu ReadHostCpu() {
  HostCpu cpu;
  std::ifstream in("/proc/stat");
  std::string label;
  in >> label;
  if (label != "cpu") return cpu;
  // user nice system idle iowait irq softirq steal (guest time is already
  // inside user and nice).
  int64_t fields[8] = {};
  for (int64_t& f : fields) in >> f;
  for (int64_t f : fields) cpu.total += f;
  cpu.steal = fields[7];
  return cpu;
}

double StealShare(const HostCpu& from, const HostCpu& to) {
  return to.total > from.total ? static_cast<double>(to.steal - from.steal) /
                                     static_cast<double>(to.total - from.total)
                               : 0.0;
}

/// A point in a phase: wall time, the server's CPU time (-1 unread) and
/// the host's CPU counters.
struct Mark {
  int64_t t_ns;
  int64_t server_cpu_us;
  HostCpu host;
};

struct PhaseResult {
  std::vector<ConnPhase> conns;
  int64_t elapsed_ns = 0;
  /// One mark per second of the phase, first at its start, last at its
  /// deadline: the edges of the windows the end-to-end figures use.
  std::vector<Mark> marks;

  std::vector<Sample> Samples() const {
    std::vector<Sample> all;
    for (const ConnPhase& c : conns) {
      all.insert(all.end(), c.samples.begin(), c.samples.end());
    }
    return all;
  }
  int64_t Completed() const {
    int64_t n = 0;
    for (const ConnPhase& c : conns) {
      n += static_cast<int64_t>(c.samples.size());
    }
    return n;
  }
};

/// Runs one closed-loop phase: connection i carries spec[i] traffic from
/// *streams[i] for `seconds`, plus the tail of replies still in flight.
/// Meanwhile the calling thread marks every second, reading the server's
/// CPU time when `server` is given.
PhaseResult RunPhase(std::vector<Conn>& conns,
                     const std::vector<Stream*>& streams,
                     const std::vector<ConnSpec>& spec, double seconds,
                     bool traced, ServerProcess* server) {
  PhaseResult result;
  result.conns.resize(spec.size());
  auto mark = [&result, server] {
    const int64_t cpu = server != nullptr ? server->CpuUs() : -1;
    result.marks.push_back({ScopedTimer::NowNs(), cpu, ReadHostCpu()});
  };
  mark();
  const int64_t t0 = result.marks.front().t_ns;
  const int64_t deadline = t0 + static_cast<int64_t>(seconds * 1e9);
  std::vector<std::thread> threads;
  for (size_t i = 0; i < spec.size(); ++i) {
    threads.emplace_back([&, i] {
      imcf::obs::FlightRecorder::Default().SetCurrentThreadName(
          imcf::StrFormat("client-%zu", i));
      DriveConnection(&conns[i], streams[i], spec[i].window, deadline,
                      traced, &result.conns[i]);
    });
  }
  for (int64_t next = t0 + 1'000'000'000;; next += 1'000'000'000) {
    const int64_t edge = std::min(next, deadline);
    std::this_thread::sleep_for(std::chrono::nanoseconds(
        std::max<int64_t>(0, edge - ScopedTimer::NowNs())));
    mark();
    if (edge == deadline) break;
  }
  for (std::thread& thread : threads) thread.join();
  result.elapsed_ns = ScopedTimer::NowNs() - t0;
  return result;
}

// --------------------------------------------------------------- figures

/// Nearest-rank percentile of `values` (sorted in place).
double Percentile(std::vector<int64_t>& values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  size_t rank = static_cast<size_t>(std::ceil(q * values.size()));
  rank = std::clamp<size_t>(rank, 1, values.size());
  return static_cast<double>(values[rank - 1]);
}

template <typename Pred>
std::vector<int64_t> Collect(const std::vector<Sample>& samples,
                             const Pred& pred, bool outside_exec = false) {
  std::vector<int64_t> out;
  for (const Sample& s : samples) {
    if (pred(s)) out.push_back(outside_exec ? s.rtt_ns - s.wall_ns : s.rtt_ns);
  }
  return out;
}

/// Median of `v`, the mean of the middle two when the count is even.
double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t mid = v.size() / 2;
  return v.size() % 2 ? v[mid] : (v[mid - 1] + v[mid]) / 2;
}

// The end-to-end figures are the phase's own: replies per second of the
// phase, nearest-rank percentiles over all its replies, server CPU over
// the phase ÷ its replies. The only part left out is host interference
// that was measured: a one-second window in which the host's steal share
// exceeded kMaxStealShare is dropped, with the replies that arrived in
// it. At most half the windows are dropped, the ones with the most steal,
// so a phase on a busy host still reports from its calmer half. The diag
// line gives every window's rate and steal share and how many were
// dropped.

constexpr double kMaxStealShare = 0.02;

/// The part of a phase its end-to-end figures use.
struct PhaseView {
  std::vector<Sample> samples;  ///< replies that arrived in a kept window
  double seconds = 0.0;         ///< length of the kept windows
  int64_t server_cpu_us = 0;    ///< server CPU in the kept windows
  bool cpu_read = true;         ///< false when a CPU mark could not be read
  int windows = 0;
  int dropped = 0;
  std::vector<double> rates;  ///< every window's reply rate (diag)
  std::vector<double> steal;  ///< every window's host steal share (diag)
};

PhaseView View(const PhaseResult& phase) {
  PhaseView view;
  const std::vector<Mark>& marks = phase.marks;
  const size_t n = marks.size() - 1;
  view.windows = static_cast<int>(n);
  for (size_t k = 0; k < n; ++k) {
    view.steal.push_back(StealShare(marks[k].host, marks[k + 1].host));
  }
  std::vector<size_t> by_steal(n);
  for (size_t k = 0; k < n; ++k) by_steal[k] = k;
  std::stable_sort(by_steal.begin(), by_steal.end(), [&](size_t x, size_t y) {
    return view.steal[x] < view.steal[y];
  });
  std::vector<bool> keep(n, false);
  for (size_t r = 0; r < n; ++r) {
    const size_t k = by_steal[r];
    keep[k] = r < (n + 1) / 2 || view.steal[k] <= kMaxStealShare;
  }

  std::vector<int64_t> replies(n, 0);
  for (const ConnPhase& c : phase.conns) {
    for (const Sample& s : c.samples) {
      // The window the reply arrived in; replies after the deadline (the
      // tail still in flight) belong to none.
      const auto it = std::upper_bound(
          marks.begin(), marks.end(), s.done_ns,
          [](int64_t t, const Mark& m) { return t < m.t_ns; });
      if (it == marks.begin() || it == marks.end()) continue;
      const size_t k = static_cast<size_t>(it - marks.begin()) - 1;
      replies[k] += 1;
      if (keep[k]) view.samples.push_back(s);
    }
  }
  for (size_t k = 0; k < n; ++k) {
    const double len =
        static_cast<double>(marks[k + 1].t_ns - marks[k].t_ns) / 1e9;
    view.rates.push_back(len > 0 ? static_cast<double>(replies[k]) / len : 0.0);
    if (!keep[k]) {
      view.dropped += 1;
      continue;
    }
    view.seconds += len;
    if (marks[k].server_cpu_us < 0 || marks[k + 1].server_cpu_us < 0) {
      view.cpu_read = false;
    } else {
      view.server_cpu_us += marks[k + 1].server_cpu_us - marks[k].server_cpu_us;
    }
  }
  return view;
}

bool IsInteractive(const Sample& s) {
  return s.stream == StreamKind::kInteractive;
}
bool IsPlan(const Sample& s) { return s.stream == StreamKind::kPlan; }
bool IsMrt(const Sample& s) { return s.stream == StreamKind::kMrt; }

bool Contains(const std::vector<ConnSpec>& spec, StreamKind kind) {
  return std::any_of(spec.begin(), spec.end(),
                     [kind](const ConnSpec& c) { return c.kind == kind; });
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

int64_t SelfCpuUs() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return (usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) * 1'000'000LL +
         usage.ru_utime.tv_usec + usage.ru_stime.tv_usec;
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

// ------------------------------------------------------------------- run

struct RunState {
  Args args;
  WorkloadSpec spec;
  Fleet fleet;
  std::unique_ptr<ServerProcess> server;
  std::vector<Conn> conns;
  std::vector<std::unique_ptr<Stream>> main_streams;
  std::vector<std::unique_ptr<Stream>> probe_streams;
  std::vector<double> setup_s;
  std::vector<double> house_admit_ms;
  std::vector<double> dorms_admit_ms;
  std::vector<ServedPlan> served_plans;
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<std::string> errors;
  std::map<std::string, int64_t> sample_counts;  ///< behind each percentile
};

uint64_t StreamSeed(uint64_t seed, int phase, size_t conn) {
  return imcf::MixHash(seed, static_cast<uint64_t>(phase * 16) + conn + 1);
}

std::vector<std::unique_ptr<Stream>> MakeStreams(
    const Fleet& fleet, const std::vector<ConnSpec>& spec, uint64_t seed,
    int phase) {
  std::vector<std::unique_ptr<Stream>> streams;
  for (size_t i = 0; i < spec.size(); ++i) {
    streams.push_back(std::make_unique<Stream>(&fleet, spec[i].kind,
                                               StreamSeed(seed, phase, i)));
  }
  return streams;
}

void Absorb(RunState* run, const PhaseResult& phase) {
  for (const ConnPhase& c : phase.conns) {
    run->attempted += c.attempted;
    run->failed += c.failed;
    for (const std::string& e : c.errors) {
      if (run->errors.size() < 16) run->errors.push_back(e);
    }
    run->served_plans.insert(run->served_plans.end(), c.plans.begin(),
                             c.plans.end());
  }
}

void Absorb(RunState* run, const CheckTally& tally) {
  run->attempted += tally.attempted;
  run->failed += tally.failed;
  for (const std::string& e : tally.errors) {
    if (run->errors.size() < 16) run->errors.push_back(e);
  }
}

/// Tears down the current server, if any, then boots a fresh one and
/// connects the clients: one setup_s sample.
bool Boot(RunState* run) {
  run->conns.clear();
  if (run->server) run->server->Quit();
  run->server.reset();
  const int64_t t0 = ScopedTimer::NowNs();
  std::string error;
  run->server = ServerProcess::Spawn(run->args.exe, run->args.scale, &error);
  if (!run->server) {
    std::fprintf(stderr, "perfbench: %s\n", error.c_str());
    return false;
  }
  std::vector<Conn> conns(std::max(
      run->spec.main.size(), run->spec.probe ? MixedTraffic().size() : 0));
  for (Conn& conn : conns) {
    auto client = imcf::net::WireClient::Connect(run->server->ready().port);
    if (!client.ok()) {
      std::fprintf(stderr, "perfbench: %s\n",
                   client.status().ToString().c_str());
      return false;
    }
    conn.client = std::move(*client);
  }
  run->setup_s.push_back(static_cast<double>(ScopedTimer::NowNs() - t0) /
                         1e9);
  run->house_admit_ms.push_back(run->server->ready().house_admit_ms);
  run->dorms_admit_ms.push_back(run->server->ready().dorms_admit_ms);
  run->conns = std::move(conns);
  run->conns[0].flip_at = run->args.flip_expected;
  return true;
}

std::vector<Stream*> Ptrs(const std::vector<std::unique_ptr<Stream>>& v) {
  std::vector<Stream*> out;
  for (const auto& p : v) out.push_back(p.get());
  return out;
}

PhaseResult RunMain(RunState* run, double seconds, bool traced) {
  return RunPhase(run->conns, Ptrs(run->main_streams), run->spec.main,
                  seconds, traced, run->server.get());
}

PhaseResult RunProbe(RunState* run, double seconds, bool traced) {
  return RunPhase(run->conns, Ptrs(run->probe_streams), MixedTraffic(),
                  seconds, traced, run->server.get());
}

/// Throughput and latency figures of the streams in `kinds`.
void AddStreamMetrics(RunState* run, const PhaseView& view,
                      const std::vector<StreamKind>& kinds,
                      std::vector<Metric>* metrics) {
  auto has = [&kinds](StreamKind kind) {
    return std::find(kinds.begin(), kinds.end(), kind) != kinds.end();
  };
  auto rate = [&view](const auto& pred) {
    return static_cast<double>(Collect(view.samples, pred).size()) /
           view.seconds;
  };
  auto percentile = [run, &view](const char* name, const auto& pred,
                                 double q) {
    std::vector<int64_t> rtt = Collect(view.samples, pred);
    run->sample_counts[name] = static_cast<int64_t>(rtt.size());
    return Percentile(rtt, q);
  };
  if (has(StreamKind::kPlan)) {
    metrics->push_back({"plans_per_s", rate(IsPlan), "1/s"});
    metrics->push_back(
        {"plan_p99_ms", percentile("plan_p99_ms", IsPlan, 0.99) / 1e6, "ms"});
  }
  if (has(StreamKind::kInteractive)) {
    metrics->push_back({"interactive_per_s", rate(IsInteractive), "1/s"});
    metrics->push_back(
        {"interactive_p50_us",
         percentile("interactive_p50_us", IsInteractive, 0.50) / 1e3, "us"});
  }
  if (has(StreamKind::kMrt)) {
    metrics->push_back(
        {"mrt_p50_ms", percentile("mrt_p50_ms", IsMrt, 0.50) / 1e6, "ms"});
  }
}

int Run(const Args& args) {
  RunState run;
  run.args = args;
  if (!LookupWorkload(args.workload, &run.spec)) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                 args.workload.c_str());
    return 2;
  }
  const bool tiny = args.scale == Scale::kTiny;
  run.fleet = BuildFleet(args.scale);
  run.main_streams = MakeStreams(run.fleet, run.spec.main, args.seed, 0);
  if (run.spec.probe) {
    run.probe_streams = MakeStreams(run.fleet, MixedTraffic(), args.seed, 1);
  }

  const double warm = tiny ? 0.1 : 0.5;
  const double probe_s = run.spec.probe ? args.seconds * kProbeShare : 0.0;
  const double main_s = args.seconds - probe_s;
  std::vector<Metric> metrics;
  const HostCpu host0 = ReadHostCpu();
  const int64_t client_cpu0 = SelfCpuUs();
  int64_t server_cpu_us = 0;
  /// The measured phases of an untraced run, for the diag line.
  std::vector<std::pair<std::string, PhaseView>> views;
  bool snaps_ok = true;
  std::string trace_files;
  // Traced runs: samples, connection tallies and server deltas of every
  // traced phase, probe and main alike.
  std::vector<Sample> samples;
  std::vector<ConnPhase> conn_phases;
  ServerSnapshot d;
  ServerSnapshot life;  ///< totals over the whole life of every server

  // Set-up is timed on every boot. The probe runs on the next-to-last
  // server and the main phase on the last one, so each starts on a fresh
  // service, as the workload that owns its traffic does. Every phase
  // starts with a warm-up (checked, not timed) that fills caches and lazy
  // state.
  const int boots = tiny ? 2 : 5;
  for (int boot = 0; boot < boots; ++boot) {
    if (!Boot(&run)) return 2;
    if (boot != boots - 2 || !run.spec.probe) continue;
    Absorb(&run, RunProbe(&run, warm, false));
    ServerSnapshot before;
    if (args.trace) snaps_ok &= run.server->Snapshot(&before);
    const PhaseResult probe = RunProbe(&run, probe_s, args.trace);
    Absorb(&run, probe);
    if (!args.trace) {
      views.emplace_back("probe", View(probe));
      AddStreamMetrics(&run, views.back().second,
                       {StreamKind::kInteractive, StreamKind::kMrt}, &metrics);
      continue;
    }
    const std::vector<Sample> more = probe.Samples();
    samples.insert(samples.end(), more.begin(), more.end());
    conn_phases.insert(conn_phases.end(), probe.conns.begin(),
                       probe.conns.end());
    ServerSnapshot after;
    snaps_ok &= run.server->Snapshot(&after);
    d = after.Minus(before);
    life = after;
  }
  Absorb(&run, RunMain(&run, warm, false));

  if (!args.trace) {
    const PhaseResult main = RunMain(&run, main_s, false);
    Absorb(&run, main);
    server_cpu_us = main.marks.back().server_cpu_us -
                    main.marks.front().server_cpu_us;
    views.emplace_back("main", View(main));
    const PhaseView& view = views.back().second;
    snaps_ok &= view.cpu_read;
    std::vector<StreamKind> kinds;
    for (const ConnSpec& c : run.spec.main) kinds.push_back(c.kind);
    AddStreamMetrics(&run, view, kinds, &metrics);
    metrics.push_back(
        {"cpu_us_per_request",
         static_cast<double>(view.server_cpu_us) /
             static_cast<double>(std::max<size_t>(1, view.samples.size())),
         "us"});
    metrics.push_back({"setup_s", Median(run.setup_s), "s"});
  } else {
    // Untraced half of the main phase first (the trace_overhead
    // baseline), then the same traffic traced; per-layer figures come
    // from the traced phases.
    ServerSnapshot snap0;
    ServerSnapshot snap1;
    const PhaseResult plain = RunMain(&run, main_s / 2, false);
    Absorb(&run, plain);
    snaps_ok &= run.server->Snapshot(&snap0);
    const PhaseResult traced = RunMain(&run, main_s / 2, true);
    Absorb(&run, traced);
    const std::vector<Sample> more = traced.Samples();
    samples.insert(samples.end(), more.begin(), more.end());
    conn_phases.insert(conn_phases.end(), traced.conns.begin(),
                       traced.conns.end());
    snaps_ok &= run.server->Snapshot(&snap1);
    server_cpu_us = snap1.cpu_us - snap0.cpu_us;
    d.Add(snap1.Minus(snap0));
    life.Add(snap1);

    const std::string server_trace =
        imcf::StrFormat("%s/trace_%s_server.json", args.out_dir.c_str(),
                        args.workload.c_str());
    const std::string client_trace =
        imcf::StrFormat("%s/trace_%s_client.json", args.out_dir.c_str(),
                        args.workload.c_str());
    if (run.server->DumpTrace(server_trace)) trace_files += server_trace;
    if (imcf::obs::WriteTraceJson(imcf::obs::FlightRecorder::Default(),
                                  client_trace)) {
      trace_files += " " + client_trace;
    }

    // trace_overhead: per-request wall time traced ÷ untraced, same
    // traffic and duration.
    const double plain_per = static_cast<double>(plain.elapsed_ns) /
                             std::max<int64_t>(1, plain.Completed());
    const double traced_per = static_cast<double>(traced.elapsed_ns) /
                              std::max<int64_t>(1, traced.Completed());

    int64_t encode_ns = 0, decode_ns = 0, encoded = 0, decoded = 0;
    for (const ConnPhase& c : conn_phases) {
      encode_ns += c.encode_ns;
      decode_ns += c.decode_ns;
      encoded += c.frames_encoded;
      decoded += c.frames_decoded;
    }
    auto per = [](double num, double den) {
      return den > 0 ? num / den : 0.0;
    };
    metrics.push_back({"net.encode_ns", per(encode_ns, encoded), "ns"});
    metrics.push_back({"net.decode_ns", per(decode_ns, decoded), "ns"});
    metrics.push_back(
        {"net.bytes_per_request",
         per(d.Scalar("imcf_net_bytes_in_total") +
                 d.Scalar("imcf_net_bytes_out_total"),
             d.Scalar("imcf_net_frames_in_total")),
         "bytes"});

    // Time outside the request's own execution, and the whole round trip
    // it is part of, on the stream whose latency the workload is about:
    // interactive when the main phase has it, else plans.
    const auto focus = Contains(run.spec.main, StreamKind::kInteractive)
                           ? IsInteractive
                           : IsPlan;
    std::vector<int64_t> outside = Collect(samples, focus, true);
    std::vector<int64_t> rtt = Collect(samples, focus);
    run.sample_counts["frontdoor.outside_exec_p99_us"] =
        static_cast<int64_t>(outside.size());
    metrics.push_back({"frontdoor.outside_exec_p50_us",
                       Percentile(outside, 0.50) / 1e3, "us"});
    metrics.push_back({"frontdoor.outside_exec_p99_us",
                       Percentile(outside, 0.99) / 1e3, "us"});
    metrics.push_back(
        {"frontdoor.rtt_p99_us", Percentile(rtt, 0.99) / 1e3, "us"});

    metrics.push_back({"serve.queue_wait_p50_us",
                       d.Quantile("imcf_serve_queue_wait_ns", 0.50) / 1e3,
                       "us"});
    metrics.push_back({"serve.queue_wait_p99_us",
                       d.Quantile("imcf_serve_queue_wait_ns", 0.99) / 1e3,
                       "us"});
    run.sample_counts["serve.queue_wait_p99_us"] =
        d.Count("imcf_serve_queue_wait_ns");
    const std::pair<const char*, RequestKind> kinds[] = {
        {"serve.exec_p50_us.plan", RequestKind::kPlan},
        {"serve.exec_p50_us.query", RequestKind::kQuery},
        {"serve.exec_p50_us.command", RequestKind::kCommand},
        {"serve.exec_p50_us.mrt_update", RequestKind::kMrtUpdate}};
    for (const auto& [name, kind] : kinds) {
      std::vector<int64_t> wall;
      for (const Sample& s : samples) {
        if (s.kind == kind) wall.push_back(s.wall_ns);
      }
      run.sample_counts[name] = static_cast<int64_t>(wall.size());
      metrics.push_back({name, Percentile(wall, 0.50) / 1e3, "us"});
    }
    metrics.push_back({"serve.pool_wait_p50_us",
                       d.Quantile("imcf_pool_task_wait_ns", 0.50) / 1e3,
                       "us"});
    metrics.push_back({"serve.pool_run_p50_us",
                       d.Quantile("imcf_pool_task_run_ns", 0.50) / 1e3, "us"});

    const imcf::obs::TenantCost& c = d.ledger;
    const double plans_ok = static_cast<double>(c.plans_ok);
    metrics.push_back(
        {"core.plan_us_per_plan",
         per(c.phase_ns[static_cast<int>(imcf::obs::CostPhase::kPlan)],
             plans_ok) / 1e3,
         "us"});
    metrics.push_back({"core.flip_evals_per_plan",
                       per(c.flip_evals, plans_ok), "count"});
    metrics.push_back({"core.arena_bytes_per_plan",
                       per(c.arena_bytes, plans_ok), "bytes"});
    const double hits = d.Scalar("imcf_evaluator_cache_hits_total");
    const double misses = d.Scalar("imcf_evaluator_cache_misses_total");
    metrics.push_back(
        {"core.evaluator_hit_ratio", per(hits, hits + misses), "ratio"});
    metrics.push_back(
        {"sim.us_per_plan",
         per(c.phase_ns[static_cast<int>(imcf::obs::CostPhase::kSim)],
             plans_ok) / 1e3,
         "us"});
    metrics.push_back({"sim.admit_ms_house", Median(run.house_admit_ms), "ms"});
    metrics.push_back({"sim.admit_ms_dorms", Median(run.dorms_admit_ms), "ms"});

    // The conflict pass runs at admission and on every MRT update, so its
    // figures cover the servers' whole lives: set-up plus every phase.
    const double checks = life.Scalar("imcf_conflict_checks_total");
    metrics.push_back(
        {"conflict.us_per_check",
         per(life.ledger
                 .phase_ns[static_cast<int>(imcf::obs::CostPhase::kConflict)],
             checks) / 1e3,
         "us"});
    metrics.push_back(
        {"conflict.rules_per_check",
         per(life.Scalar("imcf_conflict_rules_analyzed_total"), checks),
         "count"});
    metrics.push_back(
        {"conflict.reject_ratio",
         per(life.Scalar("imcf_conflict_rejections_total"), checks),
         "ratio"});

    int64_t commands = 0, retries = 0;
    double wall_sum = 0.0;
    for (const Sample& s : samples) {
      wall_sum += static_cast<double>(s.wall_ns);
      if (s.kind != RequestKind::kCommand) continue;
      commands += 1;
      retries += s.command_attempts - 1;
    }
    metrics.push_back(
        {"fault.bus_us_per_command",
         per(c.phase_ns[static_cast<int>(imcf::obs::CostPhase::kCommandBus)],
             static_cast<double>(c.commands_ok)) / 1e3,
         "us"});
    metrics.push_back({"fault.retries_per_command",
                       per(static_cast<double>(retries),
                           static_cast<double>(commands)),
                       "count"});

    // In-process probes run once the wire phases are over and the server
    // has stopped, so they measure the primitives alone.
    run.server->Quit();
    const ObsProbe obs = MeasureObsPrimitives(tiny ? 20'000 : 200'000);
    metrics.push_back({"obs.span_ns_1t", obs.span_ns_1t, "ns"});
    metrics.push_back({"obs.span_ns_2t", obs.span_ns_2t, "ns"});
    metrics.push_back({"obs.ledger_add_ns_1t", obs.ledger_add_ns_1t, "ns"});
    metrics.push_back({"obs.ledger_add_ns_2t", obs.ledger_add_ns_2t, "ns"});

    std::vector<Stream> replay_streams;
    std::vector<int> windows;
    for (size_t i = 0; i < run.spec.main.size(); ++i) {
      replay_streams.emplace_back(&run.fleet, run.spec.main[i].kind,
                                  StreamSeed(args.seed, 8, i));
      windows.push_back(run.spec.main[i].window);
    }
    const int waves = tiny ? 2 : 16;
    const ReplayResult replay =
        ReplayInProcess(run.fleet, replay_streams, windows, waves);
    Absorb(&run, replay.tally);
    metrics.push_back({"serve.submit_ns", replay.submit_ns, "ns"});
    metrics.push_back(
        {"serve.drain_ns_per_request", replay.drain_ns_per_request, "ns"});
    metrics.push_back({"obs.spans_per_plan", replay.spans_per_plan, "count"});

    double attributed = 0.0;
    for (size_t i = 0; i < imcf::obs::kNumCostPhases; ++i) {
      if (i == static_cast<size_t>(imcf::obs::CostPhase::kQueueWait)) continue;
      attributed += static_cast<double>(c.phase_ns[i]);
    }
    metrics.push_back({"obs.unattributed_share",
                       1.0 - per(attributed, wall_sum), "ratio"});
    metrics.push_back(
        {"trace_overhead", per(traced_per, plain_per), "ratio"});
  }

  // Determinism witness over a seeded sample of the plans served.
  std::vector<ServedPlan> sample;
  imcf::Rng pick(imcf::MixHash(args.seed, 0x5749544eULL));
  const size_t want = tiny ? 2 : 6;
  std::vector<ServedPlan> pool = run.served_plans;
  while (sample.size() < want && !pool.empty()) {
    const size_t i = static_cast<size_t>(
        pick.UniformInt(0, static_cast<int64_t>(pool.size()) - 1));
    sample.push_back(pool[i]);
    pool[i] = pool.back();
    pool.pop_back();
  }
  if (sample.empty()) {
    run.failed += 1;
    run.errors.push_back("no plan was served, so the witness cannot run");
  }
  Absorb(&run, ReplayPlanWitness(run.fleet, sample));

  run.conns.clear();
  const bool server_ok = run.server->Quit();
  if (!server_ok) {
    run.failed += 1;
    run.errors.push_back("server process did not exit cleanly");
  }
  if (!snaps_ok) {
    run.failed += 1;
    run.errors.push_back("server CPU or snapshot could not be read");
  }
  const HostCpu host1 = ReadHostCpu();
  for (const Metric& m : metrics) {
    if (!std::isfinite(m.value)) {
      run.failed += 1;
      run.errors.push_back("metric " + m.name + " is not finite");
    }
  }
  const bool correct = run.failed == 0;

  // Diagnostics: outside the gated metrics, so drift shows in the record.
  const double steal = StealShare(host0, host1);
  std::printf("{\"diag\": {\"workload\": \"%s\", \"seed\": %" PRIu64
              ", \"trace\": %d, \"build_type\": \"%s\", \"git_sha\": "
              "\"%s\", \"src_digest\": \"%s\", \"host_steal_share\": %.6f, "
              "\"server_cpu_s\": %.6f, \"client_cpu_s\": %.6f, "
              "\"setup_s_samples\": [",
              args.workload.c_str(), args.seed, args.trace ? 1 : 0,
              PERFBENCH_BUILD_TYPE, JsonEscape(args.git_sha).c_str(),
              JsonEscape(args.src_digest).c_str(), steal,
              static_cast<double>(server_cpu_us) / 1e6,
              static_cast<double>(SelfCpuUs() - client_cpu0) / 1e6);
  for (size_t i = 0; i < run.setup_s.size(); ++i) {
    std::printf("%s%.6f", i ? ", " : "", run.setup_s[i]);
  }
  std::printf("], \"max_steal_share\": %.3f, \"windows\": {",
              kMaxStealShare);
  for (size_t w = 0; w < views.size(); ++w) {
    const PhaseView& view = views[w].second;
    std::printf("%s\"%s\": {\"count\": %d, \"dropped\": %d, \"rate\": [",
                w ? ", " : "", views[w].first.c_str(), view.windows,
                view.dropped);
    for (size_t i = 0; i < view.rates.size(); ++i) {
      std::printf("%s%.1f", i ? ", " : "", view.rates[i]);
    }
    std::printf("], \"steal\": [");
    for (size_t i = 0; i < view.steal.size(); ++i) {
      std::printf("%s%.3f", i ? ", " : "", view.steal[i]);
    }
    std::printf("]}");
  }
  std::printf("}, \"samples\": {");
  bool first = true;
  for (const auto& [name, n] : run.sample_counts) {
    std::printf("%s\"%s\": %" PRId64, first ? "" : ", ", name.c_str(), n);
    first = false;
  }
  std::printf("}, \"traces\": \"%s\", \"errors\": [",
              JsonEscape(trace_files).c_str());
  for (size_t i = 0; i < run.errors.size(); ++i) {
    std::printf("%s\"%s\"", i ? ", " : "", JsonEscape(run.errors[i]).c_str());
  }
  std::printf("]}}\n");
  for (const std::string& e : run.errors) {
    std::fprintf(stderr, "perfbench: %s\n", e.c_str());
  }

  std::printf("{\"correct\": %s, \"attempted\": %" PRId64
              ", \"failed\": %" PRId64 ", \"metrics\": {",
              correct ? "true" : "false", run.attempted, run.failed);
  for (size_t i = 0; i < metrics.size(); ++i) {
    const double value = std::isfinite(metrics[i].value) ? metrics[i].value
                                                         : 0.0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i ? ", " : "", metrics[i].name.c_str(), value,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
  return correct ? 0 : 1;
}

bool ParseArgs(int argc, char** argv, Args* args, bool* serve) {
  args->exe = argv[0];
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--serve") {
      *serve = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      args->trace = value == "1";
    } else if (flag == "--scale") {
      if (value != "full" && value != "tiny") return false;
      args->scale = value == "tiny" ? Scale::kTiny : Scale::kFull;
    } else if (flag == "--out-dir") {
      args->out_dir = value;
    } else if (flag == "--flip-expected") {
      args->flip_expected = std::atoll(value.c_str());
    } else if (flag == "--git-sha") {
      args->git_sha = value;
    } else if (flag == "--src-digest") {
      args->src_digest = value;
    } else {
      return false;
    }
  }
  return *serve || args->seconds > 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  bool serve = false;
  if (!perfbench::ParseArgs(argc, argv, &args, &serve)) {
    std::fprintf(stderr,
                 "usage: %s --workload plan|mixed --seed N "
                 "--seconds S --trace 0|1 [--scale full|tiny] "
                 "[--out-dir DIR] [--flip-expected K]\n",
                 argv[0]);
    return 2;
  }
  if (serve) return perfbench::ServeMain(args.scale);
  return perfbench::Run(args);
}
