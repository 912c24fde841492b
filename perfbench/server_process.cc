#include "server_process.h"

#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cinttypes>
#include <cstring>
#include <sstream>

#include "net/server.h"
#include "obs/metrics.h"
#include "obs/scoped_timer.h"
#include "serve/fleet_service.h"

namespace perfbench {

namespace {

double MedianMs(std::vector<int64_t> ns) {
  if (ns.empty()) return 0.0;
  std::sort(ns.begin(), ns.end());
  return static_cast<double>(ns[ns.size() / 2]) / 1e6;
}

int64_t ProcessCpuUs() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return (usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) * 1'000'000LL +
         usage.ru_utime.tv_usec + usage.ru_stime.tv_usec;
}

/// Writes the "snap" reply: one line per metric family member, then the
/// ledger totals, then "end".
void WriteSnapshot(const imcf::serve::FleetService& service) {
  std::printf("cpu %" PRId64 "\n", ProcessCpuUs());
  for (const imcf::obs::MetricSnapshot& m :
       imcf::obs::MetricRegistry::Default().Snapshot()) {
    if (m.type != imcf::obs::MetricType::kHistogram) {
      std::printf("s %s %.17g\n", m.name.c_str(), m.value);
      continue;
    }
    std::printf("h %s %" PRId64 " %.17g %zu", m.name.c_str(), m.count, m.sum,
                m.bounds.size());
    for (double b : m.bounds) std::printf(" %.17g", b);
    for (int64_t c : m.buckets) std::printf(" %" PRId64, c);
    std::printf("\n");
  }
  imcf::obs::TenantCost total;
  for (const auto& row : service.cost_ledger().Snapshot()) total += row.cost;
  std::printf("l");
  for (int64_t ns : total.phase_ns) std::printf(" %" PRId64, ns);
  std::printf(" %" PRId64 " %" PRId64 " %" PRId64 " %" PRId64 " %" PRId64
              " %" PRId64 " %" PRId64 " %" PRId64 " %" PRId64 " %" PRId64
              " %" PRId64 " %" PRId64 "\n",
              total.arena_bytes, total.flip_evals, total.plans_ok,
              total.commands_ok, total.queries_ok, total.mrt_updates_ok,
              total.errors, total.sheds, total.deadline_misses, total.faults,
              total.conflict_rejections, total.total_ns());
  std::printf("end\n");
  std::fflush(stdout);
}

bool ParseSnapshotLine(const std::string& line, ServerSnapshot* out) {
  std::istringstream in(line);
  std::string tag;
  in >> tag;
  if (tag == "cpu") {
    in >> out->cpu_us;
  } else if (tag == "s") {
    std::string name;
    double value = 0;
    in >> name >> value;
    out->scalars[name] += value;
  } else if (tag == "h") {
    std::string name;
    ServerSnapshot::Hist h;
    size_t n = 0;
    in >> name >> h.count >> h.sum >> n;
    h.bounds.resize(n);
    h.buckets.resize(n + 1);
    for (double& b : h.bounds) in >> b;
    for (int64_t& c : h.buckets) in >> c;
    auto [it, fresh] = out->hists.emplace(name, h);
    if (!fresh) {
      // Another label set of the same family: sum bucket-wise.
      if (it->second.bounds != h.bounds) return false;
      for (size_t i = 0; i < h.buckets.size(); ++i) {
        it->second.buckets[i] += h.buckets[i];
      }
      it->second.count += h.count;
      it->second.sum += h.sum;
    }
  } else if (tag == "l") {
    imcf::obs::TenantCost& c = out->ledger;
    for (int64_t& ns : c.phase_ns) in >> ns;
    int64_t total_ns = 0;
    in >> c.arena_bytes >> c.flip_evals >> c.plans_ok >> c.commands_ok >>
        c.queries_ok >> c.mrt_updates_ok >> c.errors >> c.sheds >>
        c.deadline_misses >> c.faults >> c.conflict_rejections >> total_ns;
  } else {
    return false;
  }
  return !in.fail();
}

}  // namespace

ServerSnapshot ServerSnapshot::Minus(const ServerSnapshot& earlier) const {
  ServerSnapshot d = *this;
  d.cpu_us -= earlier.cpu_us;
  for (auto& [name, value] : d.scalars) value -= earlier.Scalar(name);
  for (auto& [name, h] : d.hists) {
    auto it = earlier.hists.find(name);
    if (it == earlier.hists.end()) continue;
    for (size_t i = 0; i < h.buckets.size(); ++i) {
      h.buckets[i] -= it->second.buckets[i];
    }
    h.count -= it->second.count;
    h.sum -= it->second.sum;
  }
  imcf::obs::TenantCost& c = d.ledger;
  const imcf::obs::TenantCost& e = earlier.ledger;
  for (size_t i = 0; i < imcf::obs::kNumCostPhases; ++i) {
    c.phase_ns[i] -= e.phase_ns[i];
  }
  c.arena_bytes -= e.arena_bytes;
  c.flip_evals -= e.flip_evals;
  c.plans_ok -= e.plans_ok;
  c.commands_ok -= e.commands_ok;
  c.queries_ok -= e.queries_ok;
  c.mrt_updates_ok -= e.mrt_updates_ok;
  c.errors -= e.errors;
  c.sheds -= e.sheds;
  c.deadline_misses -= e.deadline_misses;
  c.faults -= e.faults;
  c.conflict_rejections -= e.conflict_rejections;
  return d;
}

void ServerSnapshot::Add(const ServerSnapshot& other) {
  cpu_us += other.cpu_us;
  for (const auto& [name, value] : other.scalars) scalars[name] += value;
  for (const auto& [name, h] : other.hists) {
    auto [it, fresh] = hists.emplace(name, h);
    if (fresh || it->second.bounds != h.bounds) continue;
    for (size_t i = 0; i < h.buckets.size(); ++i) {
      it->second.buckets[i] += h.buckets[i];
    }
    it->second.count += h.count;
    it->second.sum += h.sum;
  }
  ledger += other.ledger;
}

double ServerSnapshot::Scalar(const std::string& name) const {
  auto it = scalars.find(name);
  return it == scalars.end() ? 0.0 : it->second;
}

int64_t ServerSnapshot::Count(const std::string& name) const {
  auto it = hists.find(name);
  return it == hists.end() ? 0 : it->second.count;
}

double ServerSnapshot::Quantile(const std::string& name, double q) const {
  auto it = hists.find(name);
  if (it == hists.end() || it->second.count <= 0) return 0.0;
  const Hist& h = it->second;
  const double rank = q * static_cast<double>(h.count);
  double seen = 0.0;
  for (size_t i = 0; i < h.buckets.size(); ++i) {
    const double in_bucket = static_cast<double>(h.buckets[i]);
    if (in_bucket > 0 && seen + in_bucket >= rank) {
      const double lo = i == 0 ? 0.0 : h.bounds[i - 1];
      // The overflow bucket has no upper edge; report its lower edge.
      if (i == h.bounds.size()) return lo;
      const double hi = h.bounds[i];
      return lo + (hi - lo) * (rank - seen) / in_bucket;
    }
    seen += in_bucket;
  }
  return h.bounds.empty() ? 0.0 : h.bounds.back();
}

std::unique_ptr<ServerProcess> ServerProcess::Spawn(const std::string& exe,
                                                    Scale scale,
                                                    std::string* error) {
  int to_child[2];
  int from_child[2];
  if (pipe(to_child) != 0) {
    *error = std::string("pipe: ") + std::strerror(errno);
    return nullptr;
  }
  if (pipe(from_child) != 0) {
    *error = std::string("pipe: ") + std::strerror(errno);
    close(to_child[0]);
    close(to_child[1]);
    return nullptr;
  }
  const char* scale_arg = scale == Scale::kFull ? "full" : "tiny";
  const pid_t pid = fork();
  if (pid < 0) {
    *error = std::string("fork: ") + std::strerror(errno);
    for (int fd : {to_child[0], to_child[1], from_child[0], from_child[1]}) {
      close(fd);
    }
    return nullptr;
  }
  if (pid == 0) {
    // Child: only async-signal-safe calls until exec.
    dup2(to_child[0], STDIN_FILENO);
    dup2(from_child[1], STDOUT_FILENO);
    close(to_child[0]);
    close(to_child[1]);
    close(from_child[0]);
    close(from_child[1]);
    execl(exe.c_str(), exe.c_str(), "--serve", "--scale", scale_arg,
          static_cast<char*>(nullptr));
    _exit(127);
  }
  close(to_child[0]);
  close(from_child[1]);
  auto process = std::unique_ptr<ServerProcess>(new ServerProcess());
  process->pid_ = pid;
  process->to_child_ = fdopen(to_child[1], "w");
  process->from_child_ = fdopen(from_child[0], "r");
  std::string line;
  if (!process->ReadLine(&line)) {
    *error = "server exited before it was ready";
    return nullptr;
  }
  ServerReady& ready = process->ready_;
  if (std::sscanf(line.c_str(), "ready %d %lf %lf", &ready.port,
                  &ready.house_admit_ms, &ready.dorms_admit_ms) != 3) {
    *error = "bad ready line from server: " + line;
    return nullptr;
  }
  return process;
}

ServerProcess::~ServerProcess() { Quit(); }

bool ServerProcess::ReadLine(std::string* line) {
  line->clear();
  if (from_child_ == nullptr) return false;
  char buf[1 << 16];
  while (std::fgets(buf, sizeof(buf), from_child_) != nullptr) {
    line->append(buf);
    if (!line->empty() && line->back() == '\n') {
      line->pop_back();
      return true;
    }
  }
  return false;
}

bool ServerProcess::Snapshot(ServerSnapshot* out) {
  *out = ServerSnapshot{};
  if (to_child_ == nullptr) return false;
  std::fputs("snap\n", to_child_);
  std::fflush(to_child_);
  std::string line;
  while (ReadLine(&line)) {
    if (line == "end") return true;
    if (!ParseSnapshotLine(line, out)) return false;
  }
  return false;
}

int64_t ServerProcess::CpuUs() {
  if (to_child_ == nullptr) return -1;
  std::fputs("cpu\n", to_child_);
  std::fflush(to_child_);
  std::string line;
  return ReadLine(&line) ? std::strtoll(line.c_str(), nullptr, 10) : -1;
}

bool ServerProcess::DumpTrace(const std::string& path) {
  if (to_child_ == nullptr) return false;
  std::fprintf(to_child_, "trace %s\n", path.c_str());
  std::fflush(to_child_);
  std::string line;
  return ReadLine(&line) && line == "ok";
}

bool ServerProcess::Quit() {
  if (pid_ < 0) return exited_ok_;
  if (to_child_ != nullptr) {
    std::fputs("quit\n", to_child_);
    std::fclose(to_child_);  // EOF also stops the child
    to_child_ = nullptr;
  }
  if (from_child_ != nullptr) {
    std::fclose(from_child_);
    from_child_ = nullptr;
  }
  int status = 0;
  while (waitpid(pid_, &status, 0) < 0 && errno == EINTR) {
  }
  pid_ = -1;
  exited_ok_ = WIFEXITED(status) && WEXITSTATUS(status) == 0;
  return exited_ok_;
}

int ServeMain(Scale scale) {
  const Fleet fleet = BuildFleet(scale);
  auto service = imcf::serve::FleetService::Create(BenchFleetOptions(2));
  if (!service.ok()) {
    std::fprintf(stderr, "serve: %s\n", service.status().ToString().c_str());
    return 1;
  }
  std::vector<int64_t> house_ns;
  std::vector<int64_t> dorms_ns;
  for (const imcf::serve::TenantConfig& config : fleet.tenants) {
    const int64_t t0 = imcf::obs::ScopedTimer::NowNs();
    const imcf::Status admitted = (*service)->AddTenant(config);
    const int64_t ns = imcf::obs::ScopedTimer::NowNs() - t0;
    if (!admitted.ok()) {
      std::fprintf(stderr, "serve: admitting %s: %s\n", config.id.c_str(),
                   admitted.ToString().c_str());
      return 1;
    }
    (config.dataset == "dorms" ? dorms_ns : house_ns).push_back(ns);
  }

  imcf::net::WireServerOptions wire;
  wire.port = 0;
  wire.idle_timeout_ms = 0;  // the client's connections idle between phases
  wire.epoll_wait_ms = 5;
  auto server = imcf::net::WireServer::Start(service->get(), wire);
  if (!server.ok()) {
    std::fprintf(stderr, "serve: %s\n", server.status().ToString().c_str());
    return 1;
  }
  std::printf("ready %d %.17g %.17g\n", (*server)->port(), MedianMs(house_ns),
              MedianMs(dorms_ns));
  std::fflush(stdout);

  char buf[4096];
  while (std::fgets(buf, sizeof(buf), stdin) != nullptr) {
    std::string command(buf);
    while (!command.empty() &&
           (command.back() == '\n' || command.back() == '\r')) {
      command.pop_back();
    }
    if (command == "snap") {
      WriteSnapshot(**service);
    } else if (command == "cpu") {
      std::printf("%" PRId64 "\n", ProcessCpuUs());
      std::fflush(stdout);
    } else if (command.rfind("trace ", 0) == 0) {
      const bool ok = (*service)->DumpTrace(command.substr(6));
      std::printf("%s\n", ok ? "ok" : "fail");
      std::fflush(stdout);
    } else if (command == "quit") {
      break;
    }
  }
  (*server)->Stop();
  return 0;
}

}  // namespace perfbench
