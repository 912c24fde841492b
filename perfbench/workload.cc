#include "workload.h"

#include <cmath>

#include "common/strings.h"
#include "fault/fault_plan.h"
#include "rules/trigger_rule.h"
#include "trace/dataset.h"

namespace perfbench {

using imcf::serve::RequestKind;
using imcf::serve::ServeOutcome;
using imcf::serve::TenantConfig;

namespace {

constexpr int kShards = 8;
constexpr int kWeekHours = 168;

/// The two halves of an inter-tenant command loop: HVAC output commands
/// the lights, and light level commands the HVAC. The anchor is admitted
/// with the first; an updater adopting the second closes the loop, which
/// the conflict pass must veto.
imcf::rules::TriggerRule HvacToLight() {
  return imcf::rules::TriggerRule::OnTemperature(
      imcf::rules::TriggerOp::kGreaterThan, 24.0,
      imcf::rules::RuleAction::kSetLight, 0.0);
}
imcf::rules::TriggerRule LightToHvac() {
  return imcf::rules::TriggerRule::OnLightLevel(
      imcf::rules::TriggerOp::kLessThan, 10.0,
      imcf::rules::RuleAction::kSetTemperature, 26.0);
}

int ShardOf(const std::string& id) {
  return static_cast<int>(imcf::fault::ChannelHash(id) % kShards);
}

TenantConfig WeekTenant(std::string id, const char* dataset, uint64_t seed) {
  TenantConfig config;
  config.id = std::move(id);
  config.dataset = dataset;
  config.seed = seed;
  config.hours = kWeekHours;
  return config;
}

int UnitsOf(const TenantConfig& config) {
  static const int kDormsUnits = imcf::trace::DormsSpec().units;
  static const int kHouseUnits = imcf::trace::HouseSpec().units;
  return config.dataset == "dorms" ? kDormsUnits : kHouseUnits;
}

}  // namespace

Fleet BuildFleet(Scale scale) {
  const int dorms = scale == Scale::kFull ? 36 : 2;
  const int houses = scale == Scale::kFull ? 160 : 6;
  const int updaters = scale == Scale::kFull ? 4 : 2;

  // The fleet is the same for every workload seed: the seed varies the
  // request streams only, so runs with different seeds measure the same
  // service state.
  Fleet fleet;
  auto tenant_seed = [](uint64_t salt) {
    return 1 + imcf::MixHash(0x464c454554ULL, salt) % 1'000'000;
  };
  for (int i = 0; i < dorms; ++i) {
    fleet.tenants.push_back(WeekTenant(imcf::StrFormat("dorms-%02d", i),
                                       "dorms", tenant_seed(1000 + i)));
  }
  for (int i = 0; i < houses; ++i) {
    fleet.tenants.push_back(WeekTenant(imcf::StrFormat("house-%03d", i),
                                       "house", tenant_seed(2000 + i)));
  }
  fleet.anchor = "anchor";
  TenantConfig anchor = WeekTenant(fleet.anchor, "house", tenant_seed(3000));
  anchor.extra_recipes = {HvacToLight()};
  fleet.tenants.push_back(anchor);
  for (const TenantConfig& config : fleet.tenants) {
    fleet.plan_pool.push_back(config.id);
  }

  // Updaters live in the anchor's shard: only there does adopting the
  // reverse half of the cycle close a loop in the shard's command graph.
  const int anchor_shard = ShardOf(fleet.anchor);
  for (int i = 0; static_cast<int>(fleet.updaters.size()) < updaters; ++i) {
    std::string id = imcf::StrFormat("updater-%02d", i);
    if (ShardOf(id) != anchor_shard) continue;
    fleet.tenants.push_back(
        WeekTenant(id, "house", tenant_seed(4000 + static_cast<uint64_t>(i))));
    fleet.updaters.push_back(std::move(id));
  }
  return fleet;
}

imcf::serve::FleetOptions BenchFleetOptions(int workers) {
  imcf::serve::FleetOptions options;
  options.shards = kShards;
  options.workers = workers;
  // Far above the most requests the clients ever have in flight (13), so
  // admission never sheds: a shed reply is a correctness failure here.
  options.queue_capacity = 4096;
  return options;
}

Stream::Stream(const Fleet* fleet, StreamKind kind, uint64_t seed)
    : fleet_(fleet), kind_(kind), rng_(seed) {}

Expected Stream::Next() {
  switch (kind_) {
    case StreamKind::kPlan:
      return NextPlan();
    case StreamKind::kInteractive:
      return NextInteractive();
    case StreamKind::kMrt:
      return NextMrt();
  }
  return NextPlan();
}

Expected Stream::NextPlan() {
  Expected out;
  out.stream = StreamKind::kPlan;
  imcf::serve::Request& request = out.request;
  // Every tenant of the pool once per round, in a seeded order: the share
  // of dorms-week plans is the same in every run, whatever the seed.
  const auto& pool = fleet_->plan_pool;
  if (next_in_round_ == round_.size()) {
    round_.resize(pool.size());
    for (size_t i = 0; i < round_.size(); ++i) round_[i] = i;
    for (size_t i = round_.size(); i > 1; --i) {
      std::swap(round_[i - 1], round_[static_cast<size_t>(rng_.UniformInt(
                                   0, static_cast<int64_t>(i) - 1))]);
    }
    next_in_round_ = 0;
  }
  request.tenant = pool[round_[next_in_round_++]];
  request.kind = RequestKind::kPlan;
  request.issue_time = imcf::trace::EvaluationStart();
  request.plan.policy = imcf::sim::Policy::kEnergyPlanner;
  request.plan.rep = static_cast<int>(rng_.UniformInt(0, 9999));
  return out;
}

Expected Stream::NextInteractive() {
  Expected out;
  out.stream = StreamKind::kInteractive;
  imcf::serve::Request& request = out.request;
  const TenantConfig& tenant = fleet_->tenants[static_cast<size_t>(
      rng_.UniformInt(0, static_cast<int64_t>(fleet_->tenants.size()) - 1))];
  request.tenant = tenant.id;
  request.issue_time =
      imcf::trace::EvaluationStart() +
      rng_.UniformInt(0, kWeekHours - 1) * imcf::kSecondsPerHour;
  const int units = UnitsOf(tenant);
  const int64_t roll = rng_.UniformInt(0, 99);
  if (roll < 60) {
    request.kind = RequestKind::kQuery;
    request.query.kind = imcf::serve::QueryKind::kContext;
    request.query.unit = static_cast<int>(rng_.UniformInt(0, units - 1));
  } else if (roll < 80) {
    request.kind = RequestKind::kQuery;
    request.query.kind = imcf::serve::QueryKind::kStatus;
  } else {
    request.kind = RequestKind::kCommand;
    request.command.unit = static_cast<int>(rng_.UniformInt(0, units - 1));
    if (rng_.Bernoulli(0.5)) {
      request.command.type = imcf::devices::CommandType::kSetTemperature;
      request.command.value = rng_.UniformDouble(19.0, 26.0);
    } else {
      request.command.type = imcf::devices::CommandType::kSetLight;
      request.command.value = rng_.UniformDouble(0.0, 100.0);
    }
  }
  return out;
}

Expected Stream::NextMrt() {
  Expected out;
  out.stream = StreamKind::kMrt;
  imcf::serve::Request& request = out.request;
  const auto& updaters = fleet_->updaters;
  request.tenant = updaters[static_cast<size_t>(
      rng_.UniformInt(0, static_cast<int64_t>(updaters.size()) - 1))];
  request.kind = RequestKind::kMrtUpdate;
  request.issue_time = imcf::trace::EvaluationStart();
  if (rng_.UniformInt(0, 3) == 0) {
    // The designed veto: adopt the reverse half of the anchor's cycle.
    request.mrt_update.set_recipes = true;
    request.mrt_update.extra_recipes = {LightToHvac()};
    out.outcome = ServeOutcome::kConflictRejected;
  } else {
    request.mrt_update.seed =
        static_cast<uint64_t>(rng_.UniformInt(1, 1'000'000));
  }
  return out;
}

std::string CheckReply(const Expected& expected,
                       const imcf::serve::Response& response) {
  const imcf::serve::Request& request = expected.request;
  if (response.outcome != expected.outcome) {
    return imcf::StrFormat(
        "%s on %s: outcome %s, expected %s",
        imcf::serve::RequestKindName(request.kind), request.tenant.c_str(),
        imcf::serve::ServeOutcomeName(response.outcome),
        imcf::serve::ServeOutcomeName(expected.outcome));
  }
  if (response.kind != request.kind || response.tenant != request.tenant) {
    return "reply names another request: " + response.tenant;
  }
  if (response.outcome != ServeOutcome::kOk) return "";
  switch (request.kind) {
    case RequestKind::kPlan:
      if (!std::isfinite(response.plan.fe_kwh) ||
          !std::isfinite(response.plan.fce_pct) || response.plan.fe_kwh < 0) {
        return "plan on " + request.tenant + ": non-finite F_E/F_CE";
      }
      break;
    case RequestKind::kCommand:
      if (response.command_attempts < 1) {
        return "command on " + request.tenant + ": no delivery attempt";
      }
      break;
    case RequestKind::kQuery:
      if (request.query.kind == imcf::serve::QueryKind::kStatus &&
          response.tenant_status.devices <= 0) {
        return "status query on " + request.tenant + ": no devices";
      }
      break;
    case RequestKind::kMrtUpdate:
      break;
  }
  return "";
}

}  // namespace perfbench
