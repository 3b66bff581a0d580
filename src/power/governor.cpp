#include "hetmem/power/governor.hpp"

#include <climits>
#include <string>
#include <utility>

#include "hetmem/memattr/compose.hpp"
#include "hetmem/power/power.hpp"
#include "hetmem/support/units.hpp"

namespace hetmem::power {

namespace {

/// "draw <watts> W > cap <watts> W", why the governor drained or throttled.
std::string over_cap_reason(double draw, double cap) {
  std::string reason = "draw ";
  support::append_fixed(reason, draw, 1);
  reason += " W > cap ";
  support::append_fixed(reason, cap, 1);
  reason += " W";
  return reason;
}

}  // namespace

const char* power_verdict_name(PowerVerdict verdict) {
  switch (verdict) {
    case PowerVerdict::kDrained: return "drained";
    case PowerVerdict::kThrottled: return "throttled";
    case PowerVerdict::kNoTarget: return "no-target";
    case PowerVerdict::kBudgetExhausted: return "budget-exhausted";
    case PowerVerdict::kTenantDenied: return "tenant-denied";
    case PowerVerdict::kFailedMigrate: return "failed-migrate";
  }
  return "?";
}

PowerGovernor::PowerGovernor(alloc::HeterogeneousAllocator& allocator,
                             runtime::MigrationEngine& engine,
                             support::Bitmap initiator, GovernorOptions options)
    : allocator_(&allocator),
      broker_(&engine.broker()),
      initiator_(std::move(initiator)),
      options_(options),
      over_streak_(allocator.machine().topology().numa_nodes().size(), 0) {}

double PowerGovernor::machine_draw_watts() const {
  const sim::SimMachine& machine = allocator_->machine();
  double total = 0.0;
  for (unsigned node = 0; node < over_streak_.size(); ++node) {
    total += machine.power_draw_watts(node);
  }
  return total;
}

bool PowerGovernor::near_cap() const {
  const double cap = allocator_->machine().power_cap_watts();
  if (cap <= 0.0) return false;
  return machine_draw_watts() >= options_.near_cap_fraction * cap;
}

unsigned PowerGovernor::pick_offender() const {
  sim::SimMachine& machine = allocator_->machine();
  unsigned offender = UINT_MAX;
  double worst_draw = -1.0;
  for (unsigned node = 0; node < over_streak_.size(); ++node) {
    if (machine.live_buffers_on(node).empty()) continue;
    const double draw = machine.power_draw_watts(node);
    if (draw > worst_draw) {
      worst_draw = draw;
      offender = node;
    }
  }
  return offender;
}

void PowerGovernor::log(std::uint64_t epoch, unsigned node, sim::BufferId buffer,
                        std::string label, unsigned to_node, std::uint64_t bytes,
                        PowerVerdict verdict, std::string reason) {
  PowerDecision decision;
  decision.epoch = epoch;
  decision.node = node;
  decision.buffer = buffer;
  decision.label = std::move(label);
  decision.to_node = to_node;
  decision.bytes = bytes;
  decision.verdict = verdict;
  decision.reason = std::move(reason);
  decisions_.push_back(std::move(decision));
}

std::string PowerGovernor::render_log() const {
  std::string out;
  for (const PowerDecision& decision : decisions_) {
    out += "epoch ";
    out += std::to_string(decision.epoch);
    out += ' ';
    out += power_verdict_name(decision.verdict);
    out += " node";
    out += std::to_string(decision.node);
    if (decision.verdict == PowerVerdict::kDrained) {
      out += " -> node";
      out += std::to_string(decision.to_node);
    }
    if (!decision.label.empty()) {
      out += " '";
      out += decision.label;
      out += '\'';
    }
    if (decision.bytes != 0) {
      out += ' ';
      out += std::to_string(decision.bytes);
      out += 'B';
    }
    if (!decision.reason.empty()) {
      out += " (";
      out += decision.reason;
      out += ')';
    }
    out += '\n';
  }
  return out;
}

double PowerGovernor::run_epoch(std::uint64_t epoch_index, unsigned threads) {
  (void)threads;
  sim::SimMachine& machine = allocator_->machine();
  const double cap = machine.power_cap_watts();
  // Idle: no cap means no reads of the registry, no migrations, no
  // generation churn — the satellite regression test pins this down.
  if (cap <= 0.0) return 0.0;
  ++stats_.epochs;
  const double draw = machine_draw_watts();
  if (draw <= cap) {
    for (unsigned& streak : over_streak_) streak = 0;
    return 0.0;
  }
  ++stats_.over_cap_epochs;

  const unsigned offender = pick_offender();
  if (offender == UINT_MAX) return 0.0;  // nothing movable anywhere
  // Streaks are per node: a different offender resets everyone else, so
  // only *sustained* pressure on one node escalates to throttling.
  for (unsigned node = 0; node < over_streak_.size(); ++node) {
    if (node != offender) over_streak_[node] = 0;
  }
  ++over_streak_[offender];
  if (over_streak_[offender] > options_.throttle_after_epochs) {
    machine.report_thermal_throttle(offender);
    ++stats_.throttle_events;
    std::string reason = over_cap_reason(draw, cap);
    reason += " for ";
    reason += std::to_string(over_streak_[offender]);
    reason += " epochs";
    log(epoch_index, offender, sim::BufferId{}, "", offender, 0,
        PowerVerdict::kThrottled, std::move(reason));
  }

  // Drain toward the most energy-efficient targets (kEnergyPerByte is
  // lower-first). The cached ranking already sinks quarantined targets.
  const attr::MemAttrRegistry& registry = allocator_->registry();
  const attr::RankingSnapshot ranking = registry.targets_ranked_resilient_cached(
      attr::kEnergyPerByte, attr::Initiator::from_cpuset(initiator_),
      topo::LocalityFlags::kIntersecting);

  double paid_ns = 0.0;
  std::uint64_t drained = 0;
  for (sim::BufferId buffer : machine.live_buffers_on(offender)) {
    const sim::BufferInfo info = machine.info(buffer);
    if (info.freed || info.node != offender) continue;
    if (drained + info.declared_bytes > options_.drain_max_bytes_per_epoch) {
      log(epoch_index, offender, buffer, info.label, offender,
          info.declared_bytes, PowerVerdict::kBudgetExhausted,
          "drain ceiling reached");
      break;
    }
    unsigned destination = UINT_MAX;
    for (const attr::TargetValue& target : ranking->targets) {
      const unsigned candidate = target.target->logical_index();
      if (candidate == offender) continue;
      if (machine.available_bytes(candidate) < info.declared_bytes) continue;
      destination = candidate;
      break;
    }
    if (destination == UINT_MAX) {
      log(epoch_index, offender, buffer, info.label, offender,
          info.declared_bytes, PowerVerdict::kNoTarget,
          "no energy-ranked target has room");
      break;
    }
    runtime::MigrationBroker::Reservation reservation =
        broker_->reserve(epoch_index, buffer, info.declared_bytes);
    if (reservation.refusal() == runtime::Refusal::kBudget) {
      log(epoch_index, offender, buffer, info.label, destination,
          info.declared_bytes, PowerVerdict::kBudgetExhausted,
          "shared epoch budget exhausted");
      break;
    }
    if (reservation.refusal() == runtime::Refusal::kTenantShare) {
      log(epoch_index, offender, buffer, info.label, destination,
          info.declared_bytes, PowerVerdict::kTenantDenied,
          "tenant slice exhausted");
      continue;
    }
    const support::Result<double> cost = reservation.move(buffer, destination);
    if (!cost.ok()) {
      log(epoch_index, offender, buffer, info.label, destination,
          info.declared_bytes, PowerVerdict::kFailedMigrate,
          cost.error().message);
      continue;
    }
    paid_ns += *cost;
    drained += info.declared_bytes;
    ++stats_.drained_buffers;
    stats_.drained_bytes += info.declared_bytes;
    stats_.drain_cost_ns += *cost;
    log(epoch_index, offender, buffer, info.label, destination,
        info.declared_bytes, PowerVerdict::kDrained,
        over_cap_reason(draw, cap));
  }
  return paid_ns;
}

std::vector<attr::TargetValue> PowerGovernor::placement_ranking(
    attr::AttrId attr, topo::LocalityFlags flags) const {
  const attr::MemAttrRegistry& registry = allocator_->registry();
  const attr::Initiator initiator = attr::Initiator::from_cpuset(initiator_);
  if (!near_cap()) {
    // Cached, byte-identical to targets_ranked — placement is unaffected
    // until the governor has a reason to intervene.
    return registry.targets_ranked_cached(attr, initiator, flags)->targets;
  }
  // Near the cap: same candidates, same quarantine layer, but the
  // within-bucket key becomes achievable-bandwidth-per-watt. The raw value
  // still reports the ranked attribute.
  auto composition = attr::RankingComposition::standard(
      attr::Polarity::kHigherFirst, /*confidence_aware=*/false);
  composition.set_objective(
      [&registry](const attr::RankCandidate& candidate) {
        const double energy_nj =
            registry.value(attr::kEnergyPerByte, *candidate.target, std::nullopt)
                .value_or(0.0);
        const double static_w =
            registry.value(attr::kStaticPower, *candidate.target, std::nullopt)
                .value_or(0.0);
        // candidate.value is bytes/s for bandwidth-class attributes; watts =
        // static + dynamic at full utilization (bytes/s * J/byte).
        const double watts = static_w + candidate.value * energy_nj * 1e-9;
        return watts > 0.0 ? candidate.value / watts : candidate.value;
      },
      attr::Polarity::kHigherFirst);
  return composition.compose(registry.rank_candidates(attr, initiator, flags));
}

void attach_governor(runtime::RuntimePolicy& policy, PowerGovernor& governor) {
  policy.add_epoch_hook([&governor](std::uint64_t epoch_index, unsigned threads) {
    return governor.run_epoch(epoch_index, threads);
  });
}

}  // namespace hetmem::power
