#include "hetmem/runtime/engine.hpp"

#include <algorithm>
#include <array>
#include <utility>

#include "hetmem/support/units.hpp"

namespace hetmem::runtime {

namespace {

/// Planned eviction while a promotion is being evaluated.
struct PlannedEviction {
  sim::BufferId buffer;
  unsigned to_node = 0;
  std::uint64_t bytes = 0;
};

struct Victim {
  std::uint32_t index = 0;
  std::uint64_t bytes = 0;
};

/// Cold insensitive buffers that could be displaced, per node: coldest
/// (lowest EMA traffic) first, with their declared-byte total. Only buffers
/// the classifier tracks are fair game — never an application's untracked
/// allocations. One scan of the classifier's states builds every node's
/// list and total; a list is sorted only when a caller walks it. Within an
/// epoch only a migrate() call moves buffers, so the lists stay valid until
/// the caller marks them stale after one.
class VictimLists {
 public:
  VictimLists(const std::vector<OnlineClassifier::BufferState>& states,
              const sim::SimMachine& machine, std::size_t nodes)
      : states_(&states),
        machine_(&machine),
        lists_(nodes),
        bytes_(nodes),
        sorted_(nodes) {}

  const std::vector<Victim>& on(unsigned node) {
    refresh();
    std::vector<Victim>& list = lists_[node];
    if (!sorted_[node]) {
      const auto& states = *states_;
      std::stable_sort(list.begin(), list.end(),
                       [&](const Victim& a, const Victim& b) {
                         return states[a.index].ema.memory_bytes <
                                states[b.index].ema.memory_bytes;
                       });
      sorted_[node] = true;
    }
    return list;
  }
  std::uint64_t bytes_on(unsigned node) {
    refresh();
    return bytes_[node];
  }
  void mark_stale() { fresh_ = false; }

 private:
  void refresh() {
    if (fresh_) return;
    fresh_ = true;
    for (std::vector<Victim>& list : lists_) list.clear();
    std::fill(bytes_.begin(), bytes_.end(), 0);
    std::fill(sorted_.begin(), sorted_.end(), false);
    const auto& states = *states_;
    for (std::uint32_t index = 0; index < states.size(); ++index) {
      if (!states[index].tracked ||
          states[index].committed != prof::Sensitivity::kInsensitive) {
        continue;
      }
      const sim::BufferResidency residency =
          machine_->residency(sim::BufferId{index});
      if (residency.freed) continue;
      lists_[residency.node].push_back(Victim{index, residency.declared_bytes});
      bytes_[residency.node] += residency.declared_bytes;
    }
  }

  const std::vector<OnlineClassifier::BufferState>* states_;
  const sim::SimMachine* machine_;
  std::vector<std::vector<Victim>> lists_;
  std::vector<std::uint64_t> bytes_;
  std::vector<bool> sorted_;
  bool fresh_ = false;
};

}  // namespace

const char* verdict_name(Verdict verdict) {
  switch (verdict) {
    case Verdict::kAccepted: return "accepted";
    case Verdict::kEvicted: return "evicted";
    case Verdict::kRejectedNoTarget: return "rejected:no-target";
    case Verdict::kRejectedCapacity: return "rejected:capacity";
    case Verdict::kRejectedNoBenefit: return "rejected:no-benefit";
    case Verdict::kRejectedBreakeven: return "rejected:breakeven";
    case Verdict::kRejectedBudget: return "rejected:budget";
    case Verdict::kRejectedTenantShare: return "rejected:tenant-share";
    case Verdict::kFailedMigrate: return "failed:migrate";
  }
  return "?";
}

MigrationEngine::MigrationEngine(alloc::HeterogeneousAllocator& allocator,
                                 support::Bitmap initiator,
                                 EngineOptions options)
    : allocator_(&allocator),
      initiator_(std::move(initiator)),
      options_(options),
      broker_(allocator, options.epoch_budget_bytes) {
  for (const topo::Object* node : allocator_->machine().topology().numa_nodes()) {
    local_.push_back(initiator_.is_subset_of(node->cpuset()));
  }
}

double MigrationEngine::node_traffic_cost_ns(
    unsigned node, std::uint64_t declared_bytes,
    const sim::BufferTraffic& traffic, unsigned threads) const {
  const alloc::TrafficCostModel model{.threads = threads};
  return model.cost_ns(allocator_->machine(), node, declared_bytes,
                       local_[node], traffic);
}

void MigrationEngine::log(std::uint64_t epoch, sim::BufferId buffer,
                          unsigned from_node, Verdict verdict,
                          const Candidate* candidate, double cost_ns,
                          DecisionReason reason) {
  sim::BufferInfo info = allocator_->machine().info(buffer);
  Decision decision;
  decision.epoch = epoch;
  decision.buffer = buffer;
  decision.label = std::move(info.label);
  decision.from_node = from_node;
  decision.verdict = verdict;
  decision.cost_ns = cost_ns;
  decision.bytes = info.declared_bytes;
  decision.reason = std::move(reason);
  if (candidate != nullptr) {
    decision.to_node = candidate->to_node;
    decision.sensitivity = candidate->sensitivity;
    decision.benefit_per_epoch_ns = candidate->benefit_per_epoch_ns;
    decision.breakeven_epochs =
        candidate->benefit_per_epoch_ns > 0.0
            ? cost_ns / candidate->benefit_per_epoch_ns
            : 0.0;
  } else {
    decision.to_node = from_node;
  }
  ++stats_.considered;
  switch (verdict) {
    case Verdict::kAccepted: ++stats_.accepted; break;
    case Verdict::kEvicted: ++stats_.evicted; break;
    case Verdict::kFailedMigrate: ++stats_.failed; break;
    default: ++stats_.rejected; break;
  }
  decisions_.push_back(std::move(decision));
}

double MigrationEngine::run_epoch(std::uint64_t epoch_index,
                                  const OnlineClassifier& classifier,
                                  unsigned threads) {
  sim::SimMachine& machine = allocator_->machine();
  const attr::MemAttrRegistry& registry = allocator_->registry();
  const auto query = attr::Initiator::from_cpuset(initiator_);
  const auto& states = classifier.states();
  const std::size_t node_count = machine.topology().numa_nodes().size();
  VictimLists victims(states, machine, node_count);

  // Where evicted buffers go: down the Capacity ranking (always populated
  // natively), skipping the node being cleared. Fetched through the ranking
  // cache: across epochs without attribute mutations this is one lock-free
  // load instead of a fresh sort under the registry shared_mutex.
  attr::RankingSnapshot capacity_snapshot =
      registry.targets_ranked_cached(attr::kCapacity, query);
  const std::vector<attr::TargetValue>& capacity_ranking =
      capacity_snapshot->targets;
  // One ranking per committed sensitivity (each maps to one attribute),
  // indexed by the Sensitivity value, fetched on first use and shared by
  // every buffer this epoch.
  std::array<attr::RankingSnapshot, 3> rankings;

  // Phase 1: level-triggered scan. Propose a move for every tracked
  // latency/bandwidth buffer whose best feasible ranked target is elsewhere;
  // buffers already best-placed stay silent (steady state logs nothing).
  std::vector<Candidate> candidates;
  for (std::uint32_t index = 0; index < states.size(); ++index) {
    const auto& state = states[index];
    if (!state.tracked ||
        state.committed == prof::Sensitivity::kInsensitive) {
      continue;
    }
    const sim::BufferId buffer{index};
    const sim::BufferResidency residency = machine.residency(buffer);
    if (residency.freed) continue;

    const attr::AttrId attribute = prof::allocation_hint(state.committed);
    attr::RankingSnapshot& ranked_snapshot =
        rankings[static_cast<std::size_t>(state.committed)];
    if (!ranked_snapshot) {
      ranked_snapshot = registry.targets_ranked_cached(attribute, query);
    }
    const std::vector<attr::TargetValue>& ranked = ranked_snapshot->targets;
    if (ranked.empty()) {
      log(epoch_index, buffer, residency.node, Verdict::kRejectedNoTarget,
          nullptr, 0.0,
          {.code = ReasonCode::kNoRankedTargets, .id = attribute});
      continue;
    }

    const topo::Object* destination = nullptr;
    bool best_placed = false;
    for (const attr::TargetValue& target : ranked) {
      const unsigned node = target.target->logical_index();
      if (node == residency.node) {
        best_placed = true;
        break;
      }
      if (machine.available_bytes(node) >= residency.declared_bytes) {
        destination = target.target;
        break;
      }
      if (options_.allow_evictions &&
          machine.available_bytes(node) + victims.bytes_on(node) >=
              residency.declared_bytes) {
        destination = target.target;
        break;
      }
    }
    if (best_placed) continue;
    if (destination == nullptr) {
      log(epoch_index, buffer, residency.node, Verdict::kRejectedCapacity,
          nullptr, 0.0, {.code = ReasonCode::kNoRankedRoom});
      continue;
    }

    Candidate candidate;
    candidate.buffer = buffer;
    candidate.to_node = destination->logical_index();
    candidate.sensitivity = state.committed;
    candidate.benefit_per_epoch_ns =
        node_traffic_cost_ns(residency.node, residency.declared_bytes,
                             state.ema, threads) -
        node_traffic_cost_ns(candidate.to_node, residency.declared_bytes,
                             state.ema, threads);
    if (candidate.benefit_per_epoch_ns <= 0.0) {
      log(epoch_index, buffer, residency.node, Verdict::kRejectedNoBenefit,
          &candidate, 0.0, {.code = ReasonCode::kNoBenefit});
      continue;
    }
    candidates.push_back(candidate);
  }

  std::stable_sort(candidates.begin(), candidates.end(),
                   [](const Candidate& a, const Candidate& b) {
                     if (a.benefit_per_epoch_ns != b.benefit_per_epoch_ns) {
                       return a.benefit_per_epoch_ns > b.benefit_per_epoch_ns;
                     }
                     return a.buffer.index < b.buffer.index;
                   });

  // Phase 2: apply under the gates, biggest modeled benefit first. The
  // broker's pool is shared with the health Evacuator and the power
  // Governor: bytes they move earlier in this epoch shrink what
  // optimization moves may spend, and vice versa.
  broker_.open(epoch_index);
  std::uint64_t epoch_bytes = 0;
  double paid_ns = 0.0;
  std::vector<PlannedEviction> evictions;
  std::vector<std::uint64_t> promised(node_count);
  for (const Candidate& candidate : candidates) {
    const sim::BufferResidency residency = machine.residency(candidate.buffer);
    if (residency.freed || residency.node == candidate.to_node) continue;

    // Plan evictions needed to fit, tracking room already promised away.
    evictions.clear();
    std::fill(promised.begin(), promised.end(), 0);
    std::uint64_t room = machine.available_bytes(candidate.to_node);
    if (room < residency.declared_bytes && options_.allow_evictions) {
      for (const Victim& victim : victims.on(candidate.to_node)) {
        if (room >= residency.declared_bytes) break;
        unsigned victim_dest = candidate.to_node;
        for (const attr::TargetValue& target : capacity_ranking) {
          const unsigned node = target.target->logical_index();
          if (node == candidate.to_node) continue;
          if (machine.available_bytes(node) >= promised[node] + victim.bytes) {
            victim_dest = node;
            break;
          }
        }
        if (victim_dest == candidate.to_node) continue;  // nowhere to put it
        promised[victim_dest] += victim.bytes;
        room += victim.bytes;
        evictions.push_back(PlannedEviction{sim::BufferId{victim.index},
                                            victim_dest, victim.bytes});
      }
    }
    if (room < residency.declared_bytes) {
      log(epoch_index, candidate.buffer, residency.node,
          Verdict::kRejectedCapacity, &candidate, 0.0,
          {.code = ReasonCode::kDestinationFull});
      continue;
    }

    double cost_ns = allocator_->estimate_migration_cost_ns(candidate.buffer,
                                                            candidate.to_node);
    std::uint64_t move_bytes = residency.declared_bytes;
    for (const PlannedEviction& eviction : evictions) {
      cost_ns +=
          allocator_->estimate_migration_cost_ns(eviction.buffer,
                                                 eviction.to_node);
      move_bytes += eviction.bytes;
    }

    const double breakeven = cost_ns / candidate.benefit_per_epoch_ns;
    if (breakeven > options_.expected_future_epochs) {
      log(epoch_index, candidate.buffer, residency.node,
          Verdict::kRejectedBreakeven, &candidate, cost_ns,
          {.code = ReasonCode::kBreakeven,
           .epochs = breakeven,
           .horizon = options_.expected_future_epochs});
      continue;
    }
    // The whole move (promotion + its evictions) is reserved at once and
    // charged to the promoted buffer's tenant — evictions happen on its
    // behalf. What does not move is refunded when the reservation settles.
    MigrationBroker::Reservation reservation =
        broker_.reserve(epoch_index, candidate.buffer, move_bytes);
    if (reservation.refusal() == Refusal::kBudget) {
      log(epoch_index, candidate.buffer, residency.node,
          Verdict::kRejectedBudget, &candidate, cost_ns,
          {.code = ReasonCode::kBudget,
           .bytes = move_bytes,
           .budget_left = broker_.remaining(epoch_index)});
      continue;
    }
    if (reservation.refusal() == Refusal::kTenantShare) {
      log(epoch_index, candidate.buffer, residency.node,
          Verdict::kRejectedTenantShare, &candidate, cost_ns,
          {.code = ReasonCode::kTenantShare, .bytes = move_bytes});
      continue;
    }

    bool eviction_failed = false;
    const std::string label =
        evictions.empty() ? std::string() : machine.info(candidate.buffer).label;
    for (const PlannedEviction& eviction : evictions) {
      Candidate as_candidate;
      as_candidate.buffer = eviction.buffer;
      as_candidate.to_node = eviction.to_node;
      as_candidate.sensitivity = prof::Sensitivity::kInsensitive;
      const unsigned victim_from = machine.residency(eviction.buffer).node;
      auto result = reservation.move(eviction.buffer, eviction.to_node);
      victims.mark_stale();
      if (!result.ok()) {
        log(epoch_index, eviction.buffer, victim_from,
            Verdict::kFailedMigrate, &as_candidate, 0.0,
            {.code = ReasonCode::kMigrateError,
             .detail = result.error().to_string()});
        eviction_failed = true;
        break;
      }
      paid_ns += *result;
      epoch_bytes += eviction.bytes;
      stats_.migrated_bytes += eviction.bytes;
      stats_.migration_cost_ns += *result;
      log(epoch_index, eviction.buffer, victim_from, Verdict::kEvicted,
          &as_candidate, *result,
          {.code = ReasonCode::kMakingRoom, .detail = label});
    }
    if (eviction_failed) {
      log(epoch_index, candidate.buffer, residency.node,
          Verdict::kRejectedCapacity, &candidate, 0.0,
          {.code = ReasonCode::kEvictionFailed});
      continue;
    }

    auto result = reservation.move(candidate.buffer, candidate.to_node);
    victims.mark_stale();
    if (!result.ok()) {
      log(epoch_index, candidate.buffer, residency.node,
          Verdict::kFailedMigrate, &candidate, cost_ns,
          {.code = ReasonCode::kMigrateError,
           .detail = result.error().to_string()});
      continue;
    }
    paid_ns += *result;
    epoch_bytes += residency.declared_bytes;
    stats_.migrated_bytes += residency.declared_bytes;
    stats_.migration_cost_ns += *result;
    log(epoch_index, candidate.buffer, residency.node, Verdict::kAccepted,
        &candidate, *result,
        {.code = ReasonCode::kAmortized, .epochs = breakeven});
  }

  max_epoch_bytes_ = std::max(max_epoch_bytes_, epoch_bytes);
  return paid_ns;
}

std::string MigrationEngine::render_decision_log() const {
  // Only the decisions not rendered yet, appended piece by piece: a chain
  // of operator+ would build a temporary string per piece.
  std::string& out = rendered_;
  for (; rendered_count_ < decisions_.size(); ++rendered_count_) {
    const Decision& decision = decisions_[rendered_count_];
    out += "epoch ";
    out += std::to_string(decision.epoch);
    out += ' ';
    out += verdict_name(decision.verdict);
    out += ' ';
    out += decision.label;
    out += " (buffer ";
    out += std::to_string(decision.buffer.index);
    out += ", ";
    out += prof::sensitivity_name(decision.sensitivity);
    out += ") node ";
    out += std::to_string(decision.from_node);
    out += " -> ";
    out += std::to_string(decision.to_node);
    out += ' ';
    support::append_bytes(out, decision.bytes);
    if (decision.benefit_per_epoch_ns > 0.0) {
      out += " benefit/epoch ";
      support::append_fixed(out, decision.benefit_per_epoch_ns / 1e6, 3);
      out += " ms, cost ";
      support::append_fixed(out, decision.cost_ns / 1e6, 3);
      out += " ms";
    }
    if (decision.reason.code != ReasonCode::kNone) {
      out += " — ";
      decision.reason.append_to(out);
    }
    out += '\n';
  }
  return rendered_;
}

}  // namespace hetmem::runtime
