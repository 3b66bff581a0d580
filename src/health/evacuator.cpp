#include "hetmem/health/evacuator.hpp"

#include <algorithm>
#include <utility>

#include "hetmem/alloc/advisor.hpp"
#include "hetmem/prof/classify.hpp"
#include "hetmem/support/units.hpp"

namespace hetmem::health {

Evacuator::DrainClass Evacuator::drain_class_of(
    prof::Sensitivity sensitivity) {
  switch (sensitivity) {
    case prof::Sensitivity::kLatency: return DrainClass::kLatency;
    case prof::Sensitivity::kBandwidth: return DrainClass::kBandwidth;
    default: return DrainClass::kCold;
  }
}

const char* evac_verdict_name(EvacVerdict verdict) {
  switch (verdict) {
    case EvacVerdict::kMoved: return "moved";
    case EvacVerdict::kSkippedCold: return "skipped:cold";
    case EvacVerdict::kRejectedBreakeven: return "rejected:breakeven";
    case EvacVerdict::kRejectedNoTarget: return "rejected:no-target";
    case EvacVerdict::kDeferredBudget: return "deferred:budget";
    case EvacVerdict::kDeferredTenantShare: return "deferred:tenant-share";
    case EvacVerdict::kFailedMigrate: return "failed:migrate";
  }
  return "?";
}

Evacuator::Evacuator(alloc::HeterogeneousAllocator& allocator,
                     runtime::MigrationEngine& engine, support::Bitmap initiator,
                     EvacuatorOptions options)
    : allocator_(&allocator),
      broker_(&engine.broker()),
      initiator_(std::move(initiator)),
      options_(options) {
  for (const topo::Object* node : allocator_->machine().topology().numa_nodes()) {
    local_.push_back(initiator_.is_subset_of(node->cpuset()));
  }
}

void Evacuator::log(std::uint64_t epoch, unsigned from_node, unsigned to_node,
                    sim::BufferId buffer, EvacVerdict verdict, double cost_ns,
                    runtime::DecisionReason reason) {
  sim::BufferInfo info = allocator_->machine().info(buffer);
  EvacDecision decision;
  decision.epoch = epoch;
  decision.from_node = from_node;
  decision.to_node = to_node;
  decision.buffer = buffer;
  decision.label = std::move(info.label);
  decision.bytes = info.declared_bytes;
  decision.verdict = verdict;
  decision.cost_ns = cost_ns;
  decision.reason = std::move(reason);
  switch (verdict) {
    case EvacVerdict::kMoved:
      ++stats_.moved;
      stats_.moved_bytes += decision.bytes;
      stats_.cost_ns += cost_ns;
      break;
    case EvacVerdict::kSkippedCold:
    case EvacVerdict::kRejectedBreakeven:
      ++stats_.skipped;
      break;
    case EvacVerdict::kDeferredBudget:
    case EvacVerdict::kDeferredTenantShare:
      ++stats_.deferred;
      break;
    default:
      ++stats_.failed;
      break;
  }
  decisions_.push_back(std::move(decision));
}

double Evacuator::drain_epoch(std::uint64_t epoch_index, unsigned node,
                              HealthState state, unsigned threads,
                              const runtime::OnlineClassifier* classifier) {
  if (state != HealthState::kQuarantined && state != HealthState::kOffline) {
    return 0.0;
  }
  using runtime::ReasonCode;
  const bool offline = state == HealthState::kOffline;
  sim::SimMachine& machine = allocator_->machine();
  const attr::MemAttrRegistry& registry = allocator_->registry();
  const QuarantineList* quarantine = registry.quarantine_list();
  const alloc::TrafficCostModel model{.threads = threads};

  auto node_cost_ns = [&](unsigned target, std::uint64_t declared_bytes,
                          const sim::BufferTraffic& traffic) {
    return model.cost_ns(machine, target, declared_bytes, local_[target],
                         traffic);
  };

  // Work list: a racy snapshot of the node's live buffers, annotated with
  // the classifier's committed verdict and traffic EMA. Each entry is
  // revalidated against the buffer's residency before anything
  // irreversible.
  machine.live_buffers_on(node, live_);
  items_.clear();
  for (sim::BufferId buffer : live_) {
    DrainItem item;
    item.buffer = buffer;
    if (classifier != nullptr && buffer.index < classifier->states().size()) {
      const auto& buffer_state = classifier->states()[buffer.index];
      if (buffer_state.tracked) {
        item.tracked = true;
        item.sensitivity = buffer_state.committed;
        item.drain_class = drain_class_of(buffer_state.committed);
        item.ema_bytes = buffer_state.ema.memory_bytes;
      }
    }
    items_.push_back(item);
  }
  // Most critical first: latency, then bandwidth, then cold/untracked;
  // hotter before colder within a class; buffer index breaks ties so the
  // order (and the log) is deterministic.
  std::stable_sort(items_.begin(), items_.end(),
                   [](const DrainItem& a, const DrainItem& b) {
                     if (a.drain_class != b.drain_class) {
                       return static_cast<int>(a.drain_class) <
                              static_cast<int>(b.drain_class);
                     }
                     if (a.ema_bytes != b.ema_bytes) {
                       return a.ema_bytes > b.ema_bytes;
                     }
                     return a.buffer.index < b.buffer.index;
                   });

  double paid_ns = 0.0;
  // Traffic already re-homed onto each destination by this drain: charging
  // it as congestion when choosing the next destination spreads a multi-
  // buffer drain across equivalent targets instead of piling everything
  // onto the single cheapest node (whose controller would then serialize
  // all the evacuated traffic).
  assigned_.assign(local_.size(), sim::BufferTraffic{});
  // The work list is grouped by drain class, and each class ranks by one
  // attribute, so the drain fetches one snapshot per attribute.
  attr::AttrId ranked_attribute = attr::kCapacity;
  attr::RankingSnapshot snapshot;
  for (const DrainItem& item : items_) {
    const sim::BufferResidency residency = machine.residency(item.buffer);
    // Raced a free or a migration.
    if (residency.freed || residency.node != node) continue;
    const std::uint64_t bytes = residency.declared_bytes;

    // Destination: candidates come from the quarantine-aware resilient
    // ranking of the buffer's own placement hint (capacity for cold and
    // untracked buffers); quarantined targets sink to the ranking's tail and
    // are skipped outright here — evacuating onto failing hardware would
    // just queue a second evacuation. For a buffer with observed traffic the
    // pick is the candidate with the lowest modeled traffic cost, not the
    // first in ranking order: the locality-first ranking can prefer a local
    // slow tier (e.g. package NVDIMM) over a sibling DRAM node that serves
    // this buffer's access pattern far better. Ranking order breaks cost
    // ties, keeping the choice deterministic.
    const attr::AttrId attribute =
        item.tracked ? prof::allocation_hint(item.sensitivity) : attr::kCapacity;
    if (!snapshot || attribute != ranked_attribute) {
      // kAll, not the allocator's locality-restricted default: losing a node
      // is exactly the situation where the search must widen to non-local
      // targets (an SNC sibling's DRAM does not even intersect this
      // initiator's cpuset).
      snapshot = registry.targets_ranked_resilient_cached(
          attribute, initiator_, topo::LocalityFlags::kAll);
      ranked_attribute = attribute;
    }
    const bool cost_aware =
        item.tracked && item.ema_bytes > 0.0 && classifier != nullptr;
    unsigned destination = node;
    double destination_cost_ns = 0.0;
    for (const attr::TargetValue& target : snapshot->targets) {
      const unsigned candidate = target.target->logical_index();
      if (candidate == node) continue;
      if (!machine.node_online(candidate)) continue;
      if (quarantine != nullptr &&
          quarantine->verdict(candidate) != PlacementVerdict::kNormal) {
        continue;
      }
      if (machine.available_bytes(candidate) < bytes) continue;
      if (!cost_aware) {
        destination = candidate;
        break;
      }
      const double candidate_cost_ns =
          node_cost_ns(candidate, bytes,
                       classifier->states()[item.buffer.index].ema) +
          node_cost_ns(candidate, bytes, assigned_[candidate]);
      if (destination == node || candidate_cost_ns < destination_cost_ns) {
        destination = candidate;
        destination_cost_ns = candidate_cost_ns;
      }
    }
    if (destination == node) {
      log(epoch_index, node, node, item.buffer, EvacVerdict::kRejectedNoTarget,
          0.0, {.code = ReasonCode::kNoHealthyTarget});
      continue;
    }

    const double cost_ns =
        allocator_->estimate_migration_cost_ns(item.buffer, destination);
    if (!offline) {
      // Quarantined (not offline): the node still serves reads, so only move
      // buffers whose traffic amortizes the copy. The source cost is scaled
      // by quarantined_slowdown — the degraded regime that earned the
      // quarantine — so hot buffers drain even off nominally fast nodes,
      // while cold buffers wait for recovery or offline escalation.
      if (!item.tracked || item.ema_bytes <= 0.0) {
        log(epoch_index, node, destination, item.buffer,
            EvacVerdict::kSkippedCold, 0.0,
            {.code = item.tracked ? ReasonCode::kNoObservedTraffic
                                  : ReasonCode::kUntracked});
        continue;
      }
      const sim::BufferTraffic& traffic =
          classifier->states()[item.buffer.index].ema;
      const double benefit_per_epoch_ns =
          node_cost_ns(node, bytes, traffic) * options_.quarantined_slowdown -
          node_cost_ns(destination, bytes, traffic);
      if (benefit_per_epoch_ns <= 0.0) {
        log(epoch_index, node, destination, item.buffer,
            EvacVerdict::kSkippedCold, 0.0,
            {.code = ReasonCode::kSourceStillCheaper, .id = destination});
        continue;
      }
      const double breakeven = cost_ns / benefit_per_epoch_ns;
      if (breakeven > options_.expected_future_epochs) {
        log(epoch_index, node, destination, item.buffer,
            EvacVerdict::kRejectedBreakeven, cost_ns,
            {.code = ReasonCode::kBreakeven,
             .epochs = breakeven,
             .horizon = options_.expected_future_epochs});
        continue;
      }
    }

    // Budget gates: evacuation reserves from the engine's per-epoch pool, so
    // a drain burst cannot blow past the paper's migration-avoidance knob,
    // and from the owning tenant's slice, so it cannot starve the other
    // tenants either. A refused buffer retries next epoch.
    runtime::MigrationBroker::Reservation reservation =
        broker_->reserve(epoch_index, item.buffer, bytes);
    if (reservation.refusal() == runtime::Refusal::kBudget) {
      log(epoch_index, node, destination, item.buffer,
          EvacVerdict::kDeferredBudget, cost_ns,
          {.code = ReasonCode::kBudget, .bytes = bytes,
           .budget_left = broker_->remaining(epoch_index)});
      continue;
    }
    if (reservation.refusal() == runtime::Refusal::kTenantShare) {
      log(epoch_index, node, destination, item.buffer,
          EvacVerdict::kDeferredTenantShare, cost_ns,
          {.code = ReasonCode::kTenantShare, .bytes = bytes});
      continue;
    }

    auto result = reservation.move(item.buffer, destination);
    if (!result.ok()) {
      log(epoch_index, node, destination, item.buffer,
          EvacVerdict::kFailedMigrate, 0.0,
          {.code = ReasonCode::kMigrateError,
           .detail = result.error().to_string()});
      continue;
    }
    paid_ns += *result;
    if (item.tracked && classifier != nullptr) {
      const sim::BufferTraffic& moved_traffic =
          classifier->states()[item.buffer.index].ema;
      sim::BufferTraffic& sink = assigned_[destination];
      sink.reads += moved_traffic.reads;
      sink.writes += moved_traffic.writes;
      sink.llc_misses += moved_traffic.llc_misses;
      sink.memory_bytes += moved_traffic.memory_bytes;
      sink.random_accesses += moved_traffic.random_accesses;
      sink.random_misses += moved_traffic.random_misses;
    }
    log(epoch_index, node, destination, item.buffer, EvacVerdict::kMoved,
        *result,
        {.code = offline ? ReasonCode::kOfflineDrain
                         : ReasonCode::kQuarantineDrain});
  }
  return paid_ns;
}

bool Evacuator::drained(unsigned node) const {
  return allocator_->machine().live_buffers_on(node).empty();
}

std::string Evacuator::render_log() const {
  // Appended piece by piece, like MigrationEngine::render_decision_log().
  std::string out;
  for (const EvacDecision& decision : decisions_) {
    out += "epoch ";
    out += std::to_string(decision.epoch);
    out += ' ';
    out += evac_verdict_name(decision.verdict);
    out += ' ';
    out += decision.label;
    out += " (buffer ";
    out += std::to_string(decision.buffer.index);
    out += ") node ";
    out += std::to_string(decision.from_node);
    out += " -> ";
    out += std::to_string(decision.to_node);
    out += ' ';
    support::append_bytes(out, decision.bytes);
    if (decision.cost_ns > 0.0) {
      out += " cost ";
      support::append_fixed(out, decision.cost_ns / 1e6, 3);
      out += " ms";
    }
    if (decision.reason.code != runtime::ReasonCode::kNone) {
      out += " — ";
      decision.reason.append_to(out);
    }
    out += '\n';
  }
  return out;
}

void attach_health(runtime::RuntimePolicy& policy, HealthMonitor& monitor,
                   Evacuator& evacuator) {
  policy.add_epoch_hook([&policy, &monitor, &evacuator](
                            std::uint64_t epoch_index, unsigned threads) {
    monitor.poll();
    double paid_ns = 0.0;
    for (unsigned node : monitor.nodes_needing_evacuation()) {
      paid_ns += evacuator.drain_epoch(epoch_index, node, monitor.state(node),
                                       threads, &policy.classifier());
    }
    return paid_ns;
  });
}

}  // namespace hetmem::health
