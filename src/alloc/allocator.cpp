#include "hetmem/alloc/allocator.hpp"

#include <algorithm>
#include <optional>
#include <utility>

#include "hetmem/support/units.hpp"

namespace hetmem::alloc {

namespace {

/// An empty string with room for a refusal message: its fixed text, the
/// `variable` bytes of names and labels, and the numbers, so building the
/// message never reallocates.
std::string refusal_buffer(std::size_t variable) {
  std::string message;
  message.reserve(variable + 192);
  return message;
}

}  // namespace

using support::Errc;
using support::make_error;
using support::Result;
using support::Status;

HeterogeneousAllocator::HeterogeneousAllocator(sim::SimMachine& machine,
                                               const attr::MemAttrRegistry& registry)
    : machine_(&machine),
      registry_(&registry),
      node_count_(machine.topology().numa_nodes().size()),
      reserved_(std::make_unique<std::atomic<std::uint64_t>[]>(node_count_)) {
  for (std::size_t n = 0; n < node_count_; ++n) {
    reserved_[n].store(0, std::memory_order_relaxed);
  }
  node_kinds_.reserve(node_count_);
  for (std::size_t n = 0; n < node_count_; ++n) {
    node_kinds_.push_back(
        machine.topology().numa_node(static_cast<unsigned>(n))->memory_kind());
  }
}

AllocatorStats HeterogeneousAllocator::stats() const {
  AllocatorStats snapshot;
  snapshot.allocations = stats_.allocations.load(std::memory_order_relaxed);
  snapshot.fallbacks = stats_.fallbacks.load(std::memory_order_relaxed);
  snapshot.failures = stats_.failures.load(std::memory_order_relaxed);
  snapshot.frees = stats_.frees.load(std::memory_order_relaxed);
  snapshot.migrations = stats_.migrations.load(std::memory_order_relaxed);
  snapshot.bytes_allocated = stats_.bytes_allocated.load(std::memory_order_relaxed);
  snapshot.bytes_migrated = stats_.bytes_migrated.load(std::memory_order_relaxed);
  snapshot.transient_retries =
      stats_.transient_retries.load(std::memory_order_relaxed);
  snapshot.attribute_rescues =
      stats_.attribute_rescues.load(std::memory_order_relaxed);
  snapshot.backpressure_rejections =
      stats_.backpressure_rejections.load(std::memory_order_relaxed);
  snapshot.backpressure_health =
      stats_.backpressure_health.load(std::memory_order_relaxed);
  snapshot.backpressure_quota =
      stats_.backpressure_quota.load(std::memory_order_relaxed);
  snapshot.backpressure_shed =
      stats_.backpressure_shed.load(std::memory_order_relaxed);
  snapshot.tenant_spills = stats_.tenant_spills.load(std::memory_order_relaxed);
  snapshot.retry_backoff_ms =
      stats_.retry_backoff_ms.load(std::memory_order_relaxed);
  return snapshot;
}

void HeterogeneousAllocator::restore_stats(const AllocatorStats& stats) {
  stats_.allocations.store(stats.allocations, std::memory_order_relaxed);
  stats_.fallbacks.store(stats.fallbacks, std::memory_order_relaxed);
  stats_.failures.store(stats.failures, std::memory_order_relaxed);
  stats_.frees.store(stats.frees, std::memory_order_relaxed);
  stats_.migrations.store(stats.migrations, std::memory_order_relaxed);
  stats_.bytes_allocated.store(stats.bytes_allocated,
                               std::memory_order_relaxed);
  stats_.bytes_migrated.store(stats.bytes_migrated, std::memory_order_relaxed);
  stats_.transient_retries.store(stats.transient_retries,
                                 std::memory_order_relaxed);
  stats_.attribute_rescues.store(stats.attribute_rescues,
                                 std::memory_order_relaxed);
  stats_.backpressure_rejections.store(stats.backpressure_rejections,
                                       std::memory_order_relaxed);
  stats_.backpressure_health.store(stats.backpressure_health,
                                   std::memory_order_relaxed);
  stats_.backpressure_quota.store(stats.backpressure_quota,
                                  std::memory_order_relaxed);
  stats_.backpressure_shed.store(stats.backpressure_shed,
                                 std::memory_order_relaxed);
  stats_.tenant_spills.store(stats.tenant_spills, std::memory_order_relaxed);
  stats_.retry_backoff_ms.store(stats.retry_backoff_ms,
                                std::memory_order_relaxed);
}

Status HeterogeneousAllocator::adopt_tenant_charge(sim::BufferId buffer,
                                                   tenant::TenantHandle tenant,
                                                   std::uint64_t bytes) {
  if (tenant == nullptr) {
    return make_error(Errc::kInvalidArgument, "null tenant handle");
  }
  const auto info = machine_->info_checked(buffer);
  if (!info.ok()) return info.error();
  if (info->freed) {
    return make_error(Errc::kInvalidArgument,
                      "cannot adopt a charge for freed buffer '" +
                          info->label + "'");
  }
  const topo::MemoryKind tier = node_kinds_[info->node];
  const tenant::ChargeResult charged = tenant->try_charge(tier, bytes);
  if (charged != tenant::ChargeResult::kOk) {
    return make_error(Errc::kBackpressure,
                      "tenant '" + tenant->name() +
                          "' refused the restored charge for buffer '" +
                          info->label + "'");
  }
  record_tenant_charge(buffer, std::move(tenant), tier, bytes);
  return {};
}

std::vector<TraceEvent> HeterogeneousAllocator::trace() const {
  std::lock_guard<std::mutex> lock(trace_mutex_);
  return trace_;
}

std::uint64_t HeterogeneousAllocator::usable_bytes(unsigned node) const {
  const std::uint64_t available = machine_->available_bytes(node);
  const std::uint64_t reserved = reserved_[node].load(std::memory_order_relaxed);
  return available > reserved ? available - reserved : 0;
}

Result<sim::BufferId> HeterogeneousAllocator::allocate_with_retry(
    const AllocRequest& request, unsigned node) {
  auto buffer = machine_->allocate(request.bytes, node, request.label,
                                   request.backing_bytes);
  const unsigned budget =
      max_transient_retries_.load(std::memory_order_relaxed);
  const std::uint64_t floor_ms =
      retry_floor_ms_.load(std::memory_order_relaxed);
  // Retry pacing rides the shared jitter engine (support::Backoff — the same
  // schedule the tenant shed path and the breaker probes draw from). Delays
  // are simulated: accounted in retry_backoff_ms, never slept. Seeded per
  // (seed, node) so concurrent requests draw independent, deterministic
  // jitter.
  std::optional<support::Backoff> pacing;
  if (floor_ms > 0) {
    support::BackoffOptions options = retry_backoff_options_;
    options.seed ^= 0x9e3779b97f4a7c15ull * (node + 1);
    pacing.emplace(options);
  }
  unsigned retries = 0;
  while (!buffer.ok() && buffer.error().code == Errc::kTransient &&
         retries < budget) {
    ++retries;
    stats_.transient_retries.fetch_add(1, std::memory_order_relaxed);
    if (pacing) {
      stats_.retry_backoff_ms.fetch_add(pacing->next_delay_ms(floor_ms),
                                        std::memory_order_relaxed);
    }
    buffer = machine_->allocate(request.bytes, node, request.label,
                                request.backing_bytes);
  }
  return buffer;
}

Result<Allocation> HeterogeneousAllocator::try_targets(
    const AllocRequest& request, const std::vector<attr::TargetValue>& ranking,
    attr::AttrId used_attribute, TenantGate* gate) {
  const bool allow_fallback = request.policy != Policy::kStrict;
  const health::QuarantineList* quarantine =
      request.admission_control ? registry_->quarantine_list() : nullptr;
  tenant::Tenant* tenant = gate != nullptr ? gate->tenant : nullptr;
  // Strict binding means "this node or nothing" — the ladder's spill pass
  // (which exists to steer requests elsewhere) does not apply.
  const bool spill_enabled = gate != nullptr && gate->spill && allow_fallback;
  const double spill_occupancy =
      ladder_in_use().options().spill_node_occupancy;
  unsigned withheld = 0;
  // Total-cap / dead-tenant refusals are node-independent: once seen, no
  // further node (nor the default-order rescue) can admit the request.
  bool stop_walk = false;

  // A nearly-full node for the spill pass.
  auto node_hot = [&](unsigned node) {
    const std::uint64_t capacity = machine_->capacity_bytes(node);
    if (capacity == 0) return false;
    const std::uint64_t usable = std::min(capacity, usable_bytes(node));
    return static_cast<double>(capacity - usable) >=
           spill_occupancy * static_cast<double>(capacity);
  };

  // Attempts one node: quota charge, then the machine allocation. Returns
  // the final Result when the walk must end here (success or hard failure),
  // nullopt to keep walking. `charged` quota is rolled back on any failure.
  auto attempt_node = [&](unsigned node, unsigned rank,
                          const char* note) -> std::optional<Result<Allocation>> {
    bool charged = false;
    if (tenant != nullptr) {
      switch (tenant->try_charge(node_kinds_[node], request.bytes)) {
        case tenant::ChargeResult::kOk:
          charged = true;
          break;
        case tenant::ChargeResult::kTierCapExceeded:
          // This tier is out of quota for the tenant; another tier down the
          // ranking may still have room. Strict binding has no other tier.
          ++gate->quota_skipped;
          if (!allow_fallback) stop_walk = true;
          return std::nullopt;
        case tenant::ChargeResult::kTotalCapExceeded:
          gate->total_cap_hit = true;
          stop_walk = true;
          return std::nullopt;
        case tenant::ChargeResult::kTenantDead:
          gate->dead = true;
          stop_walk = true;
          return std::nullopt;
      }
    }
    auto buffer = allocate_with_retry(request, node);
    if (buffer.ok()) {
      const bool spilled = spill_enabled && gate->spill_skipped > 0;
      Allocation allocation{*buffer, node, used_attribute, rank, rank > 0};
      stats_.allocations.fetch_add(1, std::memory_order_relaxed);
      stats_.bytes_allocated.fetch_add(request.bytes, std::memory_order_relaxed);
      if (rank > 0) stats_.fallbacks.fetch_add(1, std::memory_order_relaxed);
      if (charged) {
        record_tenant_charge(*buffer, request.tenant, node_kinds_[node],
                             request.bytes);
        tenant->note_admitted();
        if (spilled) {
          stats_.tenant_spills.fetch_add(1, std::memory_order_relaxed);
          tenant->note_spilled();
        }
      }
      record_trace([&] {
        std::string detail = registry_->info(used_attribute).name;
        if (note != nullptr) detail = note;
        if (rank > 0 && note == nullptr) {
          detail += " (fallback rank " + std::to_string(rank) + ")";
        }
        if (spilled) detail += " (ladder spill)";
        return TraceEvent{TraceEvent::Kind::kAlloc, request.label, node,
                          request.bytes, std::move(detail)};
      });
      return Result<Allocation>(allocation);
    }
    if (charged) tenant->uncharge(node_kinds_[node], request.bytes);
    // Transient failures that survived the bounded retry are treated like a
    // full target: log and walk down the ranking instead of giving up.
    const bool recoverable = buffer.error().code == Errc::kOutOfCapacity ||
                             buffer.error().code == Errc::kTransient;
    if (!recoverable || !allow_fallback) {
      stats_.failures.fetch_add(1, std::memory_order_relaxed);
      record_trace([&] {
        return TraceEvent{TraceEvent::Kind::kFail, request.label, node,
                          request.bytes, buffer.error().to_string()};
      });
      return Result<Allocation>(buffer.error());
    }
    if (buffer.error().code == Errc::kTransient) {
      record_trace([&] {
        return TraceEvent{TraceEvent::Kind::kFail, request.label, node,
                          request.bytes,
                          "transient retries exhausted, falling back"};
      });
    }
    return std::nullopt;
  };

  // The spill pass walks the ranking twice: first skipping nearly-full
  // nodes (steering the low-priority request toward colder tiers), then —
  // only if nothing placed — admitting it anywhere: the ladder wants the
  // request displaced, not failed.
  const int passes = spill_enabled ? 2 : 1;
  for (int pass = 0; pass < passes && !stop_walk; ++pass) {
    const bool skip_hot = spill_enabled && pass == 0;
    unsigned rank = 0;
    for (const attr::TargetValue& candidate : ranking) {
      if (stop_walk) break;
      const unsigned node = candidate.target->logical_index();
      if (!machine_->node_online(node)) {
        // Dead target: an offline node reads zero usable bytes anyway, but
        // skipping it here avoids the capacity math and lets strict binding
        // report "offline" instead of "full".
        if (!allow_fallback) {
          stats_.failures.fetch_add(1, std::memory_order_relaxed);
          return make_error(Errc::kOutOfCapacity,
                            "node " + std::to_string(node) + " is offline");
        }
        ++rank;
        continue;
      }
      if (quarantine != nullptr &&
          quarantine->verdict(node) != health::PlacementVerdict::kNormal) {
        // Admission control: a quarantined target may not absorb this request
        // even as a last resort — count it so exhaustion reports backpressure
        // rather than out-of-capacity.
        if (request.bytes <= usable_bytes(node)) ++withheld;
        if (!allow_fallback) {
          stats_.failures.fetch_add(1, std::memory_order_relaxed);
          stats_.backpressure_rejections.fetch_add(1, std::memory_order_relaxed);
          stats_.backpressure_health.fetch_add(1, std::memory_order_relaxed);
          return make_error(Errc::kBackpressure,
                            "node " + std::to_string(node) +
                                " is quarantined and admission control is on");
        }
        ++rank;
        continue;
      }
      if (request.bytes > usable_bytes(node)) {
        // Reserved space is off-limits to ordinary allocations.
        if (!allow_fallback) {
          stats_.failures.fetch_add(1, std::memory_order_relaxed);
          return make_error(Errc::kOutOfCapacity,
                            "node " + std::to_string(node) +
                                " lacks unreserved room for '" + request.label +
                                "'");
        }
        ++rank;
        continue;
      }
      if (skip_hot && node_hot(node)) {
        ++gate->spill_skipped;
        ++rank;
        continue;
      }
      if (auto done = attempt_node(node, rank, nullptr)) return *done;
      ++rank;
    }
  }

  if (request.policy == Policy::kPreferredThenDefault && !stop_walk) {
    // OS default order: local nodes by logical index, regardless of the
    // attribute (paper §VII discusses Linux "preferred" semantics).
    unsigned rank = static_cast<unsigned>(ranking.size());
    for (const topo::Object* node :
         machine_->topology().local_numa_nodes(request.initiator, request.locality)) {
      if (stop_walk) break;
      const bool already_tried =
          std::any_of(ranking.begin(), ranking.end(), [&](const attr::TargetValue& tv) {
            return tv.target == node;
          });
      if (already_tried) continue;
      if (!machine_->node_online(node->logical_index())) {
        ++rank;
        continue;
      }
      if (quarantine != nullptr &&
          quarantine->verdict(node->logical_index()) !=
              health::PlacementVerdict::kNormal) {
        if (request.bytes <= usable_bytes(node->logical_index())) ++withheld;
        ++rank;
        continue;
      }
      if (request.bytes > usable_bytes(node->logical_index())) {
        ++rank;
        continue;
      }
      // rank >= ranking.size() >= 1 here, so attempt_node already counts the
      // placement as a fallback and flags fell_back.
      if (auto done =
              attempt_node(node->logical_index(), rank, "default-order rescue")) {
        return *done;
      }
      ++rank;
    }
  }

  stats_.failures.fetch_add(1, std::memory_order_relaxed);
  if (gate != nullptr && gate->dead) {
    record_trace([&] {
      return TraceEvent{TraceEvent::Kind::kFail, request.label, 0,
                        request.bytes, "tenant deregistered mid-request"};
    });
    return make_error(Errc::kInvalidArgument,
                      "tenant '" + gate->tenant->name() +
                          "' was deregistered; new allocations are refused");
  }
  if (gate != nullptr && (gate->total_cap_hit || gate->quota_skipped > 0)) {
    stats_.backpressure_rejections.fetch_add(1, std::memory_order_relaxed);
    stats_.backpressure_quota.fetch_add(1, std::memory_order_relaxed);
    tenant->note_quota_rejection();
    record_trace([&] {
      return TraceEvent{
          TraceEvent::Kind::kFail, request.label, 0, request.bytes,
          gate->total_cap_hit
              ? "tenant total quota cap exhausted"
              : "tenant tier quota caps blocked every reachable target"};
    });
    std::string message = refusal_buffer(tenant->name().size() +
                                         request.label.size());
    message += "tenant '";
    message += tenant->name();
    message += "' quota cannot absorb ";
    support::append_bytes(message, request.bytes);
    message += " for '";
    message += request.label;
    message += gate->total_cap_hit ? "' (total cap reached)"
                                   : "' (tier caps reached on every target)";
    return backpressure_error(request, std::move(message),
                              ladder_in_use().options().retry_after_base_ms);
  }
  if (withheld > 0) {
    // Capacity exists, but only on unhealthy targets this request refused to
    // use: report backpressure (back off, retry after re-probation), not
    // out-of-capacity (which would read as "the machine is full").
    stats_.backpressure_rejections.fetch_add(1, std::memory_order_relaxed);
    stats_.backpressure_health.fetch_add(1, std::memory_order_relaxed);
    record_trace([&] {
      return TraceEvent{TraceEvent::Kind::kFail, request.label, 0,
                        request.bytes,
                        "healthy targets exhausted; " +
                            std::to_string(withheld) +
                            " quarantined target(s) withheld"};
    });
    std::string message = refusal_buffer(request.label.size());
    message += "healthy local targets cannot hold ";
    support::append_bytes(message, request.bytes);
    message += " for '";
    message += request.label;
    message += "'; ";
    support::append_decimal(message, withheld);
    message += " quarantined target(s) withheld by admission control";
    return make_error(Errc::kBackpressure, std::move(message));
  }
  record_trace([&] {
    return TraceEvent{TraceEvent::Kind::kFail, request.label, 0,
                      request.bytes, "all local targets exhausted"};
  });
  return make_error(Errc::kOutOfCapacity,
                    "no local target can hold " +
                        support::format_bytes(request.bytes) + " for '" +
                        request.label + "'");
}

Result<Allocation> HeterogeneousAllocator::mem_alloc(const AllocRequest& request) {
  if (request.bytes == 0) {
    return make_error(Errc::kInvalidArgument, "zero-byte request");
  }
  if (request.initiator.empty()) {
    return make_error(Errc::kInvalidArgument,
                      "empty initiator: bind the caller to CPUs first");
  }
  if (request.admission_control) {
    // Fast-fail before any ranking work: when every node is quarantined or
    // offline, the full ranking walk below could only rediscover that fact
    // one withheld target at a time. Under a storm of admission-controlled
    // requests that walk (snapshot fetch included) is pure wasted work.
    const health::QuarantineList* quarantine = registry_->quarantine_list();
    if (quarantine != nullptr && no_healthy_online_target(*quarantine)) {
      stats_.failures.fetch_add(1, std::memory_order_relaxed);
      stats_.backpressure_rejections.fetch_add(1, std::memory_order_relaxed);
      stats_.backpressure_health.fetch_add(1, std::memory_order_relaxed);
      record_trace([&] {
        return TraceEvent{TraceEvent::Kind::kFail, request.label, 0,
                          request.bytes,
                          "admission fast-fail: every target quarantined "
                          "or offline"};
      });
      return make_error(Errc::kBackpressure,
                        "no healthy target online for '" + request.label +
                            "': every node is quarantined or offline "
                            "(admission-control fast-fail)");
    }
  }
  TenantGate gate;
  if (request.tenant != nullptr) {
    tenant::Tenant& owner = *request.tenant;
    if (!owner.live()) {
      return make_error(Errc::kInvalidArgument,
                        "tenant '" + owner.name() +
                            "' was deregistered; new allocations are refused");
    }
    gate.tenant = &owner;
    gate.level = overload_level();
    switch (ladder_in_use().action(gate.level, owner.priority())) {
      case tenant::LadderAction::kPlace:
        break;
      case tenant::LadderAction::kSpill:
        gate.spill = true;
        break;
      case tenant::LadderAction::kShed: {
        stats_.failures.fetch_add(1, std::memory_order_relaxed);
        stats_.backpressure_rejections.fetch_add(1, std::memory_order_relaxed);
        stats_.backpressure_shed.fetch_add(1, std::memory_order_relaxed);
        owner.note_shed();
        record_trace([&] {
          return TraceEvent{
              TraceEvent::Kind::kFail, request.label, 0, request.bytes,
              std::string("shed at overload level ") +
                  tenant::overload_level_name(gate.level)};
        });
        std::string message = refusal_buffer(owner.name().size());
        message += "request shed for ";
        message += tenant::priority_name(owner.priority());
        message += " tenant '";
        message += owner.name();
        message += "' at overload level ";
        message += tenant::overload_level_name(gate.level);
        return backpressure_error(
            request, std::move(message),
            ladder_in_use().retry_after_ms(gate.level, owner.priority()));
      }
    }
  }
  // One cached snapshot folds attribute resolution and the resilient ranking:
  // on a hit this is a single lock-free load — no shared_mutex, no per-call
  // vector, not even an Initiator copy (the request's cpuset is the key).
  attr::RankingSnapshot snapshot = registry_->alloc_ranking_cached(
      request.attribute, request.initiator, request.locality);
  attr::AttrId used_attribute =
      snapshot->resolved_ok ? snapshot->resolved : request.attribute;
  const std::vector<attr::TargetValue>* ranking = &snapshot->targets;
  attr::RankingSnapshot capacity_snapshot;  // held once fetched, never refetched

  if (ranking->empty()) {
    if (!request.attribute_rescue) {
      if (!snapshot->resolved_ok) {
        // Cold failure path: regenerate the precise resolution error (the
        // snapshot only records that resolution failed, not the message).
        return registry_->resolve_with_fallback(request.attribute).error();
      }
      return make_error(Errc::kNotFound,
                        "no local target has values for attribute '" +
                            registry_->info(used_attribute).name + "'");
    }
    // Rescue: degrade to a coarser trusted attribute, ultimately kCapacity
    // (always populated from the topology, never probe- or firmware-fed).
    attr::RankingSnapshot rescue = registry_->rescue_ranking_cached(
        request.attribute, request.initiator, request.locality);
    used_attribute = rescue->resolved;
    snapshot = std::move(rescue);
    ranking = &snapshot->targets;
    if (ranking->empty() && used_attribute != attr::kCapacity) {
      used_attribute = attr::kCapacity;
      capacity_snapshot = registry_->targets_ranked_resilient_cached(
          attr::kCapacity, request.initiator, request.locality);
      ranking = &capacity_snapshot->targets;
    }
    if (ranking->empty()) {
      return make_error(Errc::kNotFound,
                        "no local target exists even for a Capacity rescue");
    }
    stats_.attribute_rescues.fetch_add(1, std::memory_order_relaxed);
  }

  TenantGate* gate_ptr = gate.tenant != nullptr ? &gate : nullptr;
  auto attempt = try_targets(request, *ranking, used_attribute, gate_ptr);
  if (attempt.ok() || !request.attribute_rescue ||
      request.policy == Policy::kStrict ||
      attempt.error().code != Errc::kOutOfCapacity ||
      used_attribute == attr::kCapacity) {
    return attempt;
  }
  // Ranking-exhaustion rescue: the attribute ranking only covers targets
  // that *have values* — after corruption or probe failures that can be a
  // strict subset of the machine. Capacity is populated for every node
  // natively, so its ranking reaches targets the broken attribute missed.
  // Reuse the capacity snapshot if the rescue above already fetched it.
  if (!capacity_snapshot) {
    capacity_snapshot = registry_->targets_ranked_resilient_cached(
        attr::kCapacity, request.initiator, request.locality);
  }
  if (capacity_snapshot->targets.empty()) return attempt;
  auto rescued = try_targets(request, capacity_snapshot->targets,
                             attr::kCapacity, gate_ptr);
  if (!rescued.ok()) return attempt;
  stats_.attribute_rescues.fetch_add(1, std::memory_order_relaxed);
  return rescued;
}

std::vector<TraceEvent> HeterogeneousAllocator::failure_log() const {
  std::lock_guard<std::mutex> lock(trace_mutex_);
  std::vector<TraceEvent> failures;
  for (const TraceEvent& event : trace_) {
    if (event.kind == TraceEvent::Kind::kFail) failures.push_back(event);
  }
  return failures;
}

Status HeterogeneousAllocator::mem_free(sim::BufferId buffer) {
  // Everything read about the buffer is read before it is freed: from then
  // on another thread's allocation may reuse its slot.
  const bool traced = trace_enabled_.load(std::memory_order_relaxed);
  sim::BufferInfo info;
  if (traced) info = machine_->info(buffer);
  // The charge leaves the table before the slot can be reused, so a new
  // buffer's charge never lands on a slot whose old charge is still there.
  TenantCharge charge = take_tenant_charge(buffer);
  Status status = machine_->free(buffer);
  // Only a racing free of the same buffer can fail after the take; that
  // free found no charge, so the refund below is still the only one.
  if (charge.tenant != nullptr) charge.tenant->uncharge(charge.tier, charge.bytes);
  if (!status.ok()) return status;
  stats_.frees.fetch_add(1, std::memory_order_relaxed);
  if (traced) {
    record_trace([&] {
      return TraceEvent{TraceEvent::Kind::kFree, std::move(info.label),
                        info.node, info.declared_bytes, ""};
    });
  }
  return {};
}

void HeterogeneousAllocator::record_tenant_charge(sim::BufferId buffer,
                                                  tenant::TenantHandle tenant,
                                                  topo::MemoryKind tier,
                                                  std::uint64_t bytes) {
  std::lock_guard<std::mutex> lock(tenant_mutex_);
  if (tenant_charges_.size() <= buffer.index) {
    tenant_charges_.resize(buffer.index + 1);
  }
  TenantCharge& charge = tenant_charges_[buffer.index];
  // A charge still here belongs to a buffer freed through the machine
  // directly, bypassing mem_free: nothing refunds it, and the new buffer's
  // charge takes its entry.
  if (charge.tenant == nullptr) {
    tenant_charge_count_.fetch_add(1, std::memory_order_relaxed);
  }
  charge = TenantCharge{buffer.generation, std::move(tenant), tier, bytes};
}

bool HeterogeneousAllocator::holds_charge(sim::BufferId buffer) const {
  return buffer.index < tenant_charges_.size() &&
         tenant_charges_[buffer.index].tenant != nullptr &&
         tenant_charges_[buffer.index].generation == buffer.generation;
}

HeterogeneousAllocator::TenantCharge HeterogeneousAllocator::take_tenant_charge(
    sim::BufferId buffer) {
  // The count gate keeps untenanted frees lock-free.
  if (tenant_charge_count_.load(std::memory_order_relaxed) == 0) return {};
  std::lock_guard<std::mutex> lock(tenant_mutex_);
  if (!holds_charge(buffer)) return {};
  tenant_charge_count_.fetch_sub(1, std::memory_order_relaxed);
  return std::exchange(tenant_charges_[buffer.index], TenantCharge{});
}

void HeterogeneousAllocator::move_tenant_charge(sim::BufferId buffer,
                                                unsigned destination_node) {
  if (tenant_charge_count_.load(std::memory_order_relaxed) == 0) return;
  std::lock_guard<std::mutex> lock(tenant_mutex_);
  if (!holds_charge(buffer)) return;
  TenantCharge& charge = tenant_charges_[buffer.index];
  const topo::MemoryKind to = node_kinds_[destination_node];
  charge.tenant->move_charge(charge.tier, to, charge.bytes);
  charge.tier = to;
}

tenant::TenantHandle HeterogeneousAllocator::tenant_of(
    sim::BufferId buffer) const {
  if (tenant_charge_count_.load(std::memory_order_relaxed) == 0) return nullptr;
  std::lock_guard<std::mutex> lock(tenant_mutex_);
  return holds_charge(buffer) ? tenant_charges_[buffer.index].tenant : nullptr;
}

const tenant::DegradationLadder& HeterogeneousAllocator::ladder_in_use() const {
  static const tenant::DegradationLadder kDefaultLadder;
  return tenant_registry_ != nullptr ? tenant_registry_->ladder()
                                     : kDefaultLadder;
}

double HeterogeneousAllocator::healthy_free_fraction() const {
  const health::QuarantineList* quarantine = registry_->quarantine_list();
  std::uint64_t free_bytes = 0;
  std::uint64_t capacity = 0;
  for (std::size_t n = 0; n < node_count_; ++n) {
    const unsigned node = static_cast<unsigned>(n);
    if (!machine_->node_online(node)) continue;
    if (quarantine != nullptr &&
        quarantine->verdict(node) != health::PlacementVerdict::kNormal) {
      continue;
    }
    capacity += machine_->capacity_bytes(node);
    free_bytes += usable_bytes(node);
  }
  return capacity == 0
             ? 0.0
             : static_cast<double>(free_bytes) / static_cast<double>(capacity);
}

tenant::OverloadLevel HeterogeneousAllocator::overload_level() const {
  const double fraction = healthy_free_fraction();
  return tenant_registry_ != nullptr
             ? tenant_registry_->effective_level(fraction)
             : ladder_in_use().level_for(fraction);
}

bool HeterogeneousAllocator::no_healthy_online_target(
    const health::QuarantineList& quarantine) const {
  for (std::size_t n = 0; n < node_count_; ++n) {
    const unsigned node = static_cast<unsigned>(n);
    if (machine_->node_online(node) &&
        quarantine.verdict(node) == health::PlacementVerdict::kNormal) {
      return false;
    }
  }
  return true;
}

support::Error HeterogeneousAllocator::backpressure_error(
    const AllocRequest& request, std::string message, std::uint64_t hint_ms) {
  if (request.deadline_ms > 0) hint_ms = std::min(hint_ms, request.deadline_ms);
  message += "; retry-after-ms=";
  support::append_decimal(message, hint_ms);
  support::Error error = make_error(Errc::kBackpressure, std::move(message));
  error.retry_after_ms = hint_ms;
  return error;
}

double HeterogeneousAllocator::estimate_migration_cost_ns(
    sim::BufferId buffer, unsigned destination_node) const {
  const sim::BufferResidency residency = machine_->residency(buffer);
  if (residency.freed || residency.node == destination_node) return 0.0;
  const std::uint64_t bytes = residency.declared_bytes;
  const auto& model = machine_->perf_model();
  const sim::EffectiveNodePerf src =
      model.effective(residency.node, bytes, /*local_initiator=*/true);
  const sim::EffectiveNodePerf dst =
      model.effective(destination_node, bytes, /*local_initiator=*/true);
  const double copy_bw = std::min(src.read_bw, dst.write_bw);
  const double pages = static_cast<double>(
      (bytes + migration_model_.page_bytes - 1) / migration_model_.page_bytes);
  return pages * migration_model_.per_page_overhead_ns +
         static_cast<double>(bytes) / copy_bw * 1e9;
}

Result<double> HeterogeneousAllocator::migrate(sim::BufferId buffer,
                                               unsigned destination_node) {
  const sim::BufferResidency before = machine_->residency(buffer);
  const double cost_ns = estimate_migration_cost_ns(buffer, destination_node);
  if (Status status = machine_->migrate(buffer, destination_node); !status.ok()) {
    return status.error();
  }
  if (before.node == destination_node) return 0.0;

  move_tenant_charge(buffer, destination_node);
  stats_.migrations.fetch_add(1, std::memory_order_relaxed);
  stats_.bytes_migrated.fetch_add(before.declared_bytes,
                                  std::memory_order_relaxed);
  record_trace([&] {
    return TraceEvent{TraceEvent::Kind::kMigrate, machine_->info(buffer).label,
                      destination_node, before.declared_bytes,
                      "from node " + std::to_string(before.node)};
  });
  return cost_ns;
}

Result<HeterogeneousAllocator::HybridAllocation>
HeterogeneousAllocator::mem_alloc_hybrid(const AllocRequest& request) {
  if (request.tenant != nullptr) {
    return make_error(Errc::kUnsupported,
                      "hybrid allocations are not quota-accounted; "
                      "tenanted requests must use mem_alloc");
  }
  // Whole-buffer placement on the BEST target first. (Not the full ranking:
  // the point of a hybrid allocation is to keep part of the buffer on the
  // fast target instead of pushing all of it down the ranking, §VII.)
  AllocRequest strict = request;
  strict.policy = Policy::kStrict;
  if (auto whole = mem_alloc(strict); whole.ok()) {
    HybridAllocation hybrid;
    hybrid.fast = whole->buffer;
    hybrid.fast_node = whole->node;
    hybrid.slow_node = whole->node;
    return hybrid;
  }

  attr::RankingSnapshot snapshot = registry_->alloc_ranking_cached(
      request.attribute, request.initiator,
      request.locality);
  if (!snapshot->resolved_ok) {
    return registry_->resolve_with_fallback(request.attribute).error();
  }
  const std::vector<attr::TargetValue>& ranking = snapshot->targets;
  if (ranking.size() < 2) {
    return make_error(Errc::kOutOfCapacity,
                      "cannot split: fewer than two local targets");
  }

  // Take whatever the best target still has, round down to MiB granularity
  // so tiny slivers do not count as a "fast part".
  const unsigned fast_node = ranking[0].target->logical_index();
  const std::uint64_t granule = 1 << 20;
  const std::uint64_t fast_bytes =
      std::min(request.bytes, usable_bytes(fast_node) / granule * granule);
  if (fast_bytes == 0 || fast_bytes == request.bytes) {
    return make_error(Errc::kOutOfCapacity,
                      "best target has no usable room to split into");
  }
  const std::uint64_t slow_bytes = request.bytes - fast_bytes;
  const double fast_fraction =
      static_cast<double>(fast_bytes) / static_cast<double>(request.bytes);
  const std::size_t fast_backing = static_cast<std::size_t>(
      static_cast<double>(request.backing_bytes) * fast_fraction);
  const std::size_t slow_backing =
      request.backing_bytes > fast_backing ? request.backing_bytes - fast_backing : 0;

  auto fast = machine_->allocate(fast_bytes, fast_node,
                                 request.label + ".fast", fast_backing);
  if (!fast.ok()) return fast.error();

  for (std::size_t rank = 1; rank < ranking.size(); ++rank) {
    const unsigned slow_node = ranking[rank].target->logical_index();
    auto slow = machine_->allocate(slow_bytes, slow_node,
                                   request.label + ".slow", slow_backing);
    if (!slow.ok()) {
      if (slow.error().code == Errc::kOutOfCapacity) continue;
      (void)machine_->free(*fast);
      return slow.error();
    }
    stats_.allocations.fetch_add(2, std::memory_order_relaxed);
    stats_.fallbacks.fetch_add(1, std::memory_order_relaxed);
    stats_.bytes_allocated.fetch_add(request.bytes, std::memory_order_relaxed);
    record_trace([&] {
      return TraceEvent{TraceEvent::Kind::kAlloc, request.label,
                        fast_node, request.bytes,
                        "hybrid split " +
                            support::format_fixed(fast_fraction * 100, 0) +
                            "% / node " + std::to_string(slow_node)};
    });
    HybridAllocation hybrid;
    hybrid.fast = *fast;
    hybrid.slow = *slow;
    hybrid.fast_node = fast_node;
    hybrid.slow_node = slow_node;
    hybrid.fast_fraction = fast_fraction;
    return hybrid;
  }
  (void)machine_->free(*fast);
  stats_.failures.fetch_add(1, std::memory_order_relaxed);
  return make_error(Errc::kOutOfCapacity,
                    "no target can hold the slow part of the split");
}

Result<HeterogeneousAllocator::InterleavedAllocation>
HeterogeneousAllocator::mem_alloc_interleaved(const AllocRequest& request,
                                              unsigned max_ways) {
  if (max_ways == 0 || request.bytes == 0 || request.initiator.empty()) {
    return make_error(Errc::kInvalidArgument, "bad interleave request");
  }
  if (request.tenant != nullptr) {
    return make_error(Errc::kUnsupported,
                      "interleaved allocations are not quota-accounted; "
                      "tenanted requests must use mem_alloc");
  }
  attr::RankingSnapshot snapshot = registry_->alloc_ranking_cached(
      request.attribute, request.initiator,
      request.locality);
  if (!snapshot->resolved_ok) {
    return registry_->resolve_with_fallback(request.attribute).error();
  }
  const std::vector<attr::TargetValue>& ranking = snapshot->targets;
  if (ranking.empty()) {
    return make_error(Errc::kNotFound, "no local target has attribute values");
  }

  // Membership: walk the ranking collecting the best targets that can each
  // hold an equal stripe; shrink the way count until enough members fit.
  for (unsigned ways = std::min<unsigned>(max_ways,
                                          static_cast<unsigned>(ranking.size()));
       ways >= 1; --ways) {
    const std::uint64_t stripe = (request.bytes + ways - 1) / ways;
    std::vector<unsigned> members;
    for (const attr::TargetValue& candidate : ranking) {
      if (usable_bytes(candidate.target->logical_index()) >= stripe) {
        members.push_back(candidate.target->logical_index());
        if (members.size() == ways) break;
      }
    }
    if (members.size() < ways) continue;

    InterleavedAllocation result;
    std::uint64_t remaining = request.bytes;
    for (unsigned w = 0; w < ways; ++w) {
      const std::uint64_t part_bytes = std::min(stripe, remaining);
      remaining -= part_bytes;
      const unsigned node = members[w];
      auto buffer = machine_->allocate(
          part_bytes, node, request.label + ".ileave" + std::to_string(w),
          request.backing_bytes / std::max(1u, ways));
      if (!buffer.ok()) {
        for (sim::BufferId id : result.parts) (void)machine_->free(id);
        return buffer.error();
      }
      result.parts.push_back(*buffer);
      result.nodes.push_back(node);
      result.fractions.push_back(static_cast<double>(part_bytes) /
                                 static_cast<double>(request.bytes));
    }
    stats_.allocations.fetch_add(1, std::memory_order_relaxed);
    stats_.bytes_allocated.fetch_add(request.bytes, std::memory_order_relaxed);
    record_trace([&] {
      return TraceEvent{TraceEvent::Kind::kAlloc, request.label,
                        result.nodes.front(), request.bytes,
                        "interleaved " + std::to_string(ways) + "-way"};
    });
    return result;
  }
  stats_.failures.fetch_add(1, std::memory_order_relaxed);
  return make_error(Errc::kOutOfCapacity,
                    "no interleave width fits '" + request.label + "'");
}

Status HeterogeneousAllocator::reserve(unsigned node, std::uint64_t bytes) {
  if (node >= node_count_) {
    return make_error(Errc::kInvalidArgument, "no such node");
  }
  // The availability check is advisory under concurrency (other threads
  // allocate while we look); the hard never-oversubscribe invariant lives in
  // the machine's capacity CAS. The reservation counter itself is exact.
  std::uint64_t reserved = reserved_[node].load(std::memory_order_relaxed);
  do {
    if (machine_->available_bytes(node) < reserved + bytes) {
      return make_error(Errc::kOutOfCapacity,
                        "cannot reserve " + support::format_bytes(bytes) +
                            " on node " + std::to_string(node));
    }
  } while (!reserved_[node].compare_exchange_weak(reserved, reserved + bytes,
                                                  std::memory_order_relaxed));
  return {};
}

void HeterogeneousAllocator::release_reservation(unsigned node,
                                                 std::uint64_t bytes) {
  if (node >= node_count_) return;
  std::uint64_t reserved = reserved_[node].load(std::memory_order_relaxed);
  std::uint64_t next;
  do {
    next = reserved - std::min(reserved, bytes);
  } while (!reserved_[node].compare_exchange_weak(reserved, next,
                                                  std::memory_order_relaxed));
}

std::uint64_t HeterogeneousAllocator::reserved_bytes(unsigned node) const {
  return node < node_count_ ? reserved_[node].load(std::memory_order_relaxed) : 0;
}

bool HeterogeneousAllocator::consume_reservation(unsigned node,
                                                 std::uint64_t bytes) {
  std::uint64_t reserved = reserved_[node].load(std::memory_order_relaxed);
  do {
    if (reserved < bytes) return false;
  } while (!reserved_[node].compare_exchange_weak(reserved, reserved - bytes,
                                                  std::memory_order_relaxed));
  return true;
}

Result<Allocation> HeterogeneousAllocator::mem_alloc_reserved(
    unsigned node, std::uint64_t bytes, std::string label,
    std::size_t backing_bytes) {
  if (node >= node_count_) {
    return make_error(Errc::kInvalidArgument, "no such node");
  }
  // Consume the reservation *before* allocating so two racing callers can
  // never both spend the same reserved bytes; refund on allocation failure.
  if (!consume_reservation(node, bytes)) {
    return make_error(Errc::kOutOfCapacity,
                      "reservation on node " + std::to_string(node) +
                          " holds only " +
                          support::format_bytes(reserved_bytes(node)));
  }
  auto buffer = machine_->allocate(bytes, node, label, backing_bytes);
  if (!buffer.ok()) {
    reserved_[node].fetch_add(bytes, std::memory_order_relaxed);
    return buffer.error();
  }
  stats_.allocations.fetch_add(1, std::memory_order_relaxed);
  stats_.bytes_allocated.fetch_add(bytes, std::memory_order_relaxed);
  record_trace([&] {
    return TraceEvent{TraceEvent::Kind::kAlloc, label, node, bytes,
                      "from reservation"};
  });
  return Allocation{*buffer, node, attr::kCapacity, 0, false};
}

Result<Allocation> HeterogeneousAllocator::mem_alloc_intercepted(
    std::uint64_t bytes, const support::Bitmap& initiator, std::string label,
    std::size_t backing_bytes) {
  AllocRequest request;
  request.bytes = bytes;
  request.initiator = initiator;
  request.label = std::move(label);
  request.backing_bytes = backing_bytes;
  request.policy = Policy::kPreferredThenDefault;

  for (const SizeRule& rule : size_rules_) {
    if (bytes >= rule.min_bytes && bytes < rule.max_bytes) {
      request.attribute = rule.attribute;
      return mem_alloc(request);
    }
  }
  // No rule matched: OS default order == Locality ranking (closest, then
  // logical index), which Capacity-agnostic malloc would get.
  request.attribute = attr::kLocality;
  return mem_alloc(request);
}

}  // namespace hetmem::alloc
