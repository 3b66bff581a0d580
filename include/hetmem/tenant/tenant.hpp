// Multi-tenant memory service layer (docs/TENANCY.md).
//
// The paper's allocator assumes one cooperative application; the ROADMAP
// north-star is a service where many clients contend for the same
// DRAM/HBM/NVDIMM capacity. This header is the arbitration substrate:
//
//   Tenant          — one client's identity: priority class, quota, and
//                     atomic usage accounting (lives as a shared_ptr so
//                     in-flight allocations survive deregistration).
//   TenantRegistry  — registration/lookup plus the machine-wide overload
//                     policy (DegradationLadder) and weighted-share math.
//   DegradationLadder — maps machine pressure to a per-priority action:
//                     place normally, spill off hot tiers, or shed with a
//                     structured retry-after hint. This replaces the binary
//                     "kBackpressure or nothing" overload response.
//
// The allocator consults all three on its tenant-aware admission path
// (AllocRequest::tenant); everything here is dependency-light (support +
// topo only) so alloc/runtime/health can layer on top without cycles.
#pragma once

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <shared_mutex>
#include <string>
#include <string_view>
#include <vector>

#include "hetmem/support/result.hpp"
#include "hetmem/topo/object.hpp"

namespace hetmem::tenant {

/// Service priority class. Lower enumerator = more important. The
/// degradation ladder sheds kBestEffort first, spills kNormal next, and
/// protects kCritical until real capacity exhaustion.
enum class Priority : std::uint8_t {
  kCritical = 0,
  kNormal = 1,
  kBestEffort = 2,
};

[[nodiscard]] constexpr const char* priority_name(Priority priority) {
  switch (priority) {
    case Priority::kCritical: return "critical";
    case Priority::kNormal: return "normal";
    case Priority::kBestEffort: return "best-effort";
  }
  return "?";
}

using TenantId = std::uint32_t;
/// Sentinel for "no tenant" (the library's classic single-application mode).
inline constexpr TenantId kNoTenant = 0;

/// One quota slot per topo::MemoryKind enumerator (kDRAM..kGPU).
inline constexpr std::size_t kTierCount = 5;

[[nodiscard]] constexpr std::size_t tier_index(topo::MemoryKind kind) {
  return static_cast<std::size_t>(kind) < kTierCount
             ? static_cast<std::size_t>(kind)
             : 0;
}

/// Per-tenant byte caps. UINT64_MAX means unlimited (the default): quotas
/// are opt-in per tenant, like every other service feature.
struct TenantQuota {
  /// Cap across all tiers.
  std::uint64_t total_cap_bytes = UINT64_MAX;
  /// Per-tier caps, indexed by topo::MemoryKind. A small DRAM cap is how an
  /// operator keeps best-effort tenants from squatting on the fast tier.
  std::array<std::uint64_t, kTierCount> tier_cap_bytes{
      UINT64_MAX, UINT64_MAX, UINT64_MAX, UINT64_MAX, UINT64_MAX};
  /// Weighted machine share (fairness gate in bench/stress_tenants and the
  /// GlobalArbiter's slice math). Relative to the sum over live tenants.
  double share_weight = 1.0;
};

/// Outcome of a quota charge attempt, in decreasing order of severity.
enum class ChargeResult : std::uint8_t {
  kOk = 0,
  /// This tier's cap is full: the ranking walk may fall through to another
  /// tier, so this is a per-node skip, not a request failure.
  kTierCapExceeded,
  /// The tenant's total cap is full: no placement anywhere can help.
  kTotalCapExceeded,
  /// The tenant was deregistered; new charges are refused.
  kTenantDead,
};

/// Per-tenant shed/spill telemetry (relaxed atomics, exact per counter).
struct TenantStats {
  std::uint64_t admitted = 0;
  std::uint64_t spilled = 0;        // placed, but off the preferred tier
  std::uint64_t shed = 0;           // refused with a retry-after hint
  std::uint64_t quota_rejections = 0;
};

/// One registered client. Usage accounting lives here (not in the registry)
/// so a deregistered tenant's outstanding buffers keep uncharging through
/// the handle the allocator retained — the refund happens exactly once, on
/// the free, never again on deregistration.
class Tenant {
 public:
  Tenant(TenantId id, std::string name, Priority priority, TenantQuota quota)
      : id_(id), name_(std::move(name)), priority_(priority), quota_(quota) {
    for (auto& used : tier_used_) used.store(0, std::memory_order_relaxed);
  }

  Tenant(const Tenant&) = delete;
  Tenant& operator=(const Tenant&) = delete;

  [[nodiscard]] TenantId id() const { return id_; }
  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] Priority priority() const { return priority_; }
  [[nodiscard]] const TenantQuota& quota() const { return quota_; }
  /// False once deregistered: existing charges stay (and refund on free),
  /// new charges are refused with kTenantDead.
  [[nodiscard]] bool live() const {
    return live_.load(std::memory_order_acquire);
  }

  [[nodiscard]] std::uint64_t used_bytes() const {
    return total_used_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t used_bytes(topo::MemoryKind tier) const {
    return tier_used_[tier_index(tier)].load(std::memory_order_relaxed);
  }

  /// CAS-charges `bytes` against the total cap then the tier cap; on tier
  /// failure the total charge is rolled back, so a failed charge never
  /// leaks. Callable from any allocation thread.
  ChargeResult try_charge(topo::MemoryKind tier, std::uint64_t bytes) {
    if (!live()) return ChargeResult::kTenantDead;
    std::uint64_t used = total_used_.load(std::memory_order_relaxed);
    do {
      if (quota_.total_cap_bytes != UINT64_MAX &&
          used + bytes > quota_.total_cap_bytes) {
        return ChargeResult::kTotalCapExceeded;
      }
    } while (!total_used_.compare_exchange_weak(used, used + bytes,
                                                std::memory_order_relaxed));
    const std::size_t t = tier_index(tier);
    std::uint64_t tier_used = tier_used_[t].load(std::memory_order_relaxed);
    do {
      if (quota_.tier_cap_bytes[t] != UINT64_MAX &&
          tier_used + bytes > quota_.tier_cap_bytes[t]) {
        total_used_.fetch_sub(bytes, std::memory_order_relaxed);
        return ChargeResult::kTierCapExceeded;
      }
    } while (!tier_used_[t].compare_exchange_weak(tier_used, tier_used + bytes,
                                                  std::memory_order_relaxed));
    return ChargeResult::kOk;
  }

  /// Refunds a prior successful charge (free / failed placement).
  void uncharge(topo::MemoryKind tier, std::uint64_t bytes) {
    tier_used_[tier_index(tier)].fetch_sub(bytes, std::memory_order_relaxed);
    total_used_.fetch_sub(bytes, std::memory_order_relaxed);
  }

  /// Migration re-homing: the charge follows the buffer unconditionally —
  /// tier caps gate new admissions, never an evacuation off failing
  /// hardware (a health drain must not deadlock on a quota).
  void move_charge(topo::MemoryKind from, topo::MemoryKind to,
                   std::uint64_t bytes) {
    if (tier_index(from) == tier_index(to)) return;
    tier_used_[tier_index(from)].fetch_sub(bytes, std::memory_order_relaxed);
    tier_used_[tier_index(to)].fetch_add(bytes, std::memory_order_relaxed);
  }

  [[nodiscard]] TenantStats stats() const {
    TenantStats snapshot;
    snapshot.admitted = admitted_.load(std::memory_order_relaxed);
    snapshot.spilled = spilled_.load(std::memory_order_relaxed);
    snapshot.shed = shed_.load(std::memory_order_relaxed);
    snapshot.quota_rejections =
        quota_rejections_.load(std::memory_order_relaxed);
    return snapshot;
  }

  void note_admitted() { admitted_.fetch_add(1, std::memory_order_relaxed); }
  void note_spilled() { spilled_.fetch_add(1, std::memory_order_relaxed); }
  void note_shed() { shed_.fetch_add(1, std::memory_order_relaxed); }
  void note_quota_rejection() {
    quota_rejections_.fetch_add(1, std::memory_order_relaxed);
  }

  /// Snapshot/restore (src/recover): overwrites the telemetry counters.
  /// Usage accounting is NOT restored here — charges are rebuilt through
  /// try_charge as the restorer re-adopts each buffer, so accounting always
  /// equals the sum of live charges.
  void restore_stats(const TenantStats& stats) {
    admitted_.store(stats.admitted, std::memory_order_relaxed);
    spilled_.store(stats.spilled, std::memory_order_relaxed);
    shed_.store(stats.shed, std::memory_order_relaxed);
    quota_rejections_.store(stats.quota_rejections, std::memory_order_relaxed);
  }

 private:
  friend class TenantRegistry;

  const TenantId id_;
  const std::string name_;
  const Priority priority_;
  const TenantQuota quota_;
  std::atomic<bool> live_{true};
  std::atomic<std::uint64_t> total_used_{0};
  std::array<std::atomic<std::uint64_t>, kTierCount> tier_used_{};
  std::atomic<std::uint64_t> admitted_{0};
  std::atomic<std::uint64_t> spilled_{0};
  std::atomic<std::uint64_t> shed_{0};
  std::atomic<std::uint64_t> quota_rejections_{0};
};

/// Shared ownership keeps a tenant's accounting alive for as long as any
/// allocation, charge-map entry, or API caller still references it.
using TenantHandle = std::shared_ptr<Tenant>;

/// Machine-wide overload level, derived from the healthy free fraction.
/// Levels only restrict — each step keeps everything the previous step
/// denied and adds more.
enum class OverloadLevel : std::uint8_t {
  kNormal = 0,           // everyone places normally
  kSpillLowPriority = 1, // best-effort spills off nearly-full preferred tiers
  kShedBestEffort = 2,   // best-effort sheds; normal spills
  kCriticalOnly = 3,     // normal sheds too; only critical places
};

[[nodiscard]] constexpr const char* overload_level_name(OverloadLevel level) {
  switch (level) {
    case OverloadLevel::kNormal: return "normal";
    case OverloadLevel::kSpillLowPriority: return "spill-low-priority";
    case OverloadLevel::kShedBestEffort: return "shed-best-effort";
    case OverloadLevel::kCriticalOnly: return "critical-only";
  }
  return "?";
}

/// What the ladder tells the allocator to do with one request.
enum class LadderAction : std::uint8_t {
  kPlace,  // normal ranking walk
  kSpill,  // ranking walk, but skip nearly-full nodes on the first pass
  kShed,   // refuse now with Errc::kBackpressure + retry_after_ms
};

struct LadderOptions {
  /// Healthy-free-fraction thresholds for entering each level; must be
  /// monotonically decreasing.
  double spill_free_fraction = 0.25;
  double shed_free_fraction = 0.12;
  double critical_only_free_fraction = 0.04;
  /// A node counts as "hot" for the spill pass above this occupancy.
  double spill_node_occupancy = 0.90;
  /// Base retry-after hint; doubles per ladder level above the shedding
  /// threshold so hints grow as the machine gets sicker.
  std::uint64_t retry_after_base_ms = 4;
};

/// Pure policy: pressure -> level -> per-priority action. Stateless and
/// immutable after construction, so it is safe to read from any thread.
class DegradationLadder {
 public:
  explicit DegradationLadder(LadderOptions options = {}) : options_(options) {}

  [[nodiscard]] OverloadLevel level_for(double healthy_free_fraction) const {
    if (healthy_free_fraction < options_.critical_only_free_fraction) {
      return OverloadLevel::kCriticalOnly;
    }
    if (healthy_free_fraction < options_.shed_free_fraction) {
      return OverloadLevel::kShedBestEffort;
    }
    if (healthy_free_fraction < options_.spill_free_fraction) {
      return OverloadLevel::kSpillLowPriority;
    }
    return OverloadLevel::kNormal;
  }

  [[nodiscard]] LadderAction action(OverloadLevel level,
                                    Priority priority) const {
    switch (level) {
      case OverloadLevel::kNormal:
        return LadderAction::kPlace;
      case OverloadLevel::kSpillLowPriority:
        return priority == Priority::kBestEffort ? LadderAction::kSpill
                                                 : LadderAction::kPlace;
      case OverloadLevel::kShedBestEffort:
        if (priority == Priority::kBestEffort) return LadderAction::kShed;
        return priority == Priority::kNormal ? LadderAction::kSpill
                                             : LadderAction::kPlace;
      case OverloadLevel::kCriticalOnly:
        return priority == Priority::kCritical ? LadderAction::kPlace
                                               : LadderAction::kShed;
    }
    return LadderAction::kPlace;
  }

  /// Deterministic base hint for a shed request: grows with the overload
  /// level and with how far the priority is from critical, so the clients
  /// the ladder wants gone longest are told to stay away longest. Callers
  /// add jitter via support::Backoff, not here.
  [[nodiscard]] std::uint64_t retry_after_ms(OverloadLevel level,
                                             Priority priority) const {
    const unsigned level_steps = static_cast<unsigned>(level);
    const unsigned priority_steps = static_cast<unsigned>(priority);
    return options_.retry_after_base_ms << (level_steps + priority_steps);
  }

  [[nodiscard]] const LadderOptions& options() const { return options_; }

 private:
  LadderOptions options_;
};

struct TenantRegistryOptions {
  LadderOptions ladder;
};

/// Registration, lookup, and the machine-wide share math.
///
/// Thread safety (docs/CONCURRENCY.md): register/deregister take an
/// exclusive lock; find/tenants/share math take a shared lock; everything on
/// a Tenant handle (charges, stats) is lock-free atomics, so allocation hot
/// paths never touch the registry mutex.
class TenantRegistry {
 public:
  explicit TenantRegistry(TenantRegistryOptions options = {})
      : ladder_(options.ladder) {}

  TenantRegistry(const TenantRegistry&) = delete;
  TenantRegistry& operator=(const TenantRegistry&) = delete;

  /// Registers a tenant under a unique name. Ids are never reused.
  support::Result<TenantHandle> register_tenant(std::string name,
                                                Priority priority,
                                                TenantQuota quota = {});

  /// Removes the tenant from the live set and marks the handle dead —
  /// exactly once: a second call (or a stale handle) reports kNotFound.
  /// Outstanding buffers keep their charges until freed; the tenant simply
  /// stops being admitted and stops counting toward the live share weights.
  support::Status deregister_tenant(const TenantHandle& handle);

  /// Snapshot/restore (src/recover): re-registers a tenant under its
  /// ORIGINAL id, bumping the id counter past it so ids stay never-reused
  /// and match the snapshotted run exactly (deregistered tenants leave
  /// gaps). Setup-time only; fails on a duplicate id or name.
  support::Result<TenantHandle> restore_tenant(TenantId id, std::string name,
                                               Priority priority,
                                               TenantQuota quota);

  [[nodiscard]] TenantHandle find(std::string_view name) const;
  [[nodiscard]] TenantHandle find(TenantId id) const;
  [[nodiscard]] std::vector<TenantHandle> tenants() const;
  [[nodiscard]] std::size_t live_count() const;

  /// Id watermark: the id the NEXT register_tenant call will mint. Part of
  /// the snapshot state — deregistered tenants leave no trace in tenants(),
  /// so without the watermark a restored registry would re-mint their ids
  /// and break the never-reused-id contract.
  [[nodiscard]] TenantId next_id() const {
    std::shared_lock<std::shared_mutex> lock(mutex_);
    return next_id_;
  }
  /// Restore-time only: advances the watermark (never rewinds it).
  void restore_next_id(TenantId next) {
    std::unique_lock<std::shared_mutex> lock(mutex_);
    if (next > next_id_) next_id_ = next;
  }

  [[nodiscard]] const DegradationLadder& ladder() const { return ladder_; }

  /// Operator override: forces at least this overload level regardless of
  /// measured pressure (drills, planned maintenance, tests). nullopt clears.
  void set_overload_override(std::optional<OverloadLevel> level) {
    override_.store(level ? static_cast<int>(*level) : -1,
                    std::memory_order_relaxed);
  }
  [[nodiscard]] std::optional<OverloadLevel> overload_override() const {
    const int raw = override_.load(std::memory_order_relaxed);
    if (raw < 0) return std::nullopt;
    return static_cast<OverloadLevel>(raw);
  }

  /// Combines the measured level with the operator override (max wins).
  [[nodiscard]] OverloadLevel effective_level(
      double healthy_free_fraction) const {
    OverloadLevel level = ladder_.level_for(healthy_free_fraction);
    if (auto forced = overload_override();
        forced && static_cast<int>(*forced) > static_cast<int>(level)) {
      level = *forced;
    }
    return level;
  }

  /// `handle`'s weighted fair share of the machine: share_weight over the
  /// sum of live share weights (1.0 when it is the only live tenant).
  [[nodiscard]] double share_fraction(const TenantHandle& handle) const;

 private:
  mutable std::shared_mutex mutex_;
  std::vector<TenantHandle> tenants_;  // live tenants only
  TenantId next_id_ = 1;               // 0 is kNoTenant
  std::atomic<int> override_{-1};
  const DegradationLadder ladder_;
};

}  // namespace hetmem::tenant
