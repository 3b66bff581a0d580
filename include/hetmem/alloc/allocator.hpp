// Heterogeneous memory allocator (paper §IV-B).
//
// mem_alloc(bytes, attribute) allocates on the best *local* memory target
// for the requested attribute — Bandwidth, Latency, Capacity, or any custom
// attribute — and falls back down the per-attribute ranking when a target is
// full. The attribute says what matters to the buffer, never which memory
// technology to use: the same call returns MCDRAM on KNL, DRAM on a
// DRAM+NVDIMM Xeon, and the only node on a homogeneous machine. That
// portability is the paper's core claim (§VI-A, last paragraph).
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "hetmem/memattr/memattr.hpp"
#include "hetmem/simmem/machine.hpp"
#include "hetmem/support/backoff.hpp"
#include "hetmem/support/result.hpp"
#include "hetmem/tenant/tenant.hpp"

namespace hetmem::alloc {

enum class Policy : std::uint8_t {
  /// Best-ranked target or failure; never falls back (strict binding).
  kStrict,
  /// Walk the attribute ranking until a target has room (the paper's
  /// allocator: "the allocator can easily fallback to next ones according
  /// to the ranking for this attribute").
  kRankedFallback,
  /// Best-ranked target, else the OS default order (local nodes by logical
  /// index — what Linux "preferred" policy approximates, §VII).
  kPreferredThenDefault,
};

struct AllocRequest {
  std::uint64_t bytes = 0;
  /// Criterion expressing the buffer's need (kBandwidth, kLatency,
  /// kCapacity, custom). Missing attributes fall back per
  /// MemAttrRegistry::resolve_with_fallback (e.g. ReadBandwidth->Bandwidth).
  attr::AttrId attribute = attr::kCapacity;
  support::Bitmap initiator;
  Policy policy = Policy::kRankedFallback;
  topo::LocalityFlags locality = topo::LocalityFlags::kIntersecting;
  /// Real backing storage (see SimMachine::allocate).
  std::size_t backing_bytes = 0;
  std::string label;
  /// Resilience opt-in: when the requested attribute resolves to no usable
  /// ranking (no values, no *trusted* values after noise demotion, or no
  /// local target), degrade to a kCapacity ranking instead of failing —
  /// Capacity is always populated natively and cannot be poisoned by bad
  /// firmware or noisy probes. Off by default: portable callers usually
  /// want to hear about a broken attribute, chaos-hardened callers want
  /// the allocation to land somewhere.
  bool attribute_rescue = false;
  /// Health admission control opt-in (docs/RESILIENCE.md "Health &
  /// evacuation"): when the registry has a QuarantineList installed,
  /// quarantined/offline targets are withheld from this request entirely,
  /// and a request that could only have landed on unhealthy capacity fails
  /// with kBackpressure instead of silently placing on a failing node. Off
  /// by default: the ranking already sinks quarantined targets to the
  /// bottom, and best-effort callers prefer degraded placement over failure.
  bool admission_control = false;
  /// Multi-tenant service path (docs/TENANCY.md): when set, the request is
  /// charged against the tenant's quota and admitted through the machine's
  /// degradation ladder — under pressure a low-priority tenant's request is
  /// first spilled off nearly-full preferred tiers, then shed with
  /// Errc::kBackpressure carrying a structured retry_after_ms hint. Null
  /// (the default) is the classic single-application mode, byte-for-byte
  /// unchanged.
  tenant::TenantHandle tenant;
  /// Optional latency budget in ms (0 = none): a shed request's retry-after
  /// hint never exceeds the deadline, so a deadline-bound client is never
  /// told to back off past the point where the answer stops mattering.
  std::uint64_t deadline_ms = 0;
};

/// Bounded retry for transient (kTransient) target failures — injected
/// faults or momentary contention. Retries are per target per request; once
/// exhausted the target is treated as full and the ranking walk continues.
/// Retry pacing rides the shared support::Backoff engine (the same
/// full-jitter windows the tenant shed path and the recover circuit-breaker
/// probes use): each retry draws a simulated delay that is accounted in
/// AllocatorStats::retry_backoff_ms rather than slept, so the allocator
/// stays wall-clock-free while the retry pressure stays observable.
struct RetryPolicy {
  unsigned max_transient_retries = 2;
  /// Floor (ms) of the first retry's jitter window. 0 (the default)
  /// disables pacing accounting entirely — the pre-unification behaviour.
  std::uint64_t retry_floor_ms = 0;
  /// Jitter window shape for the retries.
  support::BackoffOptions backoff{};
};

struct Allocation {
  sim::BufferId buffer;
  unsigned node = 0;             // where it landed (logical index)
  attr::AttrId used_attribute = 0;  // after attribute fallback
  unsigned rank = 0;             // position in the ranking that succeeded
  bool fell_back = false;        // rank > 0 or default-order rescue
};

/// Cost model for hwloc-style page migration between targets — expensive in
/// real OSes (paper §VII), so callers should weigh cost against benefit
/// (bench/ablation_migration does exactly that).
struct MigrationCostModel {
  double per_page_overhead_ns = 1200.0;  // kernel bookkeeping per 4KiB page
  std::uint64_t page_bytes = 4096;
};

struct AllocatorStats {
  std::uint64_t allocations = 0;
  std::uint64_t fallbacks = 0;       // not first-ranked
  std::uint64_t failures = 0;
  std::uint64_t frees = 0;
  std::uint64_t migrations = 0;
  std::uint64_t bytes_allocated = 0;
  std::uint64_t bytes_migrated = 0;
  std::uint64_t transient_retries = 0;   // kTransient failures retried
  std::uint64_t attribute_rescues = 0;   // degraded to kCapacity ranking
  /// Requests refused with kBackpressure, all reasons (the sum of the three
  /// per-reason counters below).
  std::uint64_t backpressure_rejections = 0;
  /// ... because admission control withheld every target that still had
  /// room (all quarantined/offline).
  std::uint64_t backpressure_health = 0;
  /// ... because the tenant's quota (total or every reachable tier cap)
  /// could not absorb the request.
  std::uint64_t backpressure_quota = 0;
  /// ... because the degradation ladder shed the request outright for its
  /// priority class at the current overload level.
  std::uint64_t backpressure_shed = 0;
  /// Tenanted allocations that landed only after the ladder's spill pass
  /// steered them off a nearly-full preferred node.
  std::uint64_t tenant_spills = 0;
  /// Simulated milliseconds of transient-retry pacing drawn from the shared
  /// support::Backoff engine (0 unless RetryPolicy::backoff is configured).
  std::uint64_t retry_backoff_ms = 0;
};

struct TraceEvent {
  enum class Kind : std::uint8_t { kAlloc, kFree, kMigrate, kFail };
  Kind kind = Kind::kAlloc;
  std::string label;
  unsigned node = 0;
  std::uint64_t bytes = 0;
  std::string detail;
};

/// AutoHBW-style interception rule (paper §II-D / §IV-B: "the code
/// modification step could still be avoided by intercepting allocation
/// calls"): buffers whose size falls in [min_bytes, max_bytes) get
/// `attribute` without the application saying anything.
struct SizeRule {
  std::uint64_t min_bytes = 0;
  std::uint64_t max_bytes = UINT64_MAX;
  attr::AttrId attribute = attr::kCapacity;
};

/// Thread safety: mem_alloc / mem_free / migrate / the reservation calls and
/// every stats/trace accessor may run concurrently from any number of
/// threads. Statistics are per-counter atomic (a snapshot's counters are each
/// exact but not mutually transactional), the trace is mutex-guarded (disable
/// it with set_trace_enabled(false) to keep benchmark hot paths lock-free),
/// and reservations are CAS-maintained so a reservation is never consumed
/// twice. Configuration calls (add_size_rule, set_migration_cost_model) are
/// setup-time: call them before sharing the allocator across threads.
class HeterogeneousAllocator {
 public:
  HeterogeneousAllocator(sim::SimMachine& machine,
                         const attr::MemAttrRegistry& registry);

  /// The paper's mem_alloc(..., attribute).
  support::Result<Allocation> mem_alloc(const AllocRequest& request);

  support::Status mem_free(sim::BufferId buffer);

  /// Moves a buffer and returns the modeled migration cost in simulated ns
  /// (copy at min(src read bw, dst write bw) plus per-page OS overhead).
  support::Result<double> migrate(sim::BufferId buffer, unsigned destination_node);

  /// The cost migrate() would charge, without moving anything — what the
  /// advisor and the online MigrationEngine gate their break-even decisions
  /// on. 0 for the buffer's current node or a freed buffer.
  [[nodiscard]] double estimate_migration_cost_ns(sim::BufferId buffer,
                                                  unsigned destination_node) const;

  // --- hybrid (partial) allocations, paper §VII ---

  struct HybridAllocation {
    /// Part on the best-ranked target; invalid when nothing fit there.
    sim::BufferId fast;
    /// Remainder on the next target; invalid when everything fit in `fast`.
    sim::BufferId slow;
    unsigned fast_node = 0;
    unsigned slow_node = 0;
    /// Fraction of the request that landed on the fast part (1.0 = no split).
    double fast_fraction = 1.0;
  };

  /// Linux "Preferred"-policy emulation: place as much of the request as
  /// fits on the best-ranked target and the remainder on the next ranked
  /// target with room. Whole-buffer placement is preferred when possible.
  /// Backing bytes are split proportionally.
  support::Result<HybridAllocation> mem_alloc_hybrid(const AllocRequest& request);

  struct InterleavedAllocation {
    std::vector<sim::BufferId> parts;   // one per node used, ranking order
    std::vector<unsigned> nodes;
    std::vector<double> fractions;      // of the request, sums to 1
  };

  /// numactl --interleave analogue with attribute-ranked membership: the
  /// request is striped equally across up to `max_ways` of the best local
  /// targets that can hold a stripe. Degenerates to a whole-buffer
  /// allocation when only one target qualifies.
  support::Result<InterleavedAllocation> mem_alloc_interleaved(
      const AllocRequest& request, unsigned max_ways);

  // --- capacity reservations (§VII: keep fast memory free for late hot
  // buffers) ---

  /// Sets aside `bytes` on `node`: ordinary mem_alloc treats them as used.
  support::Status reserve(unsigned node, std::uint64_t bytes);
  /// Returns reserved bytes to general availability (all of them when
  /// `bytes` exceeds the current reservation).
  void release_reservation(unsigned node, std::uint64_t bytes);
  [[nodiscard]] std::uint64_t reserved_bytes(unsigned node) const;
  /// Allocates out of a prior reservation on a specific node (strictly).
  support::Result<Allocation> mem_alloc_reserved(unsigned node,
                                                 std::uint64_t bytes,
                                                 std::string label,
                                                 std::size_t backing_bytes = 0);

  // --- AutoHBW-style interception ---
  void add_size_rule(SizeRule rule) { size_rules_.push_back(rule); }
  /// Allocates using the first matching size rule, else the OS default
  /// order (no attribute preference).
  support::Result<Allocation> mem_alloc_intercepted(std::uint64_t bytes,
                                                    const support::Bitmap& initiator,
                                                    std::string label,
                                                    std::size_t backing_bytes = 0);

  /// Consistent-at-each-counter snapshot of the statistics.
  [[nodiscard]] AllocatorStats stats() const;
  /// Snapshot of the trace so far (copied under the trace lock).
  [[nodiscard]] std::vector<TraceEvent> trace() const;
  /// Allocation-failure telemetry: just the kFail events of the trace, in
  /// order — what an operator greps after a chaos run.
  [[nodiscard]] std::vector<TraceEvent> failure_log() const;
  /// Tracing is on by default. Multithreaded benchmarks turn it off so the
  /// hot path touches no lock at all (stats stay on — they are atomic).
  void set_trace_enabled(bool enabled) {
    trace_enabled_.store(enabled, std::memory_order_relaxed);
  }
  [[nodiscard]] bool trace_enabled() const {
    return trace_enabled_.load(std::memory_order_relaxed);
  }
  /// The scalar knobs are safe to change while other threads allocate (the
  /// retry path reads them atomically); the backoff window shape is
  /// setup-time configuration like add_size_rule.
  void set_retry_policy(RetryPolicy policy) {
    max_transient_retries_.store(policy.max_transient_retries,
                                 std::memory_order_relaxed);
    retry_floor_ms_.store(policy.retry_floor_ms, std::memory_order_relaxed);
    retry_backoff_options_ = policy.backoff;
  }
  [[nodiscard]] RetryPolicy retry_policy() const {
    return RetryPolicy{max_transient_retries_.load(std::memory_order_relaxed),
                       retry_floor_ms_.load(std::memory_order_relaxed),
                       retry_backoff_options_};
  }
  [[nodiscard]] sim::SimMachine& machine() { return *machine_; }
  [[nodiscard]] const attr::MemAttrRegistry& registry() const { return *registry_; }

  void set_migration_cost_model(MigrationCostModel model) { migration_model_ = model; }
  [[nodiscard]] const MigrationCostModel& migration_cost_model() const {
    return migration_model_;
  }

  // --- multi-tenant service surface (docs/TENANCY.md) ---

  /// Installs the tenant registry whose ladder options and operator override
  /// govern tenanted admission. Setup-time configuration (like
  /// add_size_rule): install before sharing the allocator across threads.
  /// Without a registry, tenanted requests still enforce their quotas and
  /// ride a default-configured ladder.
  void set_tenant_registry(const tenant::TenantRegistry* registry) {
    tenant_registry_ = registry;
  }
  [[nodiscard]] const tenant::TenantRegistry* tenant_registry() const {
    return tenant_registry_;
  }

  /// The owner of a tenanted buffer; null for untenanted or freed buffers.
  /// What the GlobalArbiter keys its budget draws on.
  [[nodiscard]] tenant::TenantHandle tenant_of(sim::BufferId buffer) const;

  /// The machine-wide overload level tenanted admission currently sees:
  /// the ladder applied to the healthy free fraction (online, unquarantined
  /// capacity only), raised to any operator override.
  [[nodiscard]] tenant::OverloadLevel overload_level() const;

  /// Free fraction of healthy capacity — the ladder's input, exposed for
  /// telemetry and the stress harness.
  [[nodiscard]] double healthy_free_fraction() const;

  // --- snapshot/restore hooks (src/recover, docs/RECOVERY.md) ---

  /// Overwrites every statistics counter with the snapshotted values so a
  /// restored allocator's stats() continues from where the snapshot left
  /// off. Setup-time only (call before sharing across threads).
  void restore_stats(const AllocatorStats& stats);

  /// Re-attaches a tenant charge to an already-placed buffer during restore:
  /// charges `bytes` against the tenant's quota on the buffer's CURRENT
  /// node's tier and records the charge-map entry, exactly as the original
  /// admission did. Fails (and charges nothing) on a freed/unknown buffer or
  /// a quota refusal — the restorer treats that as a corrupt snapshot.
  support::Status adopt_tenant_charge(sim::BufferId buffer,
                                      tenant::TenantHandle tenant,
                                      std::uint64_t bytes);

 private:
  /// Internal statistics: one atomic per counter so concurrent allocators
  /// never contend on a stats lock. stats() snapshots them into the plain
  /// AllocatorStats struct.
  struct StatCounters {
    std::atomic<std::uint64_t> allocations{0};
    std::atomic<std::uint64_t> fallbacks{0};
    std::atomic<std::uint64_t> failures{0};
    std::atomic<std::uint64_t> frees{0};
    std::atomic<std::uint64_t> migrations{0};
    std::atomic<std::uint64_t> bytes_allocated{0};
    std::atomic<std::uint64_t> bytes_migrated{0};
    std::atomic<std::uint64_t> transient_retries{0};
    std::atomic<std::uint64_t> attribute_rescues{0};
    std::atomic<std::uint64_t> backpressure_rejections{0};
    std::atomic<std::uint64_t> backpressure_health{0};
    std::atomic<std::uint64_t> backpressure_quota{0};
    std::atomic<std::uint64_t> backpressure_shed{0};
    std::atomic<std::uint64_t> tenant_spills{0};
    std::atomic<std::uint64_t> retry_backoff_ms{0};
  };

  /// Per-request tenant admission state threaded through the ranking walk.
  struct TenantGate {
    tenant::Tenant* tenant = nullptr;
    tenant::OverloadLevel level = tenant::OverloadLevel::kNormal;
    /// Skip nearly-full nodes on the first pass (LadderAction::kSpill).
    bool spill = false;
    /// The tenant's total cap refused the charge: no node can help.
    bool total_cap_hit = false;
    /// The tenant died (deregistered) mid-walk.
    bool dead = false;
    unsigned quota_skipped = 0;  // nodes refused by a tier cap
    unsigned spill_skipped = 0;  // nodes skipped by the spill pass
  };

  /// Charge bookkeeping for one live tenanted buffer (keyed by buffer index
  /// in tenant_charges_; indices are never reused, so a stale key cannot
  /// alias a new buffer).
  struct TenantCharge {
    tenant::TenantHandle tenant;
    topo::MemoryKind tier = topo::MemoryKind::kDRAM;
    std::uint64_t bytes = 0;
  };

  support::Result<Allocation> try_targets(
      const AllocRequest& request, const std::vector<attr::TargetValue>& ranking,
      attr::AttrId used_attribute, TenantGate* gate = nullptr);

  /// The ladder governing tenanted admission: the installed registry's, or
  /// a default-configured one when no registry is installed.
  [[nodiscard]] const tenant::DegradationLadder& ladder_in_use() const;

  /// True when every node is offline or carries a non-normal quarantine
  /// verdict — the admission-control fast-fail predicate (O(nodes) atomic
  /// reads, no ranking walk).
  [[nodiscard]] bool no_healthy_online_target(
      const health::QuarantineList& quarantine) const;

  /// Builds the kBackpressure error for a shed/quota refusal: structured
  /// retry_after_ms plus the machine-readable "retry-after-ms=" suffix,
  /// clamped to the request's deadline.
  [[nodiscard]] static support::Error backpressure_error(
      const AllocRequest& request, std::string message, std::uint64_t hint_ms);

  /// Records/erases/moves tenant charge-map entries (mutex-guarded; the
  /// count gate keeps untenanted hot paths lock-free).
  void record_tenant_charge(sim::BufferId buffer, tenant::TenantHandle tenant,
                            topo::MemoryKind tier, std::uint64_t bytes);
  void release_tenant_charge(sim::BufferId buffer);
  void move_tenant_charge(sim::BufferId buffer, unsigned destination_node);

  /// machine_->allocate with bounded kTransient retry (retry_policy()).
  support::Result<sim::BufferId> allocate_with_retry(const AllocRequest& request,
                                                     unsigned node);

  [[nodiscard]] std::uint64_t usable_bytes(unsigned node) const;

  /// Appends `build()`'s event to the trace (mutex-guarded) when tracing is
  /// enabled. With tracing off nothing is built: no label copy, no detail
  /// string, no registry lookup — the one place that decides.
  template <typename Build>
  void record_trace(Build&& build) {
    if (!trace_enabled_.load(std::memory_order_relaxed)) return;
    TraceEvent event = build();
    std::lock_guard<std::mutex> lock(trace_mutex_);
    trace_.push_back(std::move(event));
  }

  /// CAS-consumes `bytes` from the node's reservation; false when the
  /// reservation does not hold that much.
  bool consume_reservation(unsigned node, std::uint64_t bytes);

  sim::SimMachine* machine_;
  const attr::MemAttrRegistry* registry_;
  MigrationCostModel migration_model_;
  std::atomic<unsigned> max_transient_retries_{2};
  std::atomic<std::uint64_t> retry_floor_ms_{0};
  support::BackoffOptions retry_backoff_options_;
  std::vector<SizeRule> size_rules_;
  std::size_t node_count_ = 0;
  std::unique_ptr<std::atomic<std::uint64_t>[]> reserved_;
  StatCounters stats_;
  std::atomic<bool> trace_enabled_{true};
  mutable std::mutex trace_mutex_;
  std::vector<TraceEvent> trace_;

  // --- tenancy state ---
  const tenant::TenantRegistry* tenant_registry_ = nullptr;
  std::vector<topo::MemoryKind> node_kinds_;  // by logical index
  /// Live tenanted buffers only; erased on free, re-tiered on migrate. The
  /// atomic count lets untenanted mem_free/migrate skip the lock entirely.
  mutable std::mutex tenant_mutex_;
  std::unordered_map<std::uint32_t, TenantCharge> tenant_charges_;
  std::atomic<std::size_t> tenant_charge_count_{0};
};

}  // namespace hetmem::alloc
