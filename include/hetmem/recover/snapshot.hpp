// Versioned snapshot/restore of the full mutable runtime state
// (docs/RECOVERY.md — the crash-resilience tentpole).
//
// A snapshot captures everything a RuntimePolicy-driven service needs to
// continue BYTE-IDENTICALLY from the snapshot epoch onward: the sampler's
// RNG cursors and adaptive period log, the classifier's EMA tables and
// hysteresis streaks, the engine's cumulative stats and its rendered
// decision-log narrative, buffer placements and tenant charges, allocator
// statistics and reservations, machine telemetry and power-EMA state, the
// health monitor's per-node state machines and quarantine verdicts, the
// power governor's escalation streaks, every fault-injection site's RNG
// stream, and the supervisor's breaker/watchdog state.
//
// Text format `hetmem-snap/2`: line-oriented, tagged records written and
// read through support/line_codec.hpp, the codec src/trace also uses
// (hexfloat doubles, range-checked integers, bools and enums). Each
// record's fields are listed once, in a field-list function that
// serialize() calls with the writer and parse() with the reader. Variable
// strings (labels, names) ride LAST on their line so embedded spaces
// survive. The payload carries an FNV-1a checksum line and a final `end`
// sentinel; parse() verifies both, and restore() only ever runs against a
// fully parsed, checksum-clean Snapshot — a truncated or bit-flipped file
// is rejected with a line diagnostic and mutates NOTHING (the
// never-partial-restore contract). parse() also reads `hetmem-snap/1`
// text, which listed every slot ever allocated with a freed flag and had no
// generations: its live buffers read as generation 0 and its freed slots
// become the free list in ascending index order (docs/RECOVERY.md).
//
// save_atomic() writes to `<path>.tmp` then renames, so a crash mid-save
// leaves the previous snapshot intact (crash consistency).
//
// Two restore modes, selected by the target machine's buffer table:
//   - rebuild-from-empty: a machine with no live buffer takes the recorded
//     table whole (SimMachine::restore_buffer_table): each live buffer at
//     its exact slot and generation, the free list in its reuse order, so
//     every BufferId, and every id later allocations get, line up — the C
//     API lifecycle path;
//   - re-place: a machine already populated with identically-prepared
//     buffers (same ids, labels and free list) has each live buffer
//     migrated to its recorded node — the bench/daemon-crash path, where
//     the application outlives the policy.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "hetmem/alloc/allocator.hpp"
#include "hetmem/fault/fault.hpp"
#include "hetmem/health/health.hpp"
#include "hetmem/power/governor.hpp"
#include "hetmem/recover/supervisor.hpp"
#include "hetmem/runtime/policy.hpp"
#include "hetmem/simmem/machine.hpp"
#include "hetmem/support/result.hpp"
#include "hetmem/tenant/tenant.hpp"

namespace hetmem::recover {

/// Fully parsed snapshot — a plain value, safe to inspect before applying.
struct Snapshot {
  /// Topology preset the machine was built from ("-" when unknown) and
  /// whether attributes came from probe discovery (the C API's probed flag).
  std::string machine_preset = "-";
  bool probed = false;

  // --- machine ---
  std::uint64_t node_count = 0;
  double power_cap_watts = 0.0;
  std::vector<sim::NodeTelemetry> node_telemetry;  // per node
  std::vector<sim::SimMachine::NodePowerState> node_power;

  // --- buffers: the live ones, ascending index, and the free list ---
  struct BufferRecord {
    std::uint32_t index = 0;
    std::uint32_t generation = 0;
    unsigned node = 0;
    std::uint64_t declared_bytes = 0;
    std::uint64_t backing_bytes = 0;
    /// Owning tenant id (kNoTenant for untenanted). The charge equals
    /// declared_bytes — exactly what admission charged.
    std::uint32_t tenant_id = 0;
    std::string label;
    [[nodiscard]] sim::BufferId id() const { return {index, generation}; }
  };
  std::uint64_t buffers_total = 0;  // slot watermark (total_buffer_count())
  std::vector<BufferRecord> buffers;
  /// Freed slots in reuse order, each under its freed buffer's id; a slot
  /// below the watermark that is neither live nor free is retired.
  std::vector<sim::BufferId> free_slots;

  // --- tenants ---
  struct TenantRecord {
    std::uint32_t id = 0;
    tenant::Priority priority = tenant::Priority::kNormal;
    tenant::TenantQuota quota;
    tenant::TenantStats stats;
    bool live = true;
    std::string name;
  };
  std::vector<TenantRecord> tenants;
  /// The registry's id watermark (next id register_tenant would mint).
  /// Deregistered tenants leave no record, so the watermark is what keeps
  /// the never-reused-id contract across a restore.
  tenant::TenantId tenants_next_id = 1;

  // --- allocator ---
  alloc::AllocatorStats alloc_stats;
  std::vector<std::uint64_t> reserved_bytes;  // per node

  // --- runtime policy ---
  bool has_policy = false;
  runtime::EpochSampler::State sampler;
  std::vector<runtime::OnlineClassifier::BufferState> classifier_states;
  double classifier_ema_total_bytes = 0.0;
  runtime::EngineStats engine_stats;
  std::uint64_t engine_max_epoch_bytes = 0;
  /// The engine's FULL rendered decision log at snapshot time — restored as
  /// the log prefix so a restored run's render is byte-identical to an
  /// uninterrupted run's.
  std::string decision_log;

  // --- health monitor ---
  bool has_health = false;
  std::uint64_t health_poll_count = 0;
  std::vector<health::HealthMonitor::NodeState> health_nodes;

  // --- power governor ---
  bool has_governor = false;
  power::GovernorStats governor_stats;
  std::vector<unsigned> governor_streaks;

  // --- fault injector ---
  bool has_faults = false;
  std::uint64_t fault_seed = 0;
  std::vector<fault::FaultInjector::SiteState> fault_sites;

  // --- supervisor (breakers + watchdog) ---
  bool has_supervisor = false;
  CircuitBreaker::State migration_breaker;
  CircuitBreaker::State evacuation_breaker;
  Watchdog::State watchdog;
};

/// What capture() reads. Only `machine` and `allocator` are required; every
/// other pointer is optional and simply omits its section when null.
struct CaptureSources {
  const sim::SimMachine* machine = nullptr;
  const alloc::HeterogeneousAllocator* allocator = nullptr;
  const tenant::TenantRegistry* tenants = nullptr;
  const runtime::RuntimePolicy* policy = nullptr;
  const health::HealthMonitor* health = nullptr;
  const power::PowerGovernor* governor = nullptr;
  const fault::FaultInjector* faults = nullptr;
  const Supervisor* supervisor = nullptr;
  std::string machine_preset = "-";
  bool probed = false;
};

/// Snapshots the sources' full mutable state. Call from the epoch loop's
/// thread, between epochs (the same external synchronization the engine
/// itself requires) — never mid-epoch.
[[nodiscard]] Snapshot capture(const CaptureSources& sources);

/// Lossless text round-trip (see the format spec in docs/RECOVERY.md).
[[nodiscard]] std::string serialize(const Snapshot& snapshot);
[[nodiscard]] support::Result<Snapshot> parse(std::string_view text);

/// Atomic save: serialize to `<path>.tmp`, flush, rename over `path`.
support::Status save_atomic(const Snapshot& snapshot, const std::string& path);
/// Reads and parses `path`; any I/O or format problem is an error (the file
/// is never partially applied — restore() takes the parsed value).
[[nodiscard]] support::Result<Snapshot> load(const std::string& path);

/// What restore() writes into. Mirrors CaptureSources: required machine +
/// allocator, optional everything else (a snapshot section with no matching
/// target is skipped; a target with no matching section is left untouched).
struct RestoreTargets {
  sim::SimMachine* machine = nullptr;
  alloc::HeterogeneousAllocator* allocator = nullptr;
  tenant::TenantRegistry* tenants = nullptr;
  runtime::RuntimePolicy* policy = nullptr;
  health::HealthMonitor* health = nullptr;
  power::PowerGovernor* governor = nullptr;
  fault::FaultInjector* faults = nullptr;
  Supervisor* supervisor = nullptr;
};

/// Applies a parsed snapshot. Mode is chosen by the machine's buffer table:
/// empty -> rebuild-from-empty, populated -> re-place (see file header).
/// The targets must be constructed with the SAME options/topology as the
/// snapshotted run (the determinism contract, docs/RECOVERY.md); restore
/// verifies what it can (node counts, buffer labels, fault seed) and fails
/// without completing on any mismatch. NOT transactional across targets —
/// callers treat a failed restore as fatal and rebuild from scratch.
support::Status restore(const Snapshot& snapshot, const RestoreTargets& targets);

}  // namespace hetmem::recover
