// Simulated heterogeneous-memory machine: NUMA-node capacity arenas plus
// real backing storage for workload data.
//
// Buffers carry two sizes:
//  - declared_bytes: what the allocation "costs" against the node's capacity
//    and what the performance model sees as working set (so a 34 GB graph
//    exercises the NVDIMM cliff without needing 34 GB of host RAM);
//  - backing_bytes: real host memory the workload computes on (a scaled-down
//    instance; see DESIGN.md §2).
//
// Thread safety (docs/CONCURRENCY.md): the arena is sharded per NUMA node
// with atomic capacity reservation — allocate() claims declared bytes with a
// CAS loop on the node's used-bytes counter, so concurrent allocators on
// different nodes never touch shared state and concurrent allocators on the
// same node contend only on one cache line. The buffer table is a chunked
// slot store: slots live at stable addresses for the machine's lifetime
// (readers are lock-free; a short mutex guards only chunk creation), and
// each slot carries its own lifecycle mutex so free()/migrate() races are
// serialized per buffer. info() returns a snapshot by value.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "hetmem/simmem/perf_model.hpp"
#include "hetmem/support/result.hpp"
#include "hetmem/topo/topology.hpp"

namespace hetmem::fault {
class FaultInjector;
}

namespace hetmem::sim {

/// Dense handle; indices are never reused within a SimMachine lifetime.
struct BufferId {
  std::uint32_t index = UINT32_MAX;
  [[nodiscard]] bool valid() const { return index != UINT32_MAX; }
  friend bool operator==(BufferId a, BufferId b) { return a.index == b.index; }
};

struct BufferInfo {
  std::string label;
  unsigned node = 0;  // NUMA node logical index currently holding the buffer
  std::uint64_t declared_bytes = 0;
  std::size_t backing_bytes = 0;
  bool freed = false;
};

/// Where a buffer lives and what it costs there: BufferInfo without the
/// label, so reading it copies no string.
struct BufferResidency {
  unsigned node = 0;
  std::uint64_t declared_bytes = 0;
  bool freed = true;
};

/// Per-node error/health telemetry snapshot (docs/RESILIENCE.md "Health &
/// evacuation"). Counters are cumulative since machine construction; the
/// HealthMonitor differences consecutive snapshots to see per-poll deltas.
/// Capacity rejections are kept separate from fault evidence on purpose: a
/// full node is healthy, a faulting node is not.
struct NodeTelemetry {
  std::uint64_t capacity_rejections = 0;  // allocate/migrate refused: full
  std::uint64_t offline_rejections = 0;   // allocate/migrate refused: offline
  std::uint64_t transient_faults = 0;     // injected transient alloc/migrate failures
  std::uint64_t ecc_errors = 0;           // corrected ECC events (sample_node_faults)
  std::uint64_t degraded_events = 0;      // entries into the degraded regime
  std::uint64_t thermal_throttle_events = 0;  // power-throttle hits (docs/POWER.md)
  bool degraded = false;                  // sticky until cleared by an operator
  bool online = true;
};

class SimMachine {
 public:
  SimMachine(topo::Topology topology, MachinePerfModel model);

  /// Convenience: calibrated model for the given topology.
  explicit SimMachine(topo::Topology topology);

  ~SimMachine();

  SimMachine(const SimMachine&) = delete;
  SimMachine& operator=(const SimMachine&) = delete;

 private:
  explicit SimMachine(std::pair<topo::Topology, MachinePerfModel> parts);

 public:

  [[nodiscard]] const topo::Topology& topology() const { return topology_; }
  [[nodiscard]] const MachinePerfModel& perf_model() const { return model_; }

  /// Allocates `declared_bytes` on `node` (logical index), with
  /// `backing_bytes` of real zero-initialized storage (0 => min(declared,
  /// 64 KiB) so metadata-only buffers stay cheap). Fails with kOutOfCapacity
  /// when the node cannot hold the declared size — the allocator's fallback
  /// path depends on this exact error code. Safe to call from any thread;
  /// capacity is reserved atomically (CAS), never oversubscribed.
  support::Result<BufferId> allocate(std::uint64_t declared_bytes,
                                     unsigned node,
                                     std::string label,
                                     std::size_t backing_bytes = 0);

  /// Thread-safe; a double free (including one racing another free of the
  /// same buffer) fails for every caller but the first.
  support::Status free(BufferId id);

  /// Moves a buffer to another node: capacity is released/charged and the
  /// backing memcpy cost is the caller's to model (alloc::migration does).
  /// Serialized against free()/migrate() of the same buffer by a per-buffer
  /// lock; a migrate racing a free of the same buffer either completes
  /// before the free or fails with kInvalidArgument, never half-moves.
  support::Status migrate(BufferId id, unsigned destination_node);

  /// Metadata snapshot (by value — the buffer may be concurrently migrated
  /// or freed; the snapshot is internally consistent). An invalid or
  /// out-of-range id returns a sentinel (label "<invalid-buffer>",
  /// freed=true) instead of crashing — use info_checked() when the caller
  /// wants the error.
  [[nodiscard]] BufferInfo info(BufferId id) const;
  [[nodiscard]] support::Result<BufferInfo> info_checked(BufferId id) const;
  /// info()'s node, declared size and freed flag, allocation-free (the
  /// per-phase resolver reads it for every touched buffer). An invalid id
  /// reads as freed.
  [[nodiscard]] BufferResidency residency(BufferId id) const;

  /// Backing storage; nullptr for invalid ids and freed buffers (survives
  /// release builds — callers must handle it, sim::Array does). The pointer
  /// stays valid until the buffer is freed; freeing a buffer while another
  /// thread dereferences its backing is an application-level race, exactly
  /// as with the system allocator.
  [[nodiscard]] std::byte* backing(BufferId id);
  [[nodiscard]] const std::byte* backing(BufferId id) const;

  /// Capacity queries return 0 for out-of-range nodes (graceful in release
  /// builds; an unknown node simply has no memory).
  [[nodiscard]] std::uint64_t capacity_bytes(unsigned node) const;
  [[nodiscard]] std::uint64_t used_bytes(unsigned node) const;
  /// Unreserved room; 0 for out-of-range or offline nodes.
  [[nodiscard]] std::uint64_t available_bytes(unsigned node) const;

  // --- resilience hooks (docs/RESILIENCE.md) ---

  /// Takes a node out of (or back into) service: offline nodes reject new
  /// allocations and incoming migrations with kOutOfCapacity so allocator
  /// fallback treats them like full targets; existing buffers stay valid.
  support::Status set_node_online(unsigned node, bool online);
  [[nodiscard]] bool node_online(unsigned node) const;

  /// Marks a node as (not) degraded — the sticky reduced-performance regime
  /// a failing DIMM or throttling media enters. Degradation does not reject
  /// allocations; it is health *evidence* the monitor reads via
  /// node_telemetry(). Operators (and tests) clear it with degraded=false.
  support::Status set_node_degraded(unsigned node, bool degraded);
  [[nodiscard]] bool node_degraded(unsigned node) const;

  /// Cumulative error/health counters for a node; a default-constructed
  /// snapshot for out-of-range nodes. Thread-safe (relaxed atomics — each
  /// counter is exact, the snapshot is not transactional across counters).
  [[nodiscard]] NodeTelemetry node_telemetry(unsigned node) const;

  /// One health-sampling poll of `node`: consults the fault injector's
  /// passive-detection sites and folds what fires into the node's telemetry —
  ///  - fault::site::kMachineEccBurst  -> ecc_errors += 1,
  ///  - fault::site::kMachineNodeDegraded -> sticky degraded regime,
  ///  - fault::site::kMachineNodeOffline  -> the node goes offline (sticky),
  ///  - fault::site::kMachinePowerThrottle -> thermal_throttle_events += 1,
  /// so a node can fail *between* allocations, not only while serving one.
  /// No-op without an injector. Deterministic: consultation order is fixed,
  /// and the polled node is the attribution target.
  void sample_node_faults(unsigned node);

  // --- power telemetry (docs/POWER.md) ---

  /// Folds one phase's observed traffic on `node` into the node's power
  /// telemetry: instantaneous dynamic watts = (read_bytes * read_nj/B +
  /// write_bytes * write_nj/B) / interval_ns (nJ/ns == W), smoothed with an
  /// EMA (alpha 0.5) so one idle phase doesn't zero the estimate. Called by
  /// ExecutionContext::run_phase; not a hot path (mutex-guarded).
  void record_node_traffic(unsigned node, std::uint64_t read_bytes,
                           std::uint64_t write_bytes, double interval_ns);

  /// Batched form of record_node_traffic: folds one interval's traffic for
  /// nodes [0, count) under a single power_mutex_ acquisition instead of
  /// one lock round-trip per node. Per-node math is identical (same EMA
  /// update in the same node order), so the resulting draw telemetry is
  /// bit-identical to `count` individual calls.
  void record_node_traffic_batch(const std::uint64_t* read_bytes,
                                 const std::uint64_t* write_bytes,
                                 std::size_t count, double interval_ns);

  /// Current estimated draw for `node`: static watts (W/GiB x installed
  /// capacity) + the EMA of dynamic watts. 0.0 for out-of-range nodes.
  [[nodiscard]] double power_draw_watts(unsigned node) const;

  /// Machine-wide watt budget consulted by power::PowerGovernor. 0 means
  /// uncapped (the governor idles). Thread-safe (relaxed atomic).
  void set_power_cap_watts(double watts) {
    power_cap_watts_.store(watts, std::memory_order_relaxed);
  }
  [[nodiscard]] double power_cap_watts() const {
    return power_cap_watts_.load(std::memory_order_relaxed);
  }

  /// Records one thermal-throttle hit against `node` (the governor's
  /// sustained over-cap escalation). The HealthMonitor reads it back through
  /// node_telemetry() as fault evidence, so throttled nodes take the same
  /// quarantine-sink path as faulting ones.
  void report_thermal_throttle(unsigned node);

  /// Snapshot of the live (not freed) buffers currently resident on `node`,
  /// ascending buffer index. Racy by nature when allocators run concurrently
  /// — the evacuation loop treats it as a work list and revalidates each
  /// buffer at migrate() time.
  [[nodiscard]] std::vector<BufferId> live_buffers_on(unsigned node) const;
  /// The same snapshot into `out` (cleared first), reusing its capacity: a
  /// caller that keeps `out` across calls allocates nothing once warm.
  void live_buffers_on(unsigned node, std::vector<BufferId>& out) const;

  /// Optional chaos hook consulted on every allocate():
  ///  - fault::site::kMachineAllocTransient -> kTransient failure,
  ///  - fault::site::kMachineNodeOffline -> the target node goes offline
  ///    (sticky) and the allocation fails.
  /// Null disables injection. Install before concurrent use; the injector
  /// itself is internally synchronized.
  void set_fault_injector(fault::FaultInjector* injector) { faults_ = injector; }

  // --- snapshot/restore hooks (src/recover, docs/RECOVERY.md) ---

  /// Overwrites a node's cumulative telemetry counters and regime flags with
  /// an exported snapshot. Restore-time only (before the machine is shared
  /// across threads): the health monitor differences telemetry against its
  /// own restored last-poll values, so the two must be set from the same
  /// snapshot or every delta since machine construction replays as new
  /// evidence.
  void restore_node_telemetry(unsigned node, const NodeTelemetry& telemetry);

  /// Per-node dynamic-draw EMA state, for snapshot/restore. The governor's
  /// decisions read power_draw_watts(), so a byte-identical continuation
  /// needs the EMA (and its seeded flag) back exactly.
  struct NodePowerState {
    double dynamic_watts_ema = 0.0;
    bool seeded = false;
  };
  [[nodiscard]] NodePowerState node_power_state(unsigned node) const;
  void restore_node_power_state(unsigned node, const NodePowerState& state);

  /// True when the constructor received a perf model whose node count did
  /// not match the topology and self-healed by recalibrating.
  [[nodiscard]] bool model_repaired() const { return model_repaired_; }

  /// Number of live (not freed) buffers.
  [[nodiscard]] std::size_t live_buffer_count() const {
    return live_count_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::size_t total_buffer_count() const {
    return next_slot_.load(std::memory_order_acquire);
  }

  /// Shared per-socket last-level cache the analytic miss model divides
  /// among resident buffers. Defaults to 27.5 MiB (CLX die) and is
  /// overridden per platform by the apps/bench setups.
  [[nodiscard]] std::uint64_t llc_bytes() const {
    return llc_bytes_.load(std::memory_order_relaxed);
  }
  void set_llc_bytes(std::uint64_t bytes) {
    llc_bytes_.store(bytes, std::memory_order_relaxed);
  }

 private:
  // Chunked slot store: 1024 slots per chunk, chunk pointers published with
  // release stores into a fixed table so readers never see a moving array.
  static constexpr std::size_t kSlotChunkShift = 10;
  static constexpr std::size_t kSlotsPerChunk = std::size_t{1} << kSlotChunkShift;
  static constexpr std::size_t kMaxChunks = std::size_t{1} << 15;  // 32M buffers

  enum class SlotState : std::uint8_t { kUnpublished = 0, kLive = 1, kFreed = 2 };

  struct Slot {
    // Serializes free vs migrate of this buffer (never held during another
    // slot's operation — no lock ordering issues).
    std::mutex lifecycle;
    std::string label;                 // immutable after publication
    std::uint64_t declared_bytes = 0;  // immutable after publication
    std::size_t backing_bytes = 0;     // immutable after publication
    std::atomic<unsigned> node{0};
    std::atomic<SlotState> state{SlotState::kUnpublished};
    std::atomic<std::byte*> data{nullptr};
    std::unique_ptr<std::byte[]> storage;  // owner of data; reset under lifecycle
  };

  /// Published slot for `id`, or nullptr (invalid id, unpublished slot).
  [[nodiscard]] Slot* find_slot(BufferId id) const;
  /// Claims a fresh slot index and returns its (chunk-resident) slot.
  Slot* claim_slot(std::uint32_t& index_out);
  /// CAS-reserves `bytes` against `node`'s capacity; false when full.
  bool reserve_capacity(unsigned node, std::uint64_t bytes);

  /// Per-node telemetry counters (see NodeTelemetry for the snapshot form).
  struct NodeCounters {
    std::atomic<std::uint64_t> capacity_rejections{0};
    std::atomic<std::uint64_t> offline_rejections{0};
    std::atomic<std::uint64_t> transient_faults{0};
    std::atomic<std::uint64_t> ecc_errors{0};
    std::atomic<std::uint64_t> degraded_events{0};
    std::atomic<std::uint64_t> thermal_throttle_events{0};
    std::atomic<std::uint8_t> degraded{0};
  };

  /// EMA of per-node dynamic watts (record_node_traffic). Guarded by
  /// power_mutex_ — updated once per phase, read by the governor once per
  /// epoch; never on the allocate/free hot path.
  struct NodePower {
    double dynamic_watts_ema = 0.0;
    bool seeded = false;  // first sample seeds the EMA instead of blending
  };

  topo::Topology topology_;
  MachinePerfModel model_;
  std::unique_ptr<std::atomic<Slot*>[]> chunks_;
  std::mutex chunk_growth_mutex_;
  std::atomic<std::uint32_t> next_slot_{0};
  std::atomic<std::size_t> live_count_{0};
  std::unique_ptr<std::atomic<std::uint64_t>[]> used_;
  std::unique_ptr<std::atomic<std::uint8_t>[]> online_;
  std::unique_ptr<NodeCounters[]> telemetry_;
  std::size_t node_count_ = 0;
  mutable std::mutex power_mutex_;
  std::vector<NodePower> node_power_;
  std::atomic<double> power_cap_watts_{0.0};
  std::atomic<std::uint64_t> llc_bytes_;
  fault::FaultInjector* faults_ = nullptr;
  bool model_repaired_ = false;
};

}  // namespace hetmem::sim
