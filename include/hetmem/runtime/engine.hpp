// Budgeted migration engine — turns online verdicts into migrate() calls.
//
// Level-triggered: every epoch it looks at ALL tracked buffers whose
// committed sensitivity disagrees with their current placement (not only the
// epoch's fresh reclassifications), so a move deferred by the budget or a
// transient fault is retried the next epoch. Each considered move passes
// three gates before the allocator is touched:
//   1. benefit  — the advisor's TrafficCostModel must price the buffer's EMA
//                 traffic cheaper on the destination than where it is;
//   2. breakeven — one-time migration cost must amortize within
//                 expected_future_epochs of that per-epoch benefit;
//   3. budget   — accepted bytes per epoch (including evictions) stay under
//                 epoch_budget_bytes, the paper's §VII "migration should
//                 likely be avoided" knob.
// When the destination is full, the engine may first *evict* committed-
// insensitive tracked buffers from it to the best capacity target (coldest
// first); eviction bytes count against the same budget and their cost
// against the same break-even gate.
//
// The engine owns the MigrationBroker (runtime/broker.hpp) that charges
// every move against the per-epoch pool and the tenant slices; the health
// Evacuator and the power Governor reach it through broker(). A promotion
// and its evictions share one reservation, and bytes that did not move are
// refunded when it settles.
//
// Every considered move is logged as a Decision with a verdict and a typed
// reason (runtime/reason.hpp), rendered to text only on demand and only
// once — an observability surface (render_decision_log() is byte-stable for
// a fixed seed, which the chaos tests assert), not just printf.
//
// Thread safety (docs/CONCURRENCY.md): externally synchronized — one epoch
// loop drives the engine (its decision log is an ordered narrative). The
// allocator/machine calls it makes are themselves thread-safe, so worker
// threads may allocate/free concurrently with the epoch loop.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "hetmem/alloc/advisor.hpp"
#include "hetmem/alloc/allocator.hpp"
#include "hetmem/runtime/broker.hpp"
#include "hetmem/runtime/classifier.hpp"
#include "hetmem/runtime/reason.hpp"

namespace hetmem::runtime {

struct EngineOptions {
  /// Max bytes migrated per epoch (promotions + evictions). UINT64_MAX =
  /// unlimited.
  std::uint64_t epoch_budget_bytes = UINT64_MAX;
  /// Break-even horizon: a move must amortize within this many epochs of its
  /// estimated per-epoch benefit.
  double expected_future_epochs = 10.0;
  /// Allow evicting committed-insensitive buffers to make room.
  bool allow_evictions = true;
};

enum class Verdict : std::uint8_t {
  kAccepted,            // migrated
  kEvicted,             // migrated away to make room for an accepted move
  kRejectedNoTarget,    // attribute ranking empty (no usable target)
  kRejectedCapacity,    // no ranked target has (or can be given) room
  kRejectedNoBenefit,   // destination would not be faster for this traffic
  kRejectedBreakeven,   // cost does not amortize within the horizon
  kRejectedBudget,      // deferred: epoch byte budget exhausted
  kRejectedTenantShare,  // deferred: owning tenant's arbiter slice exhausted
  kFailedMigrate,       // allocator/machine refused (fault, offline, raced)
};

[[nodiscard]] const char* verdict_name(Verdict verdict);

struct Decision {
  std::uint64_t epoch = 0;
  sim::BufferId buffer;
  std::string label;
  unsigned from_node = 0;
  unsigned to_node = 0;
  prof::Sensitivity sensitivity = prof::Sensitivity::kInsensitive;
  Verdict verdict = Verdict::kRejectedNoBenefit;
  double benefit_per_epoch_ns = 0.0;
  double cost_ns = 0.0;
  double breakeven_epochs = 0.0;
  std::uint64_t bytes = 0;
  DecisionReason reason;
};

struct EngineStats {
  std::uint64_t considered = 0;
  std::uint64_t accepted = 0;
  std::uint64_t evicted = 0;
  std::uint64_t rejected = 0;
  std::uint64_t failed = 0;
  std::uint64_t migrated_bytes = 0;     // accepted + evicted
  double migration_cost_ns = 0.0;       // total paid
};

class MigrationEngine {
 public:
  MigrationEngine(alloc::HeterogeneousAllocator& allocator,
                  support::Bitmap initiator, EngineOptions options = {});

  /// Runs one epoch of decisions against the classifier's committed state.
  /// `threads` is the workload's simulated thread count (the classifier's
  /// traffic is summed over threads; the cost model divides stalls back).
  /// Returns the migration cost paid this epoch (simulated ns) for the
  /// caller to charge into its clock.
  double run_epoch(std::uint64_t epoch_index, const OnlineClassifier& classifier,
                   unsigned threads);

  [[nodiscard]] const std::vector<Decision>& decisions() const {
    return decisions_;
  }
  [[nodiscard]] const EngineStats& stats() const { return stats_; }
  /// Largest accepted+evicted byte total of any single epoch — what the
  /// budget acceptance check reads.
  [[nodiscard]] std::uint64_t max_epoch_migrated_bytes() const {
    return max_epoch_bytes_;
  }
  [[nodiscard]] const EngineOptions& options() const { return options_; }

  /// The per-epoch pool of epoch_budget_bytes that every mover — this
  /// engine, the health Evacuator, the power Governor — charges its moves
  /// against.
  [[nodiscard]] MigrationBroker& broker() { return broker_; }

  /// Installs the arbiter that carves the pool into per-tenant slices
  /// (docs/TENANCY.md; setup-time, nullptr detaches). Must outlive the
  /// engine.
  void set_arbiter(tenant::GlobalArbiter* arbiter) {
    broker_.set_arbiter(arbiter);
  }

  /// Deterministic text rendering of the full decision history. Each
  /// decision is formatted once: the engine keeps the text rendered so far
  /// and a call appends only the decisions logged since the previous call,
  /// then returns a copy. That updates a cache, so call it from the thread
  /// that runs the epochs (docs/CONCURRENCY.md).
  [[nodiscard]] std::string render_decision_log() const;

  // --- snapshot/restore hooks (src/recover, docs/RECOVERY.md) ---

  /// Overlays the cumulative statistics and budget watermark. The broker's
  /// pool is not restored: it refills per epoch index, and a restored run
  /// resumes at the NEXT epoch, which refills it anyway.
  void restore_stats(const EngineStats& stats, std::uint64_t max_epoch_bytes) {
    stats_ = stats;
    max_epoch_bytes_ = max_epoch_bytes;
  }

  /// Prepends already-rendered decision-log text (the snapshotted run's
  /// narrative up to the crash). render_decision_log() emits it before the
  /// decisions this engine takes itself, so a restored run's full log is
  /// byte-identical to an uninterrupted run's — the determinism gate
  /// compares exactly that. The structured decisions() vector holds only
  /// post-restore decisions.
  void restore_log_prefix(std::string rendered) {
    rendered_ = std::move(rendered);
    rendered_count_ = 0;
  }

 private:
  struct Candidate {
    sim::BufferId buffer;
    unsigned to_node = 0;
    prof::Sensitivity sensitivity = prof::Sensitivity::kInsensitive;
    double benefit_per_epoch_ns = 0.0;
  };

  /// Appends the decision, final: `from_node` is where the buffer was
  /// before this decision moved it.
  void log(std::uint64_t epoch, sim::BufferId buffer, unsigned from_node,
           Verdict verdict, const Candidate* candidate, double cost_ns,
           DecisionReason reason);
  [[nodiscard]] double node_traffic_cost_ns(
      unsigned node, std::uint64_t declared_bytes,
      const sim::BufferTraffic& traffic, unsigned threads) const;

  alloc::HeterogeneousAllocator* allocator_;
  support::Bitmap initiator_;
  /// Per node (logical index): is the initiator local to it? Fixed for the
  /// engine's lifetime, like the topology and the initiator.
  std::vector<bool> local_;
  EngineOptions options_;
  MigrationBroker broker_;
  std::vector<Decision> decisions_;
  /// The log rendered so far: the restored pre-crash narrative
  /// (restore_log_prefix), then decisions_[0, rendered_count_).
  /// render_decision_log(), a const query, extends it.
  mutable std::string rendered_;
  mutable std::size_t rendered_count_ = 0;
  EngineStats stats_;
  std::uint64_t max_epoch_bytes_ = 0;
};

}  // namespace hetmem::runtime
