// MigrationBroker — the one place a migration's bytes are charged.
//
// The MigrationEngine, the health Evacuator and the power Governor move
// buffers through one per-epoch byte pool (EngineOptions::epoch_budget_bytes,
// the paper's §VII "migration should likely be avoided" knob), split into
// tenant slices when a tenant::GlobalArbiter is installed. Each move is
// reserve → move → settle:
//   reserve — all or nothing: the shared pool first, then the payer's
//             tenant slice. A refusal names the gate and charges nothing;
//   move    — Reservation::move migrates one buffer, whose bytes stay
//             charged only if it moved;
//   settle  — returns the reserved bytes that did not move to the pool and,
//             through GlobalArbiter::refund, to the slice. A Reservation
//             settles when it goes out of scope.
// A promotion and its evictions share one reservation, so the evictions are
// charged to the promoted buffer's tenant. The pool refills on the first
// call for a new epoch index.
//
// Thread safety (docs/CONCURRENCY.md): externally synchronized — one epoch
// loop drives every mover. The allocator calls it makes are thread-safe.
#pragma once

#include <cstdint>

#include "hetmem/alloc/allocator.hpp"
#include "hetmem/tenant/arbiter.hpp"

namespace hetmem::runtime {

/// Which gate refused a reservation.
enum class Refusal : std::uint8_t {
  kNone,         // granted
  kBudget,       // the shared epoch pool cannot cover the bytes
  kTenantShare,  // the payer's tenant slice cannot cover the bytes
};

class MigrationBroker {
 public:
  /// Bytes reserved for one move; settles when destroyed. Neither copied
  /// nor moved: reserve() returns it by guaranteed copy elision.
  class Reservation {
   public:
    Reservation(const Reservation&) = delete;
    Reservation& operator=(const Reservation&) = delete;
    ~Reservation() { settle(); }

    [[nodiscard]] Refusal refusal() const { return refusal_; }

    /// Migrates `buffer` to `to_node` and, on success, keeps its declared
    /// bytes charged. Fails without migrating when the reservation was
    /// refused or settled, or cannot cover the buffer's bytes.
    support::Result<double> move(sim::BufferId buffer, unsigned to_node);

    /// Refunds the reserved bytes that did not move. Idempotent.
    void settle();

   private:
    friend class MigrationBroker;
    Reservation(MigrationBroker* broker, Refusal refusal,
                std::uint64_t epoch_index, tenant::TenantId payer,
                std::uint64_t bytes)
        : broker_(broker),
          refusal_(refusal),
          epoch_(epoch_index),
          payer_(payer),
          reserved_(bytes) {}

    MigrationBroker* broker_;  // null once refused or settled
    Refusal refusal_;
    std::uint64_t epoch_;
    tenant::TenantId payer_;
    std::uint64_t reserved_;
    std::uint64_t moved_ = 0;
  };

  /// `epoch_budget_bytes` refills the pool each epoch; UINT64_MAX means
  /// unlimited.
  MigrationBroker(alloc::HeterogeneousAllocator& allocator,
                  std::uint64_t epoch_budget_bytes);

  /// Installs the arbiter (setup-time; nullptr detaches). Untenanted
  /// buffers are granted by it unconditionally.
  void set_arbiter(tenant::GlobalArbiter* arbiter) { arbiter_ = arbiter; }

  /// Refills the pool and opens the arbiter's epoch when `epoch_index` is
  /// not the open epoch.
  void open(std::uint64_t epoch_index);

  /// Pool bytes not yet reserved in `epoch_index`.
  [[nodiscard]] std::uint64_t remaining(std::uint64_t epoch_index);

  /// Reserves `bytes` for moves paid by the tenant owning `payer`.
  [[nodiscard]] Reservation reserve(std::uint64_t epoch_index,
                                    sim::BufferId payer, std::uint64_t bytes);

 private:
  void refund(const Reservation& reservation, std::uint64_t bytes);

  alloc::HeterogeneousAllocator* allocator_;
  tenant::GlobalArbiter* arbiter_ = nullptr;
  std::uint64_t budget_;
  std::uint64_t epoch_ = UINT64_MAX;
  std::uint64_t left_ = 0;
};

}  // namespace hetmem::runtime
