// Per-thread memory-traffic accounting.
//
// Workloads run real algorithms on real (scaled) data; every buffer access
// goes through sim::Array, which records the *post-LLC* traffic the access
// generates into the worker's ThreadCtx. Counters are plain doubles because
// the analytic cache model produces fractional expected misses — this keeps
// the simulation deterministic (no per-access coin flips).
//
// Thread safety (docs/CONCURRENCY.md): a ThreadCtx is thread-*owned*, not
// shared — the execution context hands each worker its own instance and
// merges them after the phase, so the counters need (and have) no
// synchronization.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "hetmem/simmem/machine.hpp"

namespace hetmem::sim {

/// Post-cache traffic one thread directed at one NUMA node during one phase.
struct NodeTraffic {
  double seq_read_bytes = 0.0;    // streamed, prefetchable -> bandwidth cost
  double seq_write_bytes = 0.0;
  double rand_read_accesses = 0.0;   // dependent loads -> latency cost
  double rand_write_accesses = 0.0;
  double rand_read_bytes = 0.0;      // cache-line traffic of the above
  double rand_write_bytes = 0.0;

  [[nodiscard]] double total_read_bytes() const {
    return seq_read_bytes + rand_read_bytes;
  }
  [[nodiscard]] double total_write_bytes() const {
    return seq_write_bytes + rand_write_bytes;
  }
  [[nodiscard]] bool any() const {
    return seq_read_bytes > 0 || seq_write_bytes > 0 || rand_read_accesses > 0 ||
           rand_write_accesses > 0;
  }
};

/// Per-buffer totals, kept for the profiler (prof::) — indexed by
/// BufferId::index, each entry for the newest generation recorded there.
struct BufferTraffic {
  double reads = 0.0;           // program-level accesses (pre-cache)
  double writes = 0.0;
  double llc_misses = 0.0;      // expected misses (fractional)
  double memory_bytes = 0.0;    // post-cache bytes moved
  double random_accesses = 0.0; // dependent-indexed subset of reads+writes
  double random_misses = 0.0;   // their expected LLC misses
};

/// BufferTraffic's counters in wire order, for support::RecordWriter and
/// support::FieldReader (trace samples, snapshot classifier EMAs).
template <typename Io, typename Traffic>
bool traffic_fields(Io& io, Traffic& t) {
  return io(t.reads, t.writes, t.llc_misses, t.memory_bytes,
            t.random_accesses, t.random_misses);
}

class ThreadCtx {
 public:
  explicit ThreadCtx(std::size_t node_count);

  /// Memory-level parallelism for dependent-ish access streams: how many
  /// outstanding misses overlap. BFS-style codes sustain ~4-8.
  void set_mlp(double mlp) { mlp_ = mlp; }
  [[nodiscard]] double mlp() const { return mlp_; }

  /// Where this worker's CPUs are (its binding). Empty (the default) means
  /// "use the execution context's initiator" — set per thread only for
  /// multi-socket runs where ranks live in different localities and local
  /// vs remote must be decided per worker.
  void set_locality(support::Bitmap locality) { locality_ = std::move(locality); }
  [[nodiscard]] const support::Bitmap& locality() const { return locality_; }

  // --- recording (called by sim::Array) ---
  void record_seq_read(unsigned node, BufferId buffer, double program_bytes,
                       double memory_fraction);
  void record_seq_write(unsigned node, BufferId buffer, double program_bytes,
                        double memory_fraction);
  /// `accesses` program-level accesses, each missing the LLC with
  /// probability `miss_rate` (expected-value accounting).
  void record_rand_read(unsigned node, BufferId buffer, double accesses,
                        double miss_rate);
  void record_rand_write(unsigned node, BufferId buffer, double accesses,
                         double miss_rate);
  /// Pure CPU cost (ns of compute between memory operations).
  void add_compute_ns(double ns) { compute_ns_ += ns; }

  /// Marks a buffer as part of this phase's working set on its node.
  void touch(BufferId buffer) { (void)entry(buffer); }

  // --- phase bookkeeping ---
  void reset_phase();
  [[nodiscard]] const std::vector<NodeTraffic>& node_traffic() const {
    return node_traffic_;
  }
  [[nodiscard]] double compute_ns() const { return compute_ns_; }
  /// Buffers touched this phase (BufferId indices, unordered, unique).
  [[nodiscard]] const std::vector<std::uint32_t>& touched_buffers() const {
    return touched_;
  }

  /// Cumulative per-buffer counters (across phases; reset_phase keeps them).
  [[nodiscard]] const std::vector<BufferTraffic>& buffer_traffic() const {
    return buffer_traffic_;
  }
  /// Per slot, the generation of the buffer buffer_traffic()'s entry counts:
  /// a recycled slot's first record resets the entry to zero, so a new
  /// buffer never inherits a dead one's counters.
  [[nodiscard]] const std::vector<std::uint32_t>& buffer_generations() const {
    return generations_;
  }
  /// The buffer buffer_traffic()[index] counts (index < its size).
  [[nodiscard]] BufferId buffer_id(std::uint32_t index) const {
    return BufferId{index, generations_[index]};
  }

 private:
  /// `buffer`'s counters, marked touched. A stale handle (older than the
  /// generation its slot already counts) gets a scratch entry nothing reads.
  BufferTraffic& entry(BufferId buffer);

  std::vector<NodeTraffic> node_traffic_;
  std::vector<BufferTraffic> buffer_traffic_;
  std::vector<std::uint32_t> generations_;
  BufferTraffic stale_;
  std::vector<std::uint32_t> touched_;
  std::vector<std::uint8_t> touched_mark_;
  support::Bitmap locality_;
  double compute_ns_ = 0.0;
  double mlp_ = 6.0;
  static constexpr double kLineBytes = 64.0;
};

}  // namespace hetmem::sim
