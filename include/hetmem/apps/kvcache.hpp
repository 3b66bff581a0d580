// KV-cache / hash-join probe kernel with a *moving* hot set.
//
// STREAM, Graph500 and SpMV all have stationary per-buffer behavior, so the
// online runtime (EpochSampler -> OnlineClassifier -> MigrationEngine) only
// ever sees steady state. This kernel is the adversarial complement: values
// live in `segments` independently placed buffers, key popularity follows a
// seeded Zipfian distribution, and every `shift_every_phases` phases the
// rank->key mapping rotates so the Zipf head lands on the *next* segment.
// The hot buffer therefore changes identity on a schedule — the phase-change
// scenario PAPERS.md "Online Application Guidance for Heterogeneous Memory
// Systems" calls out — and the runtime must evict the cooling segment and
// promote the heating one inside its hysteresis + budget envelope.
// bench/ablation_phases gates recovery against an oracle; the skew default
// (s = 1.5) puts ~99% of probes on the hot segment so cooled segments fall
// under the classifier's 1% insensitive floor and become evictable.
//
// Like the other runners, real probes run against a scaled-down backing
// store while traffic is recorded at declared scale (DESIGN.md §2), and all
// randomness is seeded per (phase, thread): a run's traffic, checksum and
// phase timings replay bit-identically, which the trace layer depends on.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "hetmem/alloc/allocator.hpp"
#include "hetmem/apps/graph500.hpp"  // BufferPlacement
#include "hetmem/simmem/array.hpp"
#include "hetmem/simmem/exec.hpp"
#include "hetmem/support/result.hpp"
#include "hetmem/support/zipf.hpp"

namespace hetmem::apps {

struct KvCacheConfig {
  /// Declared footprint of the value store, split evenly across segments.
  std::uint64_t declared_value_bytes = 4ull << 30;
  unsigned segments = 4;
  /// Declared footprints of the hash directory (sized to stay LLC-resident)
  /// and the streamed append log (spills the LLC, bandwidth-bound).
  std::uint64_t declared_directory_bytes = 16ull << 20;
  std::uint64_t declared_log_bytes = 512ull << 20;
  /// Real backing entries per segment (8-byte values).
  std::size_t backing_keys_per_segment = 1u << 14;
  unsigned threads = 4;
  /// Declared-scale probes per phase and real probes per thread per phase.
  double lookups_per_phase = 4e6;
  std::size_t backing_lookups_per_thread = 2048;
  /// Streamed log bytes appended per phase (declared scale).
  double log_bytes_per_phase = 16.0 * (1 << 20);
  unsigned phases = 32;
  /// Hot-set rotation cadence: hot segment = (phase / shift) % segments.
  unsigned shift_every_phases = 8;
  /// Zipf skew over all keys; see header comment for why the default is
  /// steep enough to cool rotated-away segments below the 1% share floor.
  double zipf_s = 1.5;
  std::uint64_t seed = 0x5eedcafe;
  double mlp = 6.0;
  /// Hash + probe compute per declared lookup.
  double compute_ns_per_lookup = 1.0;
};

struct KvCachePlacement {
  /// One placement rule applied to every buffer (directory, log, segments).
  BufferPlacement buffers;

  static KvCachePlacement all_on_node(unsigned node);
};

/// Results cover the phases executed by THIS call (run()/run_phases() may be
/// invoked repeatedly; the rotation schedule continues across calls).
struct KvCacheResult {
  /// Declared probes per simulated second over the executed phases.
  double lookups_per_second = 0.0;
  double seconds = 0.0;  // simulated
  double checksum = 0.0;
  /// Per executed phase: simulated duration and the hot segment index.
  std::vector<double> phase_ns;
  std::vector<unsigned> hot_segments;
};

class KvCacheRunner {
 public:
  static support::Result<std::unique_ptr<KvCacheRunner>> create(
      sim::SimMachine& machine, alloc::HeterogeneousAllocator* allocator,
      const support::Bitmap& initiator, const KvCacheConfig& config,
      const KvCachePlacement& placement);

  ~KvCacheRunner();
  KvCacheRunner(const KvCacheRunner&) = delete;
  KvCacheRunner& operator=(const KvCacheRunner&) = delete;

  /// Runs config.phases phases from the current cursor.
  support::Result<KvCacheResult> run();
  /// Runs `count` phases from the current cursor (bench windows interleave
  /// oracle migrations between calls).
  support::Result<KvCacheResult> run_phases(unsigned count);

  /// Hot segment for a global phase index under the rotation schedule.
  [[nodiscard]] unsigned hot_segment(unsigned phase) const {
    return (phase / config_.shift_every_phases) % config_.segments;
  }
  [[nodiscard]] unsigned phases_run() const { return phase_cursor_; }

  [[nodiscard]] sim::BufferId segment_buffer(unsigned segment) const {
    return segment_ids_[segment];
  }
  [[nodiscard]] sim::BufferId directory_buffer() const { return dir_id_; }
  [[nodiscard]] sim::BufferId log_buffer() const { return log_id_; }

  [[nodiscard]] const sim::ExecutionContext& exec() const { return *exec_; }
  [[nodiscard]] sim::ExecutionContext& exec() { return *exec_; }
  [[nodiscard]] const KvCacheConfig& config() const { return config_; }

  /// Re-reads buffer locations into the instrumented array views — pass as
  /// RuntimePolicy::attach's post-migration hook.
  void refresh_arrays();

 private:
  KvCacheRunner(sim::SimMachine& machine, KvCacheConfig config);

  /// Per-thread stride of hits_: one cache line of padding keeps
  /// neighbouring threads' counters off each other's lines.
  [[nodiscard]] std::size_t hits_stride() const {
    return config_.segments + 64 / sizeof(std::size_t);
  }

  sim::SimMachine* machine_;
  KvCacheConfig config_;
  std::vector<sim::BufferId> owned_;
  sim::BufferId dir_id_{}, log_id_{};
  std::vector<sim::BufferId> segment_ids_;
  std::unique_ptr<sim::ExecutionContext> exec_;
  std::unique_ptr<sim::Array<std::uint64_t>> directory_;
  std::unique_ptr<sim::Array<double>> log_;
  std::vector<std::unique_ptr<sim::Array<double>>> segments_;
  support::ZipfDistribution zipf_{1, 0.0};  // rebuilt over all keys in create
  /// Kernel scratch reused by every phase: each thread's probe sum and its
  /// per-segment hit counts (a hits_stride() slice per thread).
  std::vector<double> partial_;
  std::vector<std::size_t> hits_;
  unsigned phase_cursor_ = 0;
};

}  // namespace hetmem::apps
