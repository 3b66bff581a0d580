// Instrumented typed view over a SimBuffer.
//
// The accessor is the seam between the real computation and the simulation:
// loads/stores touch the real backing storage AND record the post-LLC
// traffic the access would generate at *declared* scale. The analytic cache
// model (miss rates below) is evaluated against the buffer's declared size
// vs. the machine's LLC, so a scaled-down backing run produces paper-scale
// memory behavior (DESIGN.md §2).
//
// Access idioms:
//  - load/store_seq: streamed, prefetchable (bandwidth-bound cost);
//  - load/store_rand: data-dependent indexing (latency-bound cost);
//  - record_bulk_*: tight kernels (STREAM) compute over span() directly and
//    report their traffic once per chunk instead of per element.
#pragma once

#include <cassert>
#include <cstddef>
#include <span>

#include "hetmem/simmem/machine.hpp"
#include "hetmem/simmem/traffic.hpp"

namespace hetmem::sim {

/// Analytic LLC model shared by every Array instance.
struct CacheModel {
  /// Expected miss probability of a uniformly random access into a working
  /// set of `ws` bytes with `llc` bytes of cache: misses start once the set
  /// spills, approaching 1 for ws >> llc. A 2% floor models cold/coherence
  /// misses.
  static double random_miss_rate(std::uint64_t ws, std::uint64_t llc) {
    if (ws == 0) return 0.02;
    if (ws <= llc) return 0.02;
    const double resident = static_cast<double>(llc) / static_cast<double>(ws);
    return std::max(0.02, 1.0 - resident);
  }
  /// Fraction of sequentially streamed bytes that reach memory: ~1 when the
  /// buffer spills the LLC (each line fetched once per pass), small when the
  /// whole buffer stays resident across passes.
  static double stream_memory_fraction(std::uint64_t ws, std::uint64_t llc) {
    if (ws <= llc) return 0.05;
    return 1.0;
  }
};

template <typename T>
class Array {
 public:
  /// Views `buffer`'s backing as elements of T. The element count is the
  /// backing capacity; `declared_elements` (default: scaled by the same
  /// ratio) is what the cache model sees.
  Array(SimMachine& machine, BufferId buffer)
      : machine_(&machine), buffer_(buffer) {
    const BufferInfo& info = machine.info(buffer);
    count_ = info.backing_bytes / sizeof(T);
    data_ = reinterpret_cast<T*>(machine.backing(buffer));
    refresh_model();
  }

  [[nodiscard]] std::size_t size() const { return count_; }
  [[nodiscard]] BufferId buffer() const { return buffer_; }
  [[nodiscard]] std::span<T> span() { return {data_, count_}; }
  [[nodiscard]] std::span<const T> span() const { return {data_, count_}; }

  /// Re-reads the buffer's node and declared size (call after migration).
  void refresh_model() {
    const BufferResidency residency = machine_->residency(buffer_);
    node_ = residency.node;
    const std::uint64_t llc = machine_->llc_bytes();
    rand_miss_rate_ =
        CacheModel::random_miss_rate(residency.declared_bytes, llc);
    stream_fraction_ =
        CacheModel::stream_memory_fraction(residency.declared_bytes, llc);
  }

  // --- element access with traffic recording ---
  T load_seq(ThreadCtx& ctx, std::size_t i) const {
    assert(i < count_);
    ctx.record_seq_read(node_, buffer_, sizeof(T), stream_fraction_);
    return data_[i];
  }
  void store_seq(ThreadCtx& ctx, std::size_t i, T value) {
    assert(i < count_);
    ctx.record_seq_write(node_, buffer_, sizeof(T), stream_fraction_);
    data_[i] = value;
  }
  T load_rand(ThreadCtx& ctx, std::size_t i) const {
    assert(i < count_);
    ctx.record_rand_read(node_, buffer_, 1.0, rand_miss_rate_);
    return data_[i];
  }
  void store_rand(ThreadCtx& ctx, std::size_t i, T value) {
    assert(i < count_);
    ctx.record_rand_write(node_, buffer_, 1.0, rand_miss_rate_);
    data_[i] = value;
  }

  // --- bulk recording for tight kernels operating on span() directly ---
  /// `program_bytes` at declared scale (callers scale backing bytes up by
  /// declared/backing before reporting, or report per logical pass).
  void record_bulk_read(ThreadCtx& ctx, double program_bytes) const {
    ctx.record_seq_read(node_, buffer_, program_bytes, stream_fraction_);
  }
  void record_bulk_write(ThreadCtx& ctx, double program_bytes) const {
    ctx.record_seq_write(node_, buffer_, program_bytes, stream_fraction_);
  }
  void record_bulk_random_reads(ThreadCtx& ctx, double accesses) const {
    ctx.record_rand_read(node_, buffer_, accesses, rand_miss_rate_);
  }
  void record_bulk_random_writes(ThreadCtx& ctx, double accesses) const {
    ctx.record_rand_write(node_, buffer_, accesses, rand_miss_rate_);
  }

  [[nodiscard]] double random_miss_rate() const { return rand_miss_rate_; }
  [[nodiscard]] double stream_fraction() const { return stream_fraction_; }
  [[nodiscard]] unsigned node() const { return node_; }

 private:
  SimMachine* machine_;
  BufferId buffer_;
  T* data_ = nullptr;
  std::size_t count_ = 0;
  unsigned node_ = 0;
  double rand_miss_rate_ = 0.0;
  double stream_fraction_ = 1.0;
};

}  // namespace hetmem::sim
