// perfbench — shared pieces of the end-to-end + per-layer benchmark:
// host clock, the span recorder, per-pass results, the full-stack testbed,
// and the three workload entry points.
//
// Every timing is taken by this benchmark's own code around calls into the
// library's public API; nothing inside the library is instrumented. A span
// records one layer's slice of host time (name, layer, start, end, parent
// span, step id) and the report derives each layer's self time from them.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "hetmem/alloc/allocator.hpp"
#include "hetmem/fault/fault.hpp"
#include "hetmem/memattr/memattr.hpp"
#include "hetmem/simmem/machine.hpp"
#include "hetmem/support/rng.hpp"
#include "hetmem/tenant/tenant.hpp"

namespace perfbench {

using namespace hetmem;

[[nodiscard]] inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Independent stream seed derived from the benchmark seed: every consumer
/// (graph generator, root picker, KV stream, request stream, each fault
/// injector) gets its own, so one --seed reaches all of them.
[[nodiscard]] inline std::uint64_t derive_seed(std::uint64_t seed,
                                               std::uint64_t stream) {
  support::SplitMix64 mix(seed ^ (stream * 0x9e3779b97f4a7c15ull));
  return mix.next();
}

/// FNV-1a 64 over bytes — fingerprints for the cross-pass determinism check.
[[nodiscard]] inline std::uint64_t fnv1a(const void* data, std::size_t size,
                                         std::uint64_t hash = 0xcbf29ce484222325ull) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < size; ++i) {
    hash ^= bytes[i];
    hash *= 0x100000001b3ull;
  }
  return hash;
}

// ---------------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------------

/// The library modules the workloads run through, plus `bench` for this
/// benchmark's own glue (step bookkeeping, timer reads).
enum class Layer : std::uint8_t {
  kBench,
  kProbe,
  kHmat,
  kApps,
  kSimmem,
  kRuntime,
  kHealth,
  kPower,
  kRecover,
  kAlloc,
  kMemattr,
  kTenant,
  kCount,
};

[[nodiscard]] const char* layer_name(Layer layer);

struct Span {
  const char* name = "";
  Layer layer = Layer::kBench;
  std::int32_t parent = -1;  // index into the span list; -1 for a root
  std::int64_t step = -1;    // timed step the span belongs to; -1 outside
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

/// In-memory span recorder. Spans nest through an open-span stack; the
/// phase-observer boundaries use swap() to end one layer's slice and start
/// the next at the same instant. Written out once, after the traced pass.
class Tracer {
 public:
  void set_step(std::int64_t step) { step_ = step; }

  void open(const char* name, Layer layer) {
    Span span;
    span.name = name;
    span.layer = layer;
    span.parent = stack_.empty() ? -1 : stack_.back();
    span.step = step_;
    span.start_ns = now_ns();
    stack_.push_back(static_cast<std::int32_t>(spans_.size()));
    spans_.push_back(span);
  }
  void close() {
    spans_[static_cast<std::size_t>(stack_.back())].end_ns = now_ns();
    stack_.pop_back();
  }
  /// close() + open() sharing one timestamp.
  void swap(const char* name, Layer layer) {
    const std::int64_t t = now_ns();
    Span& current = spans_[static_cast<std::size_t>(stack_.back())];
    current.end_ns = t;
    Span next;
    next.name = name;
    next.layer = layer;
    next.parent = current.parent;
    next.step = step_;
    next.start_ns = t;
    stack_.back() = static_cast<std::int32_t>(spans_.size());
    spans_.push_back(next);
  }
  /// Re-labels the innermost open span (a slice whose owner is only known
  /// once it ends, e.g. the tail of a step after its last phase).
  void relabel(const char* name, Layer layer) {
    Span& current = spans_[static_cast<std::size_t>(stack_.back())];
    current.name = name;
    current.layer = layer;
  }
  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

 private:
  std::vector<Span> spans_;
  std::vector<std::int32_t> stack_;
  std::int64_t step_ = -1;
};

/// RAII span over a direct call; a no-op without a tracer.
class Scope {
 public:
  Scope(Tracer* tracer, const char* name, Layer layer) : tracer_(tracer) {
    if (tracer_ != nullptr) tracer_->open(name, layer);
  }
  ~Scope() {
    if (tracer_ != nullptr) tracer_->close();
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer* tracer_;
};

/// Wall-clock seconds of `fn()`, also recorded as a span when traced.
template <typename Fn>
double timed(Tracer* tracer, const char* name, Layer layer, Fn&& fn) {
  const std::int64_t start = now_ns();
  {
    Scope scope(tracer, name, layer);
    fn();
  }
  return static_cast<double>(now_ns() - start) / 1e9;
}

// ---------------------------------------------------------------------------
// Pass results
// ---------------------------------------------------------------------------

/// One pass = one fresh stack, set up, then the workload's fixed steps.
struct PassResult {
  std::string error;  // non-empty: an output check failed
  double setup_s = 0.0;
  double run_s = 0.0;  // wall time of the timed loop, checks excluded
  std::vector<double> step_ns;
  std::uint64_t steps_failed = 0;
  double sim_ops_per_s = 0.0;
  double ok_frac = 0.0;
  /// Deterministic per-layer counts (same for every pass of one seed).
  std::map<std::string, double> counts;
  /// Host timings of single layers taken outside the timed loop (set-up
  /// calls, the post-run restore); reported from the traced pass.
  std::map<std::string, double> timings;
  /// The rendered logs whose bytes must not depend on tracing.
  std::map<std::string, std::string> logs;
  /// Units of work the simmem layer's phase time is divided by.
  double simmem_ops = 0.0;
};

/// Fingerprint of everything in a pass that must repeat exactly for a seed.
[[nodiscard]] std::string determinism_fingerprint(const PassResult& pass);

// ---------------------------------------------------------------------------
// The full-stack testbed
// ---------------------------------------------------------------------------

/// xeon_clx_1lm with firmware HMAT (local entries), probe-measured values
/// (remote pairs included) and the power attributes, behind an allocator
/// that serves a tenant registry. Owns the fault injector the machine
/// consults (installed once setup is done, so discovery never sees faults).
struct Testbed {
  std::unique_ptr<sim::SimMachine> machine;
  std::unique_ptr<attr::MemAttrRegistry> registry;
  std::unique_ptr<alloc::HeterogeneousAllocator> allocator;
  std::unique_ptr<tenant::TenantRegistry> tenants;
  std::unique_ptr<fault::FaultInjector> faults;

  /// Socket `package`'s cpuset (node 0 is socket 0's DRAM, node 1 socket 1's).
  [[nodiscard]] support::Bitmap initiator(unsigned package) const;
};

/// Builds the testbed; fills `timings` with probe.discover_s and
/// hmat.load_s. Returns an error message, or empty on success.
std::string make_testbed(Testbed& bed, std::uint64_t fault_seed,
                         Tracer* tracer, std::map<std::string, double>& timings);

/// alloc.* and memattr.* counts over the timed loop: allocator statistics
/// as deltas against `before` (taken when the loop started, which is also
/// when the ranking-cache counters were reset).
void collect_alloc(const Testbed& bed, const alloc::AllocatorStats& before,
                   PassResult& pass);

/// Median / linear-interpolated quantile of an unsorted sample (copied).
[[nodiscard]] double quantile(std::vector<double> values, double q);

/// Quantile of a large sample of integer-nanosecond step times, averaged
/// over the samples within half a percent of ranks either side of q: the
/// plain order statistic sits on a whole nanosecond and barely moves.
/// Falls back to quantile() below 200 samples.
[[nodiscard]] double window_quantile(std::vector<double> values, double q);

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

struct Workload {
  const char* name;
  /// One pass on a fresh stack. `tracer` is null for untraced passes.
  PassResult (*run_pass)(std::uint64_t seed, Tracer* tracer);
  /// Run-level checks made once after the passes (inputs differ for another
  /// seed, reference results). Returns an error message or empty.
  std::string (*check_run)(std::uint64_t seed, const PassResult& first);
};

PassResult graph500_pass(std::uint64_t seed, Tracer* tracer);
std::string graph500_check(std::uint64_t seed, const PassResult& first);
PassResult kv_rotation_pass(std::uint64_t seed, Tracer* tracer);
std::string kv_rotation_check(std::uint64_t seed, const PassResult& first);
PassResult tenant_churn_pass(std::uint64_t seed, Tracer* tracer);
std::string tenant_churn_check(std::uint64_t seed, const PassResult& first);

}  // namespace perfbench
