// Memory performance attributes — the paper's primary contribution (§III-IV),
// modeled on the hwloc 2.3 memattrs API (hwloc/memattrs.h).
//
// Memory *targets* (NUMA nodes) are characterized by *attributes*. An
// attribute value may depend on which *initiator* (set of CPUs) performs the
// accesses: local DRAM is faster than the same DRAM seen from the other
// package. Applications select targets by comparing attribute values or by
// asking directly for the best local target for a criterion — never by
// hardwiring memory technologies (the whole point of the paper).
//
// Canonical units: Capacity in bytes, Bandwidth in bytes/s, Latency in ns,
// Locality in number of PUs. Custom attributes choose their own unit.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <shared_mutex>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "hetmem/health/quarantine.hpp"
#include "hetmem/memattr/compose.hpp"
#include "hetmem/support/bitmap.hpp"
#include "hetmem/support/result.hpp"
#include "hetmem/topo/topology.hpp"

namespace hetmem::attr {

/// Whether larger or smaller values rank a target higher for this criterion.
/// (Eq. 2 in the paper: for Latency, the *weaker* value has priority.)
enum class Polarity : std::uint8_t { kHigherFirst, kLowerFirst };

using AttrId = std::uint32_t;

/// Built-in attributes, registered by every registry in this exact order so
/// their ids are stable (mirrors HWLOC_MEMATTR_ID_*).
inline constexpr AttrId kCapacity = 0;        // bytes, higher first
inline constexpr AttrId kLocality = 1;        // #PUs of the node locality, lower first
inline constexpr AttrId kBandwidth = 2;       // bytes/s, higher, per-initiator
inline constexpr AttrId kLatency = 3;         // ns, lower, per-initiator
inline constexpr AttrId kReadBandwidth = 4;   // bytes/s, higher, per-initiator
inline constexpr AttrId kWriteBandwidth = 5;  // bytes/s, higher, per-initiator
inline constexpr AttrId kReadLatency = 6;     // ns, lower, per-initiator
inline constexpr AttrId kWriteLatency = 7;    // ns, lower, per-initiator
// Power attributes (docs/POWER.md): energy attributes are global per target
// (a device property, not an initiator-path one) and lower-first — less
// energy per byte moved, fewer static watts.
inline constexpr AttrId kEnergyPerByte = 8;   // nJ/byte moved, lower
inline constexpr AttrId kStaticPower = 9;     // W per node, lower
inline constexpr AttrId kFirstCustomAttr = 10;

struct AttrInfo {
  std::string name;
  Polarity polarity = Polarity::kHigherFirst;
  /// When true, values are stored per (target, initiator); when false a
  /// single value per target (Capacity, Locality).
  bool need_initiator = true;
};

/// An initiator is a set of CPUs performing the accesses — either an explicit
/// cpuset or the cpuset of a topology object (paper Fig. 4 caption).
class Initiator {
 public:
  static Initiator from_cpuset(support::Bitmap cpuset) {
    return Initiator(std::move(cpuset));
  }
  static Initiator from_object(const topo::Object& object) {
    return Initiator(object.cpuset());
  }

  [[nodiscard]] const support::Bitmap& cpuset() const { return cpuset_; }

 private:
  explicit Initiator(support::Bitmap cpuset) : cpuset_(std::move(cpuset)) {}
  support::Bitmap cpuset_;
};

/// How much a stored value should be believed (docs/RESILIENCE.md).
/// Capacity/Locality from the topology are always kTrusted; measured or
/// firmware-loaded values can be demoted when the producer detects noise
/// (probe repeat disagreement) or staleness (values loaded from a previous
/// run). Rankings prefer trusted values and fall back to coarser attributes
/// when an attribute has none left.
enum class Confidence : std::uint8_t { kTrusted, kNoisy, kStale };

[[nodiscard]] constexpr const char* confidence_name(Confidence confidence) {
  switch (confidence) {
    case Confidence::kTrusted: return "trusted";
    case Confidence::kNoisy: return "noisy";
    case Confidence::kStale: return "stale";
  }
  return "?";
}

struct TargetValue {
  const topo::Object* target = nullptr;
  double value = 0.0;
};

/// One value for MemAttrRegistry::set_values; the fields are set_value's
/// arguments.
struct ValueUpdate {
  AttrId attr = 0;
  const topo::Object* target = nullptr;
  std::optional<Initiator> initiator;
  double value = 0.0;
};

struct InitiatorValue {
  support::Bitmap initiator;
  double value = 0.0;
  Confidence confidence = Confidence::kTrusted;
};

/// What a cached ranking memoizes. kPlain/kResilient mirror targets_ranked /
/// targets_ranked_resilient for one attribute; kAllocPath additionally folds
/// resolve_with_fallback into the snapshot (the allocator's first step) and
/// kRescuePath folds resolve_resilient (its degradation step), so one cache
/// hit answers the whole "which attribute, ranked how" question without ever
/// touching the registry lock.
enum class RankingMode : std::uint8_t {
  kPlain,
  kResilient,
  kAllocPath,
  kRescuePath,
};

/// One memoized ranking: immutable once published, shared by every reader
/// that hits. `generation` stamps the registry state the snapshot was built
/// from; a snapshot whose stamp no longer matches generation() is rebuilt on
/// the next lookup and never served again.
struct CachedRanking {
  std::vector<TargetValue> targets;
  /// The attribute actually ranked: equals the requested attribute for
  /// kPlain/kResilient, the post-fallback-chain attribute for kAllocPath,
  /// and the post-degradation attribute for kRescuePath.
  AttrId resolved = 0;
  /// kAllocPath only: whether resolve_with_fallback succeeded. When false,
  /// `targets` is empty and `resolved` echoes the requested attribute.
  bool resolved_ok = true;
  // --- cache key (validated on lookup; hash collisions just overwrite) ---
  AttrId requested = 0;
  RankingMode mode = RankingMode::kResilient;
  topo::LocalityFlags flags = topo::LocalityFlags::kIntersecting;
  support::Bitmap initiator;
  std::uint64_t generation = 0;
};

using RankingSnapshot = std::shared_ptr<const CachedRanking>;

/// Hit/miss counters of the ranking cache (relaxed atomics; exact after a
/// quiescent point, monotone while running).
struct RankingCacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  [[nodiscard]] double hit_rate() const {
    const double total = static_cast<double>(hits + misses);
    return total > 0.0 ? static_cast<double>(hits) / total : 0.0;
  }
};

/// Thread safety: the registry is read-mostly and internally synchronized
/// with a shared_mutex — get_value / targets_ranked / best_target and the
/// other queries take a shared (reader) lock and scale across threads, while
/// set_value / register_attribute / set_confidence / mark_all (probe and
/// HMAT writers) are exclusive. A ranking returned while a writer runs is
/// never torn: it reflects the registry strictly before or strictly after
/// each individual write (multi-value updates such as a whole HMAT load are
/// per-value atomic, not transactional; set_values is the transactional
/// form).
class MemAttrRegistry {
 public:
  /// Binds to a topology and registers the built-in attributes. Capacity and
  /// Locality are populated immediately from the topology ("always supported
  /// natively", Table I); performance attributes start empty and are fed by
  /// the HMAT loader (hmat::) and/or benchmarking (probe::).
  explicit MemAttrRegistry(const topo::Topology& topology);

  [[nodiscard]] const topo::Topology& topology() const { return *topology_; }

  /// Registers a custom attribute (Table I last row). Names are unique.
  support::Result<AttrId> register_attribute(std::string_view name,
                                             Polarity polarity,
                                             bool need_initiator);

  [[nodiscard]] support::Result<AttrId> find_attribute(std::string_view name) const;
  [[nodiscard]] const AttrInfo& info(AttrId attr) const;
  [[nodiscard]] std::size_t attribute_count() const { return attributes_.size(); }

  /// Stores a value. For need_initiator attributes the initiator is
  /// mandatory; a later set_value with the same (target, initiator cpuset)
  /// overwrites. For global attributes pass nullopt.
  support::Status set_value(AttrId attr, const topo::Object& target,
                            const std::optional<Initiator>& initiator, double value);

  /// Stores several values as one update: validates every one first (an
  /// invalid update stores nothing), then applies them all under one
  /// exclusive lock with one generation bump. No reader, cached or not, sees
  /// some of them without the others.
  support::Status set_values(std::span<const ValueUpdate> updates);

  /// Reads a value (hwloc_memattr_get_value). For per-initiator attributes
  /// the lookup matches, in order: an exact stored cpuset, else the smallest
  /// stored cpuset containing the query, else the stored cpuset with the
  /// largest intersection. kNotFound when nothing matches.
  [[nodiscard]] support::Result<double> value(
      AttrId attr, const topo::Object& target,
      const std::optional<Initiator>& initiator) const;

  /// Best local target for an initiator (hwloc_memattr_get_best_target).
  /// Considers targets local to the initiator under `flags`; ties keep the
  /// lower logical index. kNotFound when no local target has a value.
  [[nodiscard]] support::Result<TargetValue> best_target(
      AttrId attr, const Initiator& initiator,
      topo::LocalityFlags flags = topo::LocalityFlags::kIntersecting) const;

  /// All local targets that have a value, best first (the allocator's
  /// fallback order, §IV-B). Targets without a value are omitted.
  [[nodiscard]] std::vector<TargetValue> targets_ranked(
      AttrId attr, const Initiator& initiator,
      topo::LocalityFlags flags = topo::LocalityFlags::kIntersecting) const;

  /// Best initiator for a target (hwloc_memattr_get_best_initiator); only
  /// meaningful for per-initiator attributes.
  [[nodiscard]] support::Result<InitiatorValue> best_initiator(
      AttrId attr, const topo::Object& target) const;

  /// All initiators that have a stored value for (attr, target).
  [[nodiscard]] std::vector<InitiatorValue> initiators(
      AttrId attr, const topo::Object& target) const;

  /// True when at least one target has a value for this attribute.
  [[nodiscard]] bool has_values(AttrId attr) const;

  // --- value confidence (resilience to noisy / stale measurements) ---

  /// Flags an existing value. kNotFound when no value is stored for the
  /// exact (target, initiator cpuset) pair.
  support::Status set_confidence(AttrId attr, const topo::Object& target,
                                 const std::optional<Initiator>& initiator,
                                 Confidence confidence);
  /// Confidence of the stored value matched the same way value() matches.
  [[nodiscard]] support::Result<Confidence> confidence(
      AttrId attr, const topo::Object& target,
      const std::optional<Initiator>& initiator) const;
  /// Demotes every stored value of `attr` (e.g. after reloading persisted
  /// values measured on a previous boot).
  void mark_all(AttrId attr, Confidence confidence);
  /// True when at least one stored value of `attr` is kTrusted.
  [[nodiscard]] bool has_trusted_values(AttrId attr) const;

  /// Resilient ranking: trusted values first (by polarity), then
  /// untrusted-valued targets as a last resort (also by polarity). Equal to
  /// targets_ranked when everything is trusted — the common case.
  [[nodiscard]] std::vector<TargetValue> targets_ranked_resilient(
      AttrId attr, const Initiator& initiator,
      topo::LocalityFlags flags = topo::LocalityFlags::kIntersecting) const;

  // --- ranking composition (compose.hpp) ---
  //
  // targets_ranked / targets_ranked_resilient are RankingComposition::
  // standard() applied to rank_candidates(); external rankers with their own
  // objectives (the power governor's bandwidth-per-watt, future access
  // classes) pull the same candidates and compose them differently instead
  // of the registry growing another special-case bucket.

  /// The raw composition input for (attr, initiator, flags): every local
  /// target with a value, in topology order, carrying value, confidence and
  /// the current quarantine verdict. Excluded targets are included (verdict
  /// kExclude) — dropping them is the composition's job.
  [[nodiscard]] std::vector<RankCandidate> rank_candidates(
      AttrId attr, const Initiator& initiator,
      topo::LocalityFlags flags = topo::LocalityFlags::kIntersecting) const;

  // --- generation-invalidated ranking cache (docs/PERF.md) ---
  //
  // Rankings change only on rare events (attribute registration, value
  // writes, probe demotion, node offlining), so the hot allocation path
  // memoizes them: a cache hit returns a shared immutable snapshot with NO
  // shared_mutex acquisition and no heap allocation. Every mutating
  // operation bumps generation(); a stale snapshot is rebuilt (under the
  // shared lock, once) on the next lookup for its key and never served
  // after the mutation that invalidated it became visible to the reader.

  /// Monotonic mutation counter. Bumped by register_attribute, set_value,
  /// set_values (once per batch), set_confidence, mark_all, load_values and
  /// invalidate_rankings; never by queries. Strictly increases under
  /// concurrency (each successful mutation observes a unique increment).
  [[nodiscard]] std::uint64_t generation() const {
    return generation_.load(std::memory_order_acquire);
  }

  /// Forces every cached ranking stale without changing stored values — for
  /// external events that alter ranking *feasibility* rather than registry
  /// state (e.g. SimMachine taking a NUMA node offline).
  void invalidate_rankings();

  // --- health quarantine (docs/RESILIENCE.md "Health & evacuation") ---
  //
  // When a quarantine list is installed, every ranking composition consults
  // it: kExclude targets are dropped, kDeprioritize targets sink below all
  // normally-ranked targets (keeping polarity order within each group), and
  // best_target never returns an excluded node. Verdict *changes* do not
  // bump the generation by themselves — the writer (HealthMonitor) must call
  // invalidate_rankings() after each transition, which is what keeps the
  // verdict store + generation bump ordered (see quarantine.hpp).

  /// Installs (or clears, with nullptr) the quarantine list. Bumps the
  /// generation so existing cached rankings rebuild against it. The list
  /// must outlive the registry (or be cleared first).
  void set_quarantine_list(const health::QuarantineList* list);
  [[nodiscard]] const health::QuarantineList* quarantine_list() const {
    return quarantine_.load(std::memory_order_acquire);
  }

  /// Cached equivalents of targets_ranked / targets_ranked_resilient: the
  /// snapshot's `targets` is bit-identical to what the uncached call would
  /// return at the snapshot's generation. The primary overloads take the
  /// initiator's cpuset directly so a hit never copies a Bitmap (zero heap
  /// allocation); the Initiator overloads are conveniences that forward.
  [[nodiscard]] RankingSnapshot targets_ranked_cached(
      AttrId attr, const support::Bitmap& initiator_cpuset,
      topo::LocalityFlags flags = topo::LocalityFlags::kIntersecting) const;
  [[nodiscard]] RankingSnapshot targets_ranked_cached(
      AttrId attr, const Initiator& initiator,
      topo::LocalityFlags flags = topo::LocalityFlags::kIntersecting) const {
    return targets_ranked_cached(attr, initiator.cpuset(), flags);
  }
  [[nodiscard]] RankingSnapshot targets_ranked_resilient_cached(
      AttrId attr, const support::Bitmap& initiator_cpuset,
      topo::LocalityFlags flags = topo::LocalityFlags::kIntersecting) const;
  [[nodiscard]] RankingSnapshot targets_ranked_resilient_cached(
      AttrId attr, const Initiator& initiator,
      topo::LocalityFlags flags = topo::LocalityFlags::kIntersecting) const {
    return targets_ranked_resilient_cached(attr, initiator.cpuset(), flags);
  }

  /// The allocator's first step as one cached lookup: resolve_with_fallback
  /// composed with targets_ranked_resilient of the resolved attribute.
  /// resolved_ok=false (empty targets) when neither the attribute nor its
  /// chain has values — re-run resolve_with_fallback uncached for the error.
  [[nodiscard]] RankingSnapshot alloc_ranking_cached(
      AttrId attr, const support::Bitmap& initiator_cpuset,
      topo::LocalityFlags flags = topo::LocalityFlags::kIntersecting) const;

  /// The allocator's degradation step as one cached lookup:
  /// resolve_resilient composed with targets_ranked_resilient of the
  /// degraded attribute (ultimately kCapacity). Invalid ids yield an empty
  /// kCapacity snapshot.
  [[nodiscard]] RankingSnapshot rescue_ranking_cached(
      AttrId attr, const support::Bitmap& initiator_cpuset,
      topo::LocalityFlags flags = topo::LocalityFlags::kIntersecting) const;

  /// Cache observability and the uncached baseline switch (benchmarks
  /// disable the cache to measure what it buys; allocation *decisions* are
  /// identical either way).
  [[nodiscard]] RankingCacheStats ranking_cache_stats() const;
  void reset_ranking_cache_stats();
  void set_ranking_cache_enabled(bool enabled) {
    cache_enabled_.store(enabled, std::memory_order_relaxed);
  }
  [[nodiscard]] bool ranking_cache_enabled() const {
    return cache_enabled_.load(std::memory_order_relaxed);
  }

  /// resolve_with_fallback, then a final coarser-attribute fallback: when
  /// neither `attr` nor its chain has any *trusted* value left, degrade to
  /// kCapacity (always populated natively from the topology) instead of
  /// ranking on values known to be noise. Fails only on invalid ids.
  [[nodiscard]] support::Result<AttrId> resolve_resilient(AttrId attr) const;

  /// Attribute fallback chain (§IV-B: "Bandwidth instead of Read Bandwidth"):
  /// returns `attr` itself when it has values, else the first fallback that
  /// does. Built-in chains: ReadBandwidth/WriteBandwidth -> Bandwidth,
  /// ReadLatency/WriteLatency -> Latency; everything else has no fallback.
  [[nodiscard]] support::Result<AttrId> resolve_with_fallback(AttrId attr) const;

 private:
  struct Stored {
    // Indexed by NUMA node logical index.
    std::vector<std::optional<double>> global_values;
    std::vector<Confidence> global_confidence;
    std::vector<std::vector<InitiatorValue>> per_initiator;
  };

  // The *_locked helpers assume the caller holds mutex_ (shared suffices for
  // the const ones); they exist so public methods composing several queries
  // take the lock exactly once (shared_mutex is not recursive).
  [[nodiscard]] bool valid_attr(AttrId attr) const { return attr < attributes_.size(); }
  /// set_value's argument checks, and its store without the generation bump.
  [[nodiscard]] support::Status check_value_locked(
      AttrId attr, const topo::Object* target,
      const std::optional<Initiator>& initiator) const;
  void store_value_locked(AttrId attr, const topo::Object& target,
                          const std::optional<Initiator>& initiator,
                          double value);
  [[nodiscard]] const InitiatorValue* match_initiator(
      const std::vector<InitiatorValue>& stored, const support::Bitmap& query) const;
  [[nodiscard]] support::Result<double> value_locked(
      AttrId attr, const topo::Object& target,
      const std::optional<Initiator>& initiator) const;
  [[nodiscard]] std::vector<RankCandidate> rank_candidates_locked(
      AttrId attr, const Initiator& initiator, topo::LocalityFlags flags) const;
  [[nodiscard]] std::vector<TargetValue> targets_ranked_locked(
      AttrId attr, const Initiator& initiator, topo::LocalityFlags flags) const;
  [[nodiscard]] std::vector<TargetValue> targets_ranked_resilient_locked(
      AttrId attr, const Initiator& initiator, topo::LocalityFlags flags) const;
  [[nodiscard]] bool has_values_locked(AttrId attr) const;
  [[nodiscard]] bool has_trusted_values_locked(AttrId attr) const;
  [[nodiscard]] support::Result<AttrId> resolve_with_fallback_locked(
      AttrId attr) const;
  [[nodiscard]] AttrId resolve_resilient_locked(AttrId attr) const;

  /// Shared lookup/rebuild for the four cache modes. Hit: one atomic
  /// snapshot load validated against the key and generation(). Miss: rebuild
  /// under a shared lock (the generation stamp read under that lock is
  /// consistent — writers bump while exclusive), publish with a CAS that
  /// never replaces a newer-generation snapshot with an older one.
  [[nodiscard]] RankingSnapshot ranked_cached(
      RankingMode mode, AttrId attr, const support::Bitmap& initiator_cpuset,
      topo::LocalityFlags flags) const;
  /// Fills targets/resolved/resolved_ok for the key, caller holds mutex_.
  void build_ranking_locked(CachedRanking& out) const;
  void bump_generation_locked() {
    generation_.fetch_add(1, std::memory_order_release);
  }

  const topo::Topology* topology_;
  // deque: stable AttrInfo addresses across register_attribute, so info()
  // can hand out references that outlive the lock (entries are immutable
  // once registered).
  std::deque<AttrInfo> attributes_;
  std::vector<Stored> values_;
  mutable std::shared_mutex mutex_;

  // --- ranking cache state ---
  // Direct-mapped, power-of-two slots. The working set of distinct
  // (mode, attr, initiator, flags) keys in a process is tiny (a handful of
  // attributes x a handful of initiator localities); collisions simply
  // overwrite, which costs a rebuild, never correctness.
  static constexpr std::size_t kRankingCacheSlots = 128;
  mutable std::array<std::atomic<RankingSnapshot>, kRankingCacheSlots>
      ranking_cache_;
  std::atomic<std::uint64_t> generation_{0};
  std::atomic<const health::QuarantineList*> quarantine_{nullptr};
  std::atomic<bool> cache_enabled_{true};
  mutable std::atomic<std::uint64_t> cache_hits_{0};
  mutable std::atomic<std::uint64_t> cache_misses_{0};
};

/// Fig. 5-style report ("lstopo --memattrs"): every attribute with its per-
/// node values; bandwidths printed in MiB/s and latencies in ns to match the
/// paper's output format.
std::string memattrs_report(const MemAttrRegistry& registry);

/// Persistence: benchmark-measured values are expensive to (re)collect, so
/// hwloc lets tools export attribute values and reload them on the next run
/// (its XML export). Text format, one value per line:
///
///   # hetmem-memattrs v1
///   attr name=StreamTriad polarity=higher initiator=1   (custom attrs only)
///   value attr=Latency target=0 initiator=0-39 v=285.0
///   value attr=Capacity target=0 v=206158430208
///
/// serialize_values() dumps every stored value (built-in and custom);
/// load_values() re-registers custom attributes as needed and stores the
/// values into a registry bound to a matching topology (targets are matched
/// by OS index; unknown targets are an error).
std::string serialize_values(const MemAttrRegistry& registry);
support::Status load_values(MemAttrRegistry& registry, std::string_view text);

}  // namespace hetmem::attr
