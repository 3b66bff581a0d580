#include "hetmem/memattr/memattr.hpp"

#include <algorithm>
#include <cassert>
#include <charconv>
#include <mutex>
#include <shared_mutex>

#include "hetmem/support/str.hpp"
#include "hetmem/support/units.hpp"

namespace hetmem::attr {

using support::Bitmap;
using support::Errc;
using support::make_error;
using support::Result;
using support::Status;

MemAttrRegistry::MemAttrRegistry(const topo::Topology& topology)
    : topology_(&topology) {
  auto add_builtin = [&](std::string name, Polarity polarity, bool need_initiator) {
    attributes_.push_back(AttrInfo{std::move(name), polarity, need_initiator});
    values_.emplace_back();
    values_.back().global_values.resize(topology.numa_nodes().size());
    values_.back().global_confidence.resize(topology.numa_nodes().size(),
                                            Confidence::kTrusted);
    values_.back().per_initiator.resize(topology.numa_nodes().size());
  };
  add_builtin("Capacity", Polarity::kHigherFirst, /*need_initiator=*/false);
  add_builtin("Locality", Polarity::kLowerFirst, /*need_initiator=*/false);
  add_builtin("Bandwidth", Polarity::kHigherFirst, /*need_initiator=*/true);
  add_builtin("Latency", Polarity::kLowerFirst, /*need_initiator=*/true);
  add_builtin("ReadBandwidth", Polarity::kHigherFirst, /*need_initiator=*/true);
  add_builtin("WriteBandwidth", Polarity::kHigherFirst, /*need_initiator=*/true);
  add_builtin("ReadLatency", Polarity::kLowerFirst, /*need_initiator=*/true);
  add_builtin("WriteLatency", Polarity::kLowerFirst, /*need_initiator=*/true);
  // Power attributes start empty like the performance ones; they are fed by
  // power::feed_registry from the machine's power model (docs/POWER.md).
  add_builtin("EnergyPerByte", Polarity::kLowerFirst, /*need_initiator=*/false);
  add_builtin("StaticPower", Polarity::kLowerFirst, /*need_initiator=*/false);

  // Capacity and Locality are always discoverable from the OS (Table I).
  for (const topo::Object* node : topology.numa_nodes()) {
    const unsigned idx = node->logical_index();
    values_[kCapacity].global_values[idx] =
        static_cast<double>(node->capacity_bytes());
    values_[kLocality].global_values[idx] =
        static_cast<double>(node->cpuset().count());
  }
}

Result<AttrId> MemAttrRegistry::register_attribute(std::string_view name,
                                                   Polarity polarity,
                                                   bool need_initiator) {
  if (name.empty()) {
    return make_error(Errc::kInvalidArgument, "attribute name is empty");
  }
  std::unique_lock lock(mutex_);
  for (const AttrInfo& info : attributes_) {
    if (info.name == name) {
      return make_error(Errc::kAlreadyExists,
                        "attribute '" + std::string(name) + "' already registered");
    }
  }
  attributes_.push_back(AttrInfo{std::string(name), polarity, need_initiator});
  values_.emplace_back();
  values_.back().global_values.resize(topology_->numa_nodes().size());
  values_.back().global_confidence.resize(topology_->numa_nodes().size(),
                                          Confidence::kTrusted);
  values_.back().per_initiator.resize(topology_->numa_nodes().size());
  bump_generation_locked();
  return static_cast<AttrId>(attributes_.size() - 1);
}

Result<AttrId> MemAttrRegistry::find_attribute(std::string_view name) const {
  std::shared_lock lock(mutex_);
  for (std::size_t i = 0; i < attributes_.size(); ++i) {
    if (attributes_[i].name == name) return static_cast<AttrId>(i);
  }
  return make_error(Errc::kNotFound,
                    "no attribute named '" + std::string(name) + "'");
}

const AttrInfo& MemAttrRegistry::info(AttrId attr) const {
  std::shared_lock lock(mutex_);
  assert(valid_attr(attr));
  // Safe to return a reference: attributes_ is a deque (stable addresses)
  // and entries are immutable once registered.
  return attributes_[attr];
}

Status MemAttrRegistry::check_value_locked(
    AttrId attr, const topo::Object* target,
    const std::optional<Initiator>& initiator) const {
  if (!valid_attr(attr)) {
    return make_error(Errc::kInvalidArgument, "unknown attribute id");
  }
  if (target == nullptr || target->type() != topo::ObjType::kNUMANode) {
    return make_error(Errc::kInvalidArgument, "target is not a NUMA node");
  }
  if (attributes_[attr].need_initiator && !initiator.has_value()) {
    return make_error(Errc::kInvalidArgument,
                      "attribute '" + attributes_[attr].name +
                          "' requires an initiator");
  }
  if (!attributes_[attr].need_initiator && initiator.has_value()) {
    return make_error(Errc::kInvalidArgument,
                      "attribute '" + attributes_[attr].name +
                          "' does not take an initiator");
  }
  return {};
}

void MemAttrRegistry::store_value_locked(
    AttrId attr, const topo::Object& target,
    const std::optional<Initiator>& initiator, double value) {
  const unsigned idx = target.logical_index();
  Stored& stored = values_[attr];
  if (attributes_[attr].need_initiator) {
    auto& list = stored.per_initiator[idx];
    for (InitiatorValue& existing : list) {
      if (existing.initiator == initiator->cpuset()) {
        existing.value = value;
        // A fresh value supersedes any earlier noisy/stale verdict.
        existing.confidence = Confidence::kTrusted;
        return;
      }
    }
    list.push_back(InitiatorValue{initiator->cpuset(), value, Confidence::kTrusted});
    return;
  }
  stored.global_values[idx] = value;
  stored.global_confidence[idx] = Confidence::kTrusted;
}

Status MemAttrRegistry::set_value(AttrId attr, const topo::Object& target,
                                  const std::optional<Initiator>& initiator,
                                  double value) {
  std::unique_lock lock(mutex_);
  if (Status checked = check_value_locked(attr, &target, initiator);
      !checked.ok()) {
    return checked;
  }
  store_value_locked(attr, target, initiator, value);
  bump_generation_locked();
  return {};
}

Status MemAttrRegistry::set_values(std::span<const ValueUpdate> updates) {
  std::unique_lock lock(mutex_);
  for (const ValueUpdate& update : updates) {
    if (Status checked =
            check_value_locked(update.attr, update.target, update.initiator);
        !checked.ok()) {
      return checked;
    }
  }
  if (updates.empty()) return {};
  for (const ValueUpdate& update : updates) {
    store_value_locked(update.attr, *update.target, update.initiator,
                       update.value);
  }
  bump_generation_locked();
  return {};
}

const InitiatorValue* MemAttrRegistry::match_initiator(
    const std::vector<InitiatorValue>& stored, const Bitmap& query) const {
  // 1. Exact cpuset match.
  for (const InitiatorValue& iv : stored) {
    if (iv.initiator == query) return &iv;
  }
  // 2. Smallest stored locality containing the query (a core queries with
  //    its own cpuset; the stored value for its whole group applies).
  const InitiatorValue* best = nullptr;
  for (const InitiatorValue& iv : stored) {
    if (query.is_subset_of(iv.initiator)) {
      if (best == nullptr || iv.initiator.count() < best->initiator.count()) {
        best = &iv;
      }
    }
  }
  if (best != nullptr) return best;
  // 3. Largest intersection as a last resort.
  std::size_t best_overlap = 0;
  for (const InitiatorValue& iv : stored) {
    const std::size_t overlap = (iv.initiator & query).count();
    if (overlap > best_overlap) {
      best_overlap = overlap;
      best = &iv;
    }
  }
  return best;
}

Result<double> MemAttrRegistry::value(AttrId attr, const topo::Object& target,
                                      const std::optional<Initiator>& initiator) const {
  std::shared_lock lock(mutex_);
  return value_locked(attr, target, initiator);
}

Result<double> MemAttrRegistry::value_locked(
    AttrId attr, const topo::Object& target,
    const std::optional<Initiator>& initiator) const {
  if (!valid_attr(attr)) {
    return make_error(Errc::kInvalidArgument, "unknown attribute id");
  }
  if (target.type() != topo::ObjType::kNUMANode) {
    return make_error(Errc::kInvalidArgument, "target is not a NUMA node");
  }
  const unsigned idx = target.logical_index();
  const Stored& stored = values_[attr];
  if (attributes_[attr].need_initiator) {
    if (!initiator.has_value()) {
      return make_error(Errc::kInvalidArgument,
                        "attribute '" + attributes_[attr].name +
                            "' requires an initiator");
    }
    const InitiatorValue* match =
        match_initiator(stored.per_initiator[idx], initiator->cpuset());
    if (match == nullptr) {
      return make_error(Errc::kNotFound,
                        "no value of '" + attributes_[attr].name +
                            "' for this (target, initiator)");
    }
    return match->value;
  }
  if (!stored.global_values[idx].has_value()) {
    return make_error(Errc::kNotFound,
                      "no value of '" + attributes_[attr].name + "' for target");
  }
  return *stored.global_values[idx];
}

std::vector<TargetValue> MemAttrRegistry::targets_ranked(
    AttrId attr, const Initiator& initiator, topo::LocalityFlags flags) const {
  std::shared_lock lock(mutex_);
  return targets_ranked_locked(attr, initiator, flags);
}

std::vector<RankCandidate> MemAttrRegistry::rank_candidates_locked(
    AttrId attr, const Initiator& initiator, topo::LocalityFlags flags) const {
  std::vector<RankCandidate> candidates;
  if (!valid_attr(attr)) return candidates;
  const health::QuarantineList* quarantine =
      quarantine_.load(std::memory_order_acquire);
  const Stored& stored = values_[attr];
  const bool need_initiator = attributes_[attr].need_initiator;
  for (const topo::Object* node :
       topology_->local_numa_nodes(initiator.cpuset(), flags)) {
    const unsigned idx = node->logical_index();
    RankCandidate candidate;
    candidate.target = node;
    candidate.verdict = quarantine != nullptr
                            ? quarantine->verdict(idx)
                            : health::PlacementVerdict::kNormal;
    if (need_initiator) {
      const InitiatorValue* match =
          match_initiator(stored.per_initiator[idx], initiator.cpuset());
      if (match == nullptr) continue;
      candidate.value = match->value;
      candidate.confidence = match->confidence;
    } else {
      if (!stored.global_values[idx].has_value()) continue;
      candidate.value = *stored.global_values[idx];
      candidate.confidence = stored.global_confidence[idx];
    }
    candidates.push_back(candidate);
  }
  return candidates;
}

std::vector<RankCandidate> MemAttrRegistry::rank_candidates(
    AttrId attr, const Initiator& initiator, topo::LocalityFlags flags) const {
  std::shared_lock lock(mutex_);
  return rank_candidates_locked(attr, initiator, flags);
}

std::vector<TargetValue> MemAttrRegistry::targets_ranked_locked(
    AttrId attr, const Initiator& initiator, topo::LocalityFlags flags) const {
  if (!valid_attr(attr)) return {};
  return RankingComposition::standard(attributes_[attr].polarity,
                                      /*confidence_aware=*/false)
      .compose(rank_candidates_locked(attr, initiator, flags));
}

Result<TargetValue> MemAttrRegistry::best_target(AttrId attr,
                                                 const Initiator& initiator,
                                                 topo::LocalityFlags flags) const {
  std::shared_lock lock(mutex_);
  if (!valid_attr(attr)) {
    return make_error(Errc::kInvalidArgument, "unknown attribute id");
  }
  std::vector<TargetValue> ranked = targets_ranked_locked(attr, initiator, flags);
  if (ranked.empty()) {
    return make_error(Errc::kNotFound,
                      "no local target has a value of '" + attributes_[attr].name + "'");
  }
  return ranked.front();
}

std::vector<InitiatorValue> MemAttrRegistry::initiators(
    AttrId attr, const topo::Object& target) const {
  std::shared_lock lock(mutex_);
  if (!valid_attr(attr) || !attributes_[attr].need_initiator ||
      target.type() != topo::ObjType::kNUMANode) {
    return {};
  }
  return values_[attr].per_initiator[target.logical_index()];
}

Result<InitiatorValue> MemAttrRegistry::best_initiator(
    AttrId attr, const topo::Object& target) const {
  std::shared_lock lock(mutex_);
  if (!valid_attr(attr)) {
    return make_error(Errc::kInvalidArgument, "unknown attribute id");
  }
  if (!attributes_[attr].need_initiator) {
    return make_error(Errc::kInvalidArgument,
                      "attribute '" + attributes_[attr].name +
                          "' has no initiators");
  }
  const auto& list = values_[attr].per_initiator[target.logical_index()];
  if (list.empty()) {
    return make_error(Errc::kNotFound, "no initiator has a value for this target");
  }
  const bool higher_first = attributes_[attr].polarity == Polarity::kHigherFirst;
  const InitiatorValue* best = &list.front();
  for (const InitiatorValue& iv : list) {
    if (higher_first ? iv.value > best->value : iv.value < best->value) best = &iv;
  }
  return *best;
}

bool MemAttrRegistry::has_values(AttrId attr) const {
  std::shared_lock lock(mutex_);
  return has_values_locked(attr);
}

bool MemAttrRegistry::has_values_locked(AttrId attr) const {
  if (!valid_attr(attr)) return false;
  const Stored& stored = values_[attr];
  for (const auto& v : stored.global_values) {
    if (v.has_value()) return true;
  }
  for (const auto& list : stored.per_initiator) {
    if (!list.empty()) return true;
  }
  return false;
}

Status MemAttrRegistry::set_confidence(AttrId attr, const topo::Object& target,
                                       const std::optional<Initiator>& initiator,
                                       Confidence confidence) {
  std::unique_lock lock(mutex_);
  if (!valid_attr(attr)) {
    return make_error(Errc::kInvalidArgument, "unknown attribute id");
  }
  if (target.type() != topo::ObjType::kNUMANode) {
    return make_error(Errc::kInvalidArgument, "target is not a NUMA node");
  }
  const unsigned idx = target.logical_index();
  Stored& stored = values_[attr];
  if (attributes_[attr].need_initiator) {
    if (!initiator.has_value()) {
      return make_error(Errc::kInvalidArgument,
                        "attribute '" + attributes_[attr].name +
                            "' requires an initiator");
    }
    for (InitiatorValue& existing : stored.per_initiator[idx]) {
      if (existing.initiator == initiator->cpuset()) {
        existing.confidence = confidence;
        bump_generation_locked();
        return {};
      }
    }
    return make_error(Errc::kNotFound,
                      "no stored value for this (target, initiator)");
  }
  if (!stored.global_values[idx].has_value()) {
    return make_error(Errc::kNotFound, "no stored value for target");
  }
  stored.global_confidence[idx] = confidence;
  bump_generation_locked();
  return {};
}

Result<Confidence> MemAttrRegistry::confidence(
    AttrId attr, const topo::Object& target,
    const std::optional<Initiator>& initiator) const {
  std::shared_lock lock(mutex_);
  if (!valid_attr(attr)) {
    return make_error(Errc::kInvalidArgument, "unknown attribute id");
  }
  if (target.type() != topo::ObjType::kNUMANode) {
    return make_error(Errc::kInvalidArgument, "target is not a NUMA node");
  }
  const unsigned idx = target.logical_index();
  const Stored& stored = values_[attr];
  if (attributes_[attr].need_initiator) {
    if (!initiator.has_value()) {
      return make_error(Errc::kInvalidArgument,
                        "attribute '" + attributes_[attr].name +
                            "' requires an initiator");
    }
    const InitiatorValue* match =
        match_initiator(stored.per_initiator[idx], initiator->cpuset());
    if (match == nullptr) {
      return make_error(Errc::kNotFound, "no stored value");
    }
    return match->confidence;
  }
  if (!stored.global_values[idx].has_value()) {
    return make_error(Errc::kNotFound, "no stored value");
  }
  return stored.global_confidence[idx];
}

void MemAttrRegistry::mark_all(AttrId attr, Confidence confidence) {
  std::unique_lock lock(mutex_);
  if (!valid_attr(attr)) return;
  Stored& stored = values_[attr];
  for (std::size_t idx = 0; idx < stored.global_values.size(); ++idx) {
    if (stored.global_values[idx].has_value()) {
      stored.global_confidence[idx] = confidence;
    }
  }
  for (auto& list : stored.per_initiator) {
    for (InitiatorValue& iv : list) iv.confidence = confidence;
  }
  bump_generation_locked();
}

bool MemAttrRegistry::has_trusted_values(AttrId attr) const {
  std::shared_lock lock(mutex_);
  return has_trusted_values_locked(attr);
}

bool MemAttrRegistry::has_trusted_values_locked(AttrId attr) const {
  if (!valid_attr(attr)) return false;
  const Stored& stored = values_[attr];
  for (std::size_t idx = 0; idx < stored.global_values.size(); ++idx) {
    if (stored.global_values[idx].has_value() &&
        stored.global_confidence[idx] == Confidence::kTrusted) {
      return true;
    }
  }
  for (const auto& list : stored.per_initiator) {
    for (const InitiatorValue& iv : list) {
      if (iv.confidence == Confidence::kTrusted) return true;
    }
  }
  return false;
}

std::vector<TargetValue> MemAttrRegistry::targets_ranked_resilient(
    AttrId attr, const Initiator& initiator, topo::LocalityFlags flags) const {
  std::shared_lock lock(mutex_);
  return targets_ranked_resilient_locked(attr, initiator, flags);
}

std::vector<TargetValue> MemAttrRegistry::targets_ranked_resilient_locked(
    AttrId attr, const Initiator& initiator, topo::LocalityFlags flags) const {
  if (!valid_attr(attr)) return {};
  // Quarantine dominates confidence (see RankingComposition::standard): a
  // node with noisy measurements is still healthy hardware, a quarantined
  // node is failing hardware.
  return RankingComposition::standard(attributes_[attr].polarity,
                                      /*confidence_aware=*/true)
      .compose(rank_candidates_locked(attr, initiator, flags));
}

AttrId MemAttrRegistry::resolve_resilient_locked(AttrId attr) const {
  if (has_trusted_values_locked(attr)) return attr;
  AttrId fallback = attr;
  switch (attr) {
    case kReadBandwidth:
    case kWriteBandwidth:
      fallback = kBandwidth;
      break;
    case kReadLatency:
    case kWriteLatency:
      fallback = kLatency;
      break;
    default:
      break;
  }
  if (fallback != attr && has_trusted_values_locked(fallback)) return fallback;
  // Coarsest safe criterion: Capacity is populated natively from the
  // topology and cannot be poisoned by noisy measurement or bad firmware.
  return kCapacity;
}

Result<AttrId> MemAttrRegistry::resolve_resilient(AttrId attr) const {
  std::shared_lock lock(mutex_);
  if (!valid_attr(attr)) {
    return make_error(Errc::kInvalidArgument, "unknown attribute id");
  }
  return resolve_resilient_locked(attr);
}

Result<AttrId> MemAttrRegistry::resolve_with_fallback_locked(AttrId attr) const {
  if (!valid_attr(attr)) {
    return make_error(Errc::kInvalidArgument, "unknown attribute id");
  }
  if (has_values_locked(attr)) return attr;
  AttrId fallback = attr;
  switch (attr) {
    case kReadBandwidth:
    case kWriteBandwidth:
      fallback = kBandwidth;
      break;
    case kReadLatency:
    case kWriteLatency:
      fallback = kLatency;
      break;
    default:
      return make_error(Errc::kNotFound,
                        "attribute '" + attributes_[attr].name +
                            "' has no values and no fallback");
  }
  if (has_values_locked(fallback)) return fallback;
  return make_error(Errc::kNotFound,
                    "neither '" + attributes_[attr].name + "' nor its fallback '" +
                        attributes_[fallback].name + "' has values");
}

Result<AttrId> MemAttrRegistry::resolve_with_fallback(AttrId attr) const {
  std::shared_lock lock(mutex_);
  return resolve_with_fallback_locked(attr);
}

// --- generation-invalidated ranking cache ---

void MemAttrRegistry::invalidate_rankings() {
  // The exclusive lock keeps the invariant that a snapshot's generation
  // stamp (read under a shared lock) always matches the data it was built
  // from — bumps never interleave with an in-flight rebuild.
  std::unique_lock lock(mutex_);
  bump_generation_locked();
}

void MemAttrRegistry::set_quarantine_list(const health::QuarantineList* list) {
  std::unique_lock lock(mutex_);
  quarantine_.store(list, std::memory_order_release);
  bump_generation_locked();
}

void MemAttrRegistry::build_ranking_locked(CachedRanking& out) const {
  const Initiator initiator = Initiator::from_cpuset(out.initiator);
  switch (out.mode) {
    case RankingMode::kPlain:
      out.resolved = out.requested;
      out.targets = targets_ranked_locked(out.requested, initiator, out.flags);
      break;
    case RankingMode::kResilient:
      out.resolved = out.requested;
      out.targets =
          targets_ranked_resilient_locked(out.requested, initiator, out.flags);
      break;
    case RankingMode::kAllocPath: {
      const Result<AttrId> resolved = resolve_with_fallback_locked(out.requested);
      if (!resolved.ok()) {
        out.resolved = out.requested;
        out.resolved_ok = false;
        break;
      }
      out.resolved = *resolved;
      out.targets =
          targets_ranked_resilient_locked(out.resolved, initiator, out.flags);
      break;
    }
    case RankingMode::kRescuePath:
      out.resolved = valid_attr(out.requested)
                         ? resolve_resilient_locked(out.requested)
                         : kCapacity;
      out.targets =
          targets_ranked_resilient_locked(out.resolved, initiator, out.flags);
      break;
  }
}

RankingSnapshot MemAttrRegistry::ranked_cached(
    RankingMode mode, AttrId attr, const support::Bitmap& initiator_cpuset,
    topo::LocalityFlags flags) const {
  if (!cache_enabled_.load(std::memory_order_relaxed)) {
    // Uncached baseline: build a private snapshot, never publish it.
    auto fresh = std::make_shared<CachedRanking>();
    fresh->requested = attr;
    fresh->mode = mode;
    fresh->flags = flags;
    fresh->initiator = initiator_cpuset;
    std::shared_lock lock(mutex_);
    fresh->generation = generation_.load(std::memory_order_relaxed);
    build_ranking_locked(*fresh);
    return fresh;
  }

  const std::uint64_t generation = generation_.load(std::memory_order_acquire);
  std::size_t key = initiator_cpuset.hash();
  key ^= static_cast<std::size_t>(attr) * 0x9e3779b97f4a7c15ull;
  key ^= (static_cast<std::size_t>(flags) << 3) ^
         (static_cast<std::size_t>(mode) << 1);
  const std::size_t slot = key & (kRankingCacheSlots - 1);

  RankingSnapshot cached = ranking_cache_[slot].load(std::memory_order_acquire);
  if (cached && cached->generation == generation && cached->mode == mode &&
      cached->requested == attr && cached->flags == flags &&
      cached->initiator == initiator_cpuset) {
    cache_hits_.fetch_add(1, std::memory_order_relaxed);
    return cached;
  }

  cache_misses_.fetch_add(1, std::memory_order_relaxed);
  auto rebuilt = std::make_shared<CachedRanking>();
  rebuilt->requested = attr;
  rebuilt->mode = mode;
  rebuilt->flags = flags;
  rebuilt->initiator = initiator_cpuset;
  {
    std::shared_lock lock(mutex_);
    // Writers bump the generation while holding the lock exclusively, so
    // this stamp is exactly the state the ranking below is built from.
    rebuilt->generation = generation_.load(std::memory_order_relaxed);
    build_ranking_locked(*rebuilt);
  }

  // Publish, but never replace a newer-generation snapshot with an older
  // one: a reader that stalled between rebuild and publish must not bury a
  // fresher entry (stale-after-publish would make later hits serve old
  // rankings).
  RankingSnapshot snapshot = std::move(rebuilt);
  RankingSnapshot expected = std::move(cached);
  while (!(expected && expected->generation > snapshot->generation)) {
    if (ranking_cache_[slot].compare_exchange_weak(
            expected, snapshot, std::memory_order_release,
            std::memory_order_acquire)) {
      break;
    }
  }
  return snapshot;
}

RankingSnapshot MemAttrRegistry::targets_ranked_cached(
    AttrId attr, const support::Bitmap& initiator_cpuset,
    topo::LocalityFlags flags) const {
  return ranked_cached(RankingMode::kPlain, attr, initiator_cpuset, flags);
}

RankingSnapshot MemAttrRegistry::targets_ranked_resilient_cached(
    AttrId attr, const support::Bitmap& initiator_cpuset,
    topo::LocalityFlags flags) const {
  return ranked_cached(RankingMode::kResilient, attr, initiator_cpuset, flags);
}

RankingSnapshot MemAttrRegistry::alloc_ranking_cached(
    AttrId attr, const support::Bitmap& initiator_cpuset,
    topo::LocalityFlags flags) const {
  return ranked_cached(RankingMode::kAllocPath, attr, initiator_cpuset, flags);
}

RankingSnapshot MemAttrRegistry::rescue_ranking_cached(
    AttrId attr, const support::Bitmap& initiator_cpuset,
    topo::LocalityFlags flags) const {
  return ranked_cached(RankingMode::kRescuePath, attr, initiator_cpuset, flags);
}

RankingCacheStats MemAttrRegistry::ranking_cache_stats() const {
  RankingCacheStats stats;
  stats.hits = cache_hits_.load(std::memory_order_relaxed);
  stats.misses = cache_misses_.load(std::memory_order_relaxed);
  return stats;
}

void MemAttrRegistry::reset_ranking_cache_stats() {
  cache_hits_.store(0, std::memory_order_relaxed);
  cache_misses_.store(0, std::memory_order_relaxed);
}

std::string memattrs_report(const MemAttrRegistry& registry) {
  const topo::Topology& topology = registry.topology();
  std::string out;
  for (AttrId attr = 0; attr < registry.attribute_count(); ++attr) {
    const AttrInfo& info = registry.info(attr);
    if (!registry.has_values(attr)) continue;
    out += "Memory attribute #" + std::to_string(attr) + " name '" + info.name + "'\n";
    for (const topo::Object* node : topology.numa_nodes()) {
      const std::string node_label =
          "  NUMANode L#" + std::to_string(node->logical_index());
      if (!info.need_initiator) {
        auto v = registry.value(attr, *node, std::nullopt);
        if (!v.ok()) continue;
        out += node_label + " = " +
               std::to_string(static_cast<std::uint64_t>(*v)) + "\n";
        continue;
      }
      for (const InitiatorValue& iv : registry.initiators(attr, *node)) {
        const topo::Object* from = topology.covering_object(iv.initiator);
        std::string from_label = "cpuset " + iv.initiator.to_list_string();
        if (from != nullptr && from->cpuset() == iv.initiator) {
          from_label = std::string(from->type() == topo::ObjType::kGroup
                                       ? (from->subtype().empty() ? "Group" : "Group")
                                       : topo::obj_type_name(from->type())) +
                       (from->type() == topo::ObjType::kGroup ? "0" : "") + " L#" +
                       std::to_string(from->logical_index());
        }
        // hwloc prints bandwidth in MiB/s and latency in ns.
        double printed = iv.value;
        if (attr == kBandwidth || attr == kReadBandwidth || attr == kWriteBandwidth) {
          printed = iv.value / static_cast<double>(support::kMiB);
        }
        out += node_label + " = " +
               std::to_string(static_cast<std::uint64_t>(printed)) + " from " +
               from_label + "\n";
      }
    }
  }
  return out;
}

std::string serialize_values(const MemAttrRegistry& registry) {
  const topo::Topology& topology = registry.topology();
  std::string out = "# hetmem-memattrs v1\n";
  // Custom attribute declarations first so load_values can re-register.
  for (AttrId attr = kFirstCustomAttr; attr < registry.attribute_count(); ++attr) {
    const AttrInfo& info = registry.info(attr);
    out += "attr name=" + info.name + " polarity=" +
           (info.polarity == Polarity::kHigherFirst ? "higher" : "lower") +
           " initiator=" + (info.need_initiator ? "1" : "0") + "\n";
  }
  for (AttrId attr = 0; attr < registry.attribute_count(); ++attr) {
    const AttrInfo& info = registry.info(attr);
    // Capacity/Locality are derived from the topology; skip the builtins
    // that load_values would recompute anyway.
    if (attr == kCapacity || attr == kLocality) continue;
    for (const topo::Object* node : topology.numa_nodes()) {
      if (!info.need_initiator) {
        auto value = registry.value(attr, *node, std::nullopt);
        if (!value.ok()) continue;
        out += "value attr=" + info.name +
               " target=" + std::to_string(node->os_index()) +
               " v=" + support::format_fixed(*value, 6) + "\n";
        continue;
      }
      for (const InitiatorValue& iv : registry.initiators(attr, *node)) {
        out += "value attr=" + info.name +
               " target=" + std::to_string(node->os_index()) +
               " initiator=" + iv.initiator.to_list_string() +
               " v=" + support::format_fixed(iv.value, 6) + "\n";
      }
    }
  }
  return out;
}


Status load_values(MemAttrRegistry& registry, std::string_view text) {
  const topo::Topology& topology = registry.topology();
  std::size_t line_number = 0;
  bool header_seen = false;

  auto field = [](const std::vector<std::string_view>& tokens,
                  std::string_view key) -> std::optional<std::string_view> {
    const std::string prefix = std::string(key) + "=";
    for (std::string_view token : tokens) {
      if (token.substr(0, prefix.size()) == prefix) {
        return token.substr(prefix.size());
      }
    }
    return std::nullopt;
  };
  auto fail = [&](const std::string& message) {
    return make_error(Errc::kParseError,
                      "line " + std::to_string(line_number) + ": " + message);
  };

  for (std::string_view raw_line : support::split(text, '\n')) {
    ++line_number;
    std::string_view line = support::trim(raw_line);
    if (line.empty()) continue;
    if (line.front() == '#') {
      header_seen |= line.find("hetmem-memattrs v1") != std::string_view::npos;
      continue;
    }
    if (!header_seen) {
      return fail("missing hetmem-memattrs v1 header");
    }
    std::vector<std::string_view> tokens;
    for (std::string_view token : support::split(line, ' ')) {
      if (!token.empty()) tokens.push_back(token);
    }

    if (tokens[0] == "attr") {
      auto name = field(tokens, "name");
      auto polarity = field(tokens, "polarity");
      auto need_initiator = field(tokens, "initiator");
      if (!name || !polarity || !need_initiator) {
        return fail("attr needs name=, polarity=, initiator=");
      }
      if (registry.find_attribute(*name).ok()) continue;  // already present
      auto id = registry.register_attribute(
          *name,
          *polarity == "higher" ? Polarity::kHigherFirst : Polarity::kLowerFirst,
          *need_initiator == "1");
      if (!id.ok()) return id.error();
      continue;
    }
    if (tokens[0] != "value") return fail("unknown record");

    auto attr_name = field(tokens, "attr");
    auto target_text = field(tokens, "target");
    auto value_text = field(tokens, "v");
    if (!attr_name || !target_text || !value_text) {
      return fail("value needs attr=, target=, v=");
    }
    auto attr = registry.find_attribute(*attr_name);
    if (!attr.ok()) return fail("unknown attribute '" + std::string(*attr_name) + "'");

    unsigned target_os = 0;
    {
      auto [ptr, ec] = std::from_chars(
          target_text->data(), target_text->data() + target_text->size(), target_os);
      if (ec != std::errc{} || ptr != target_text->data() + target_text->size()) {
        return fail("bad target index");
      }
    }
    const topo::Object* target = topology.numa_node_by_os_index(target_os);
    if (target == nullptr) return fail("no NUMA node with OS index " +
                                       std::to_string(target_os));

    double value = 0.0;
    {
      auto [ptr, ec] = std::from_chars(
          value_text->data(), value_text->data() + value_text->size(), value);
      if (ec != std::errc{} || ptr != value_text->data() + value_text->size()) {
        return fail("bad value");
      }
    }

    std::optional<Initiator> initiator;
    if (auto initiator_text = field(tokens, "initiator"); initiator_text) {
      auto cpuset = support::Bitmap::parse(*initiator_text);
      if (!cpuset.has_value()) return fail("bad initiator cpuset");
      initiator = Initiator::from_cpuset(*cpuset);
    }
    if (Status status = registry.set_value(*attr, *target, initiator, value);
        !status.ok()) {
      return status;
    }
  }
  return {};
}

}  // namespace hetmem::attr
