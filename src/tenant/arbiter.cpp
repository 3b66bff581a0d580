#include "hetmem/tenant/arbiter.hpp"

#include <algorithm>

#include "hetmem/support/units.hpp"

namespace hetmem::tenant {

GlobalArbiter::GlobalArbiter(const TenantRegistry& registry,
                             ArbiterOptions options)
    : registry_(&registry), options_(options) {}

void GlobalArbiter::begin_epoch(std::uint64_t epoch_index,
                                std::uint64_t pool_bytes) {
  if (epoch_ == epoch_index) return;
  epoch_ = epoch_index;
  pool_bytes_ = pool_bytes;
  ++stats_.epochs;

  // Previous epoch's denials become this epoch's deficit boosts.
  std::unordered_map<TenantId, std::uint64_t> denied;
  for (const ArbiterSlice& slice : slices_) {
    if (slice.denied_bytes > 0) denied[slice.id] = slice.denied_bytes;
  }
  last_denied_ = std::move(denied);
  slices_.clear();

  std::vector<TenantHandle> live = registry_->tenants();
  std::sort(live.begin(), live.end(),
            [](const TenantHandle& a, const TenantHandle& b) {
              return a->id() < b->id();
            });
  if (live.empty()) return;

  double total_weight = 0.0;
  std::vector<double> weights(live.size(), 0.0);
  for (std::size_t i = 0; i < live.size(); ++i) {
    double weight = priority_weight(options_, live[i]->priority()) *
                    live[i]->quota().share_weight;
    if (auto it = last_denied_.find(live[i]->id()); it != last_denied_.end()) {
      // Starvation recovery: weight the slice up by how badly the tenant
      // lost out last epoch, relative to the pool, capped so one enormous
      // denied drain cannot invert the priority order forever.
      const double deficit_fraction =
          pool_bytes_ == UINT64_MAX
              ? 0.0
              : static_cast<double>(it->second) /
                    static_cast<double>(std::max<std::uint64_t>(pool_bytes_, 1));
      weight *= std::min(1.0 + deficit_fraction, options_.deficit_boost_cap);
    }
    weights[i] = weight;
    total_weight += weight;
  }

  for (std::size_t i = 0; i < live.size(); ++i) {
    ArbiterSlice slice;
    slice.id = live[i]->id();
    slice.name = live[i]->name();
    slice.slice_bytes =
        pool_bytes_ == UINT64_MAX || total_weight <= 0.0
            ? UINT64_MAX
            : static_cast<std::uint64_t>(static_cast<double>(pool_bytes_) *
                                         (weights[i] / total_weight));
    slices_.push_back(std::move(slice));
  }
}

bool GlobalArbiter::try_draw(std::uint64_t epoch_index, TenantId id,
                             std::uint64_t bytes) {
  if (epoch_ != epoch_index) begin_epoch(epoch_index, pool_bytes_);
  if (id == kNoTenant) {
    ++stats_.draws_granted;
    stats_.bytes_granted += bytes;
    return true;
  }
  for (ArbiterSlice& slice : slices_) {
    if (slice.id != id) continue;
    const std::uint64_t spent = slice.granted_bytes;
    if (slice.slice_bytes != UINT64_MAX &&
        spent + bytes > slice.slice_bytes) {
      slice.denied_bytes += bytes;
      ++stats_.draws_denied;
      stats_.bytes_denied += bytes;
      return false;
    }
    slice.granted_bytes += bytes;
    ++stats_.draws_granted;
    stats_.bytes_granted += bytes;
    return true;
  }
  // Registered after the epoch opened: no slice to protect yet.
  ++stats_.draws_granted;
  stats_.bytes_granted += bytes;
  return true;
}

void GlobalArbiter::refund(std::uint64_t epoch_index, TenantId id,
                           std::uint64_t bytes) {
  stats_.bytes_granted -= std::min(bytes, stats_.bytes_granted);
  if (epoch_ != epoch_index) return;
  for (ArbiterSlice& slice : slices_) {
    if (slice.id != id) continue;
    slice.granted_bytes -= std::min(bytes, slice.granted_bytes);
    return;
  }
}

std::uint64_t GlobalArbiter::slice_remaining(TenantId id) const {
  for (const ArbiterSlice& slice : slices_) {
    if (slice.id != id) continue;
    if (slice.slice_bytes == UINT64_MAX) return UINT64_MAX;
    return slice.slice_bytes > slice.granted_bytes
               ? slice.slice_bytes - slice.granted_bytes
               : 0;
  }
  return UINT64_MAX;
}

std::string GlobalArbiter::render_log() const {
  std::string out = "epoch " + std::to_string(epoch_) + " pool " +
                    (pool_bytes_ == UINT64_MAX
                         ? std::string("unlimited")
                         : support::format_bytes(pool_bytes_)) +
                    "\n";
  for (const ArbiterSlice& slice : slices_) {
    out += "  tenant " + std::to_string(slice.id) + " (" + slice.name +
           ") slice " +
           (slice.slice_bytes == UINT64_MAX
                ? std::string("unlimited")
                : support::format_bytes(slice.slice_bytes)) +
           " granted " + support::format_bytes(slice.granted_bytes) +
           " denied " + support::format_bytes(slice.denied_bytes) + "\n";
  }
  return out;
}

}  // namespace hetmem::tenant
