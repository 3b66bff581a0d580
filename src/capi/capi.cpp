#include "hetmem/capi.h"

#include <atomic>
#include <cstring>
#include <memory>
#include <string>

#include "hetmem/alloc/allocator.hpp"
#include "hetmem/hmat/hmat.hpp"
#include "hetmem/memattr/memattr.hpp"
#include "hetmem/power/power.hpp"
#include "hetmem/probe/probe.hpp"
#include "hetmem/recover/snapshot.hpp"
#include "hetmem/recover/supervisor.hpp"
#include "hetmem/simmem/machine.hpp"
#include "hetmem/tenant/tenant.hpp"
#include "hetmem/topo/presets.hpp"

struct hetmem_context {
  std::unique_ptr<hetmem::sim::SimMachine> machine;
  std::unique_ptr<hetmem::attr::MemAttrRegistry> registry;
  std::unique_ptr<hetmem::tenant::TenantRegistry> tenants;
  std::unique_ptr<hetmem::alloc::HeterogeneousAllocator> allocator;
  std::unique_ptr<hetmem::recover::Supervisor> supervisor;
  std::string preset_name;  /* snapshot provenance (hetmem_snapshot_save) */
  bool probed = false;
  std::atomic<uint64_t> last_retry_after_ms{0};
};

namespace {

using namespace hetmem;

int map_errc(support::Errc code) {
  switch (code) {
    case support::Errc::kInvalidArgument: return HETMEM_ERR_INVALID;
    case support::Errc::kNotFound: return HETMEM_ERR_NOENT;
    case support::Errc::kOutOfCapacity: return HETMEM_ERR_NOMEM;
    case support::Errc::kUnsupported: return HETMEM_ERR_UNSUPPORTED;
    case support::Errc::kParseError: return HETMEM_ERR_PARSE;
    case support::Errc::kAlreadyExists: return HETMEM_ERR_INVALID;
    case support::Errc::kInternal: return HETMEM_ERR_INTERNAL;
    case support::Errc::kTransient: return HETMEM_ERR_AGAIN;
    case support::Errc::kBackpressure: return HETMEM_ERR_AGAIN;
  }
  return HETMEM_ERR_INTERNAL;
}

hetmem_context* create_context(const char* preset_name, bool probed) {
  if (preset_name == nullptr) return nullptr;
  const topo::NamedTopology* preset = nullptr;
  for (const topo::NamedTopology& candidate : topo::all_presets()) {
    if (std::strcmp(candidate.name, preset_name) == 0) preset = &candidate;
  }
  if (preset == nullptr) return nullptr;

  auto ctx = std::make_unique<hetmem_context>();
  ctx->machine = std::make_unique<sim::SimMachine>(preset->factory());
  ctx->registry =
      std::make_unique<attr::MemAttrRegistry>(ctx->machine->topology());
  if (probed) {
    probe::ProbeOptions options;
    options.backing_bytes = 64 * 1024;
    options.chase_accesses = 2000;
    options.buffer_bytes = 128ull * 1024 * 1024;
    auto report = probe::discover(*ctx->machine, options);
    if (!report.ok() ||
        !probe::feed_registry(*ctx->registry, *report).ok()) {
      return nullptr;
    }
  } else {
    hmat::GenerateOptions options;
    options.local_only = false;
    if (!hmat::load_into(*ctx->registry,
                         hmat::generate(ctx->machine->topology(), options))
             .ok()) {
      return nullptr;
    }
  }
  if (!power::feed_registry(*ctx->registry, *ctx->machine).ok()) {
    return nullptr;
  }
  ctx->tenants = std::make_unique<tenant::TenantRegistry>();
  ctx->allocator = std::make_unique<alloc::HeterogeneousAllocator>(
      *ctx->machine, *ctx->registry);
  ctx->allocator->set_tenant_registry(ctx->tenants.get());
  ctx->supervisor = std::make_unique<recover::Supervisor>();
  ctx->preset_name = preset_name;
  ctx->probed = probed;
  return ctx.release();
}

/// Parses a list-syntax cpuset; empty optional on failure.
std::optional<support::Bitmap> parse_cpuset(const char* text) {
  if (text == nullptr) return std::nullopt;
  return support::Bitmap::parse(text);
}

const topo::Object* node_at(const hetmem_context* ctx, unsigned node) {
  if (ctx == nullptr) return nullptr;
  return ctx->machine->topology().numa_node(node);
}

int write_string(const std::string& value, char* buf, size_t buflen) {
  if (buf != nullptr && buflen > 0) {
    const size_t n = std::min(buflen - 1, value.size());
    std::memcpy(buf, value.data(), n);
    buf[n] = '\0';
  }
  return static_cast<int>(value.size());
}

}  // namespace

extern "C" {

hetmem_context* hetmem_context_create(const char* preset_name) {
  return create_context(preset_name, /*probed=*/false);
}

hetmem_context* hetmem_context_create_probed(const char* preset_name) {
  return create_context(preset_name, /*probed=*/true);
}

void hetmem_context_destroy(hetmem_context* ctx) { delete ctx; }

int hetmem_list_presets(const char** names, size_t capacity) {
  const auto& presets = topo::all_presets();
  if (names != nullptr) {
    for (size_t i = 0; i < std::min(capacity, presets.size()); ++i) {
      names[i] = presets[i].name;
    }
  }
  return static_cast<int>(presets.size());
}

int hetmem_numa_count(const hetmem_context* ctx) {
  if (ctx == nullptr) return HETMEM_ERR_INVALID;
  return static_cast<int>(ctx->machine->topology().numa_nodes().size());
}

int hetmem_pu_count(const hetmem_context* ctx) {
  if (ctx == nullptr) return HETMEM_ERR_INVALID;
  return static_cast<int>(ctx->machine->topology().pus().size());
}

uint64_t hetmem_node_capacity(const hetmem_context* ctx, unsigned node) {
  const topo::Object* object = node_at(ctx, node);
  return object == nullptr ? 0 : object->capacity_bytes();
}

int hetmem_node_cpuset(const hetmem_context* ctx, unsigned node, char* buf,
                       size_t buflen) {
  const topo::Object* object = node_at(ctx, node);
  if (object == nullptr) return HETMEM_ERR_INVALID;
  return write_string(object->cpuset().to_list_string(), buf, buflen);
}

const char* hetmem_node_kind_debug(const hetmem_context* ctx, unsigned node) {
  const topo::Object* object = node_at(ctx, node);
  return object == nullptr ? nullptr
                           : topo::memory_kind_name(object->memory_kind());
}

int hetmem_local_nodes(const hetmem_context* ctx, const char* initiator,
                       unsigned* nodes, size_t capacity) {
  if (ctx == nullptr) return HETMEM_ERR_INVALID;
  auto cpuset = parse_cpuset(initiator);
  if (!cpuset.has_value()) return HETMEM_ERR_PARSE;
  auto local = ctx->machine->topology().local_numa_nodes(*cpuset);
  if (nodes != nullptr) {
    for (size_t i = 0; i < std::min(capacity, local.size()); ++i) {
      nodes[i] = local[i]->logical_index();
    }
  }
  return static_cast<int>(local.size());
}

int hetmem_memattr_get_value(const hetmem_context* ctx, int attr,
                             unsigned node, const char* initiator,
                             double* value) {
  if (ctx == nullptr || attr < 0 || value == nullptr) return HETMEM_ERR_INVALID;
  const topo::Object* object = node_at(ctx, node);
  if (object == nullptr) return HETMEM_ERR_INVALID;
  std::optional<attr::Initiator> query;
  if (initiator != nullptr) {
    auto cpuset = parse_cpuset(initiator);
    if (!cpuset.has_value()) return HETMEM_ERR_PARSE;
    query = attr::Initiator::from_cpuset(*cpuset);
  }
  auto result = ctx->registry->value(static_cast<attr::AttrId>(attr), *object,
                                     query);
  if (!result.ok()) return map_errc(result.error().code);
  *value = *result;
  return HETMEM_SUCCESS;
}

int hetmem_memattr_get_best_target(const hetmem_context* ctx, int attr,
                                   const char* initiator, unsigned* node,
                                   double* value) {
  if (ctx == nullptr || attr < 0 || node == nullptr) return HETMEM_ERR_INVALID;
  auto cpuset = parse_cpuset(initiator);
  if (!cpuset.has_value()) return HETMEM_ERR_PARSE;
  auto best = ctx->registry->best_target(static_cast<attr::AttrId>(attr),
                                         attr::Initiator::from_cpuset(*cpuset));
  if (!best.ok()) return map_errc(best.error().code);
  *node = best->target->logical_index();
  if (value != nullptr) *value = best->value;
  return HETMEM_SUCCESS;
}

int hetmem_memattr_get_best_initiator(const hetmem_context* ctx, int attr,
                                      unsigned node, char* buf, size_t buflen,
                                      double* value) {
  if (ctx == nullptr || attr < 0) return HETMEM_ERR_INVALID;
  const topo::Object* object = node_at(ctx, node);
  if (object == nullptr) return HETMEM_ERR_INVALID;
  auto best =
      ctx->registry->best_initiator(static_cast<attr::AttrId>(attr), *object);
  if (!best.ok()) return map_errc(best.error().code);
  if (value != nullptr) *value = best->value;
  return write_string(best->initiator.to_list_string(), buf, buflen);
}

int hetmem_memattr_register(hetmem_context* ctx, const char* name,
                            int higher_is_better, int need_initiator) {
  if (ctx == nullptr || name == nullptr) return HETMEM_ERR_INVALID;
  auto id = ctx->registry->register_attribute(
      name,
      higher_is_better != 0 ? attr::Polarity::kHigherFirst
                            : attr::Polarity::kLowerFirst,
      need_initiator != 0);
  if (!id.ok()) return map_errc(id.error().code);
  return static_cast<int>(*id);
}

int hetmem_memattr_find(const hetmem_context* ctx, const char* name) {
  if (ctx == nullptr || name == nullptr) return HETMEM_ERR_INVALID;
  auto id = ctx->registry->find_attribute(name);
  if (!id.ok()) return map_errc(id.error().code);
  return static_cast<int>(*id);
}

int hetmem_memattr_set_value(hetmem_context* ctx, int attr, unsigned node,
                             const char* initiator, double value) {
  if (ctx == nullptr || attr < 0) return HETMEM_ERR_INVALID;
  const topo::Object* object = node_at(ctx, node);
  if (object == nullptr) return HETMEM_ERR_INVALID;
  std::optional<attr::Initiator> query;
  if (initiator != nullptr) {
    auto cpuset = parse_cpuset(initiator);
    if (!cpuset.has_value()) return HETMEM_ERR_PARSE;
    query = attr::Initiator::from_cpuset(*cpuset);
  }
  auto status = ctx->registry->set_value(static_cast<attr::AttrId>(attr),
                                         *object, query, value);
  if (!status.ok()) return map_errc(status.error().code);
  return HETMEM_SUCCESS;
}

static int64_t alloc_impl(hetmem_context* ctx, uint64_t bytes, int attr,
                          const char* initiator, int policy, const char* label,
                          hetmem::tenant::TenantHandle tenant) {
  if (ctx == nullptr || attr < 0) return HETMEM_ERR_INVALID;
  auto cpuset = parse_cpuset(initiator);
  if (!cpuset.has_value()) return HETMEM_ERR_PARSE;

  alloc::AllocRequest request;
  request.bytes = bytes;
  request.attribute = static_cast<attr::AttrId>(attr);
  request.initiator = *cpuset;
  request.label = label != nullptr ? label : "capi";
  request.tenant = std::move(tenant);
  switch (policy) {
    case HETMEM_POLICY_STRICT: request.policy = alloc::Policy::kStrict; break;
    case HETMEM_POLICY_RANKED_FALLBACK:
      request.policy = alloc::Policy::kRankedFallback;
      break;
    case HETMEM_POLICY_PREFERRED:
      request.policy = alloc::Policy::kPreferredThenDefault;
      break;
    default:
      return HETMEM_ERR_INVALID;
  }
  auto allocation = ctx->allocator->mem_alloc(request);
  if (!allocation.ok()) {
    if (allocation.error().code == support::Errc::kBackpressure) {
      ctx->last_retry_after_ms.store(allocation.error().retry_after_ms,
                                     std::memory_order_relaxed);
    }
    return map_errc(allocation.error().code);
  }
  return static_cast<int64_t>(allocation->buffer.packed());
}

int64_t hetmem_alloc(hetmem_context* ctx, uint64_t bytes, int attr,
                     const char* initiator, int policy, const char* label) {
  return alloc_impl(ctx, bytes, attr, initiator, policy, label, nullptr);
}

/// A handle is BufferId::packed(): the generation above the slot index.
static sim::BufferId buffer_id(int64_t handle) {
  return sim::BufferId::unpack(static_cast<std::uint64_t>(handle));
}

int hetmem_free(hetmem_context* ctx, int64_t buffer) {
  if (ctx == nullptr || buffer < 0) return HETMEM_ERR_INVALID;
  auto status = ctx->allocator->mem_free(buffer_id(buffer));
  return status.ok() ? HETMEM_SUCCESS : map_errc(status.error().code);
}

int hetmem_buffer_node(const hetmem_context* ctx, int64_t buffer) {
  if (ctx == nullptr || buffer < 0) return HETMEM_ERR_INVALID;
  // Out-of-range, stale (slot reused) and freed handles all read as freed.
  const sim::BufferResidency residency =
      ctx->machine->residency(buffer_id(buffer));
  if (residency.freed) return HETMEM_ERR_INVALID;
  return static_cast<int>(residency.node);
}

int hetmem_migrate(hetmem_context* ctx, int64_t buffer, unsigned node,
                   double* cost_ns) {
  if (ctx == nullptr || buffer < 0) return HETMEM_ERR_INVALID;
  auto cost = ctx->allocator->migrate(buffer_id(buffer), node);
  if (!cost.ok()) return map_errc(cost.error().code);
  if (cost_ns != nullptr) *cost_ns = *cost;
  return HETMEM_SUCCESS;
}

uint64_t hetmem_node_available(const hetmem_context* ctx, unsigned node) {
  if (ctx == nullptr ||
      node >= ctx->machine->topology().numa_nodes().size()) {
    return 0;
  }
  return ctx->machine->available_bytes(node);
}

int64_t hetmem_tenant_register(hetmem_context* ctx, const char* name,
                               int priority, uint64_t total_cap_bytes,
                               double share_weight) {
  if (ctx == nullptr || name == nullptr || priority < 0 ||
      priority > HETMEM_PRIORITY_BEST_EFFORT) {
    return HETMEM_ERR_INVALID;
  }
  tenant::TenantQuota quota;
  if (total_cap_bytes != 0) quota.total_cap_bytes = total_cap_bytes;
  quota.share_weight = share_weight;
  auto handle = ctx->tenants->register_tenant(
      name, static_cast<tenant::Priority>(priority), quota);
  if (!handle.ok()) return map_errc(handle.error().code);
  return static_cast<int64_t>((*handle)->id());
}

int hetmem_tenant_deregister(hetmem_context* ctx, int64_t tenant) {
  if (ctx == nullptr || tenant <= 0) return HETMEM_ERR_INVALID;
  tenant::TenantHandle handle =
      ctx->tenants->find(static_cast<tenant::TenantId>(tenant));
  if (handle == nullptr) return HETMEM_ERR_NOENT;
  auto status = ctx->tenants->deregister_tenant(handle);
  return status.ok() ? HETMEM_SUCCESS : map_errc(status.error().code);
}

int64_t hetmem_alloc_tenant(hetmem_context* ctx, uint64_t bytes, int attr,
                            const char* initiator, int policy,
                            const char* label, int64_t tenant) {
  if (ctx == nullptr || tenant <= 0) return HETMEM_ERR_INVALID;
  tenant::TenantHandle handle =
      ctx->tenants->find(static_cast<tenant::TenantId>(tenant));
  if (handle == nullptr) return HETMEM_ERR_NOENT;
  return alloc_impl(ctx, bytes, attr, initiator, policy, label,
                    std::move(handle));
}

uint64_t hetmem_tenant_used_bytes(const hetmem_context* ctx, int64_t tenant) {
  if (ctx == nullptr || tenant <= 0) return 0;
  tenant::TenantHandle handle =
      ctx->tenants->find(static_cast<tenant::TenantId>(tenant));
  return handle == nullptr ? 0 : handle->used_bytes();
}

uint64_t hetmem_backpressure_rejections(const hetmem_context* ctx,
                                        int reason) {
  if (ctx == nullptr) return 0;
  const alloc::AllocatorStats stats = ctx->allocator->stats();
  switch (reason) {
    case HETMEM_BACKPRESSURE_TOTAL: return stats.backpressure_rejections;
    case HETMEM_BACKPRESSURE_HEALTH: return stats.backpressure_health;
    case HETMEM_BACKPRESSURE_QUOTA: return stats.backpressure_quota;
    case HETMEM_BACKPRESSURE_SHED: return stats.backpressure_shed;
    default: return 0;
  }
}

uint64_t hetmem_last_retry_after_ms(const hetmem_context* ctx) {
  return ctx == nullptr
             ? 0
             : ctx->last_retry_after_ms.load(std::memory_order_relaxed);
}

double hetmem_power_draw_watts(const hetmem_context* ctx, unsigned node) {
  if (node_at(ctx, node) == nullptr) return HETMEM_ERR_INVALID;
  return ctx->machine->power_draw_watts(node);
}

int hetmem_set_power_cap_watts(hetmem_context* ctx, double watts) {
  if (ctx == nullptr || watts < 0.0) return HETMEM_ERR_INVALID;
  ctx->machine->set_power_cap_watts(watts);
  return HETMEM_SUCCESS;
}

double hetmem_power_cap_watts(const hetmem_context* ctx) {
  if (ctx == nullptr) return HETMEM_ERR_INVALID;
  return ctx->machine->power_cap_watts();
}

uint64_t hetmem_throttle_events(const hetmem_context* ctx, unsigned node) {
  if (node_at(ctx, node) == nullptr) return 0;
  return ctx->machine->node_telemetry(node).thermal_throttle_events;
}

int hetmem_snapshot_save(const hetmem_context* ctx, const char* path) {
  if (ctx == nullptr || path == nullptr) return HETMEM_ERR_INVALID;
  recover::CaptureSources sources;
  sources.machine = ctx->machine.get();
  sources.allocator = ctx->allocator.get();
  sources.tenants = ctx->tenants.get();
  sources.supervisor = ctx->supervisor.get();
  sources.machine_preset = ctx->preset_name;
  sources.probed = ctx->probed;
  const support::Status saved =
      recover::save_atomic(recover::capture(sources), path);
  return saved.ok() ? HETMEM_SUCCESS : map_errc(saved.error().code);
}

hetmem_context* hetmem_snapshot_restore(const char* path) {
  if (path == nullptr) return nullptr;
  auto snapshot = recover::load(path);
  if (!snapshot.ok()) return nullptr;
  std::unique_ptr<hetmem_context> ctx(
      create_context(snapshot->machine_preset.c_str(), snapshot->probed));
  if (ctx == nullptr) return nullptr;
  recover::RestoreTargets targets;
  targets.machine = ctx->machine.get();
  targets.allocator = ctx->allocator.get();
  targets.tenants = ctx->tenants.get();
  targets.supervisor = ctx->supervisor.get();
  if (!recover::restore(*snapshot, targets).ok()) return nullptr;
  return ctx.release();
}

int hetmem_breaker_state(const hetmem_context* ctx, const char* breaker) {
  if (ctx == nullptr || breaker == nullptr) return HETMEM_ERR_INVALID;
  const recover::CircuitBreaker* found = ctx->supervisor->breaker(breaker);
  if (found == nullptr) return HETMEM_ERR_NOENT;
  return static_cast<int>(found->state());
}

}  // extern "C"
