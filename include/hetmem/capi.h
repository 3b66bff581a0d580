/* hetmem C API — the hwloc-memattrs-shaped interface (paper Fig. 4).
 *
 * The original implementation of this paper is a C API in hwloc 2.3
 * (hwloc/memattrs.h); most HPC runtimes that would consume it are C or
 * Fortran. This header exposes the same surface over the C++ library:
 * opaque handles, integer ids, and int error returns (0 success, negative
 * HETMEM_ERR_*), mirroring hwloc_memattr_get_best_target() and friends.
 *
 * Object model:
 *   hetmem_context  owns a topology + simulated machine + attribute
 *                   registry + heterogeneous allocator.
 *   nodes           are addressed by NUMA logical index (unsigned).
 *   initiators      are cpusets in Linux list syntax ("0-19,40-59").
 *   attributes      are integer ids; 0..7 are the builtins in the same
 *                   order as the C++ enum (capacity, locality, bandwidth,
 *                   latency, read/write variants).
 */
#ifndef HETMEM_CAPI_H_
#define HETMEM_CAPI_H_

#include <stddef.h>
#include <stdint.h>

#ifdef __cplusplus
extern "C" {
#endif

typedef struct hetmem_context hetmem_context;

/* Error codes (negative returns). */
enum {
  HETMEM_SUCCESS = 0,
  HETMEM_ERR_INVALID = -1,   /* bad argument / unknown handle */
  HETMEM_ERR_NOENT = -2,     /* no such attribute / no value */
  HETMEM_ERR_NOMEM = -3,     /* capacity exhausted */
  HETMEM_ERR_UNSUPPORTED = -4,
  HETMEM_ERR_PARSE = -5,
  HETMEM_ERR_INTERNAL = -6,
  HETMEM_ERR_AGAIN = -7,     /* backpressure / transient: retry later
                              * (see hetmem_last_retry_after_ms) */
};

/* Built-in attribute ids (match hetmem::attr::k*). */
enum {
  HETMEM_ATTR_CAPACITY = 0,
  HETMEM_ATTR_LOCALITY = 1,
  HETMEM_ATTR_BANDWIDTH = 2,
  HETMEM_ATTR_LATENCY = 3,
  HETMEM_ATTR_READ_BANDWIDTH = 4,
  HETMEM_ATTR_WRITE_BANDWIDTH = 5,
  HETMEM_ATTR_READ_LATENCY = 6,
  HETMEM_ATTR_WRITE_LATENCY = 7,
  HETMEM_ATTR_ENERGY_PER_BYTE = 8, /* nJ/byte moved, lower is better */
  HETMEM_ATTR_STATIC_POWER = 9,    /* watts of installed capacity, lower */
};

/* Allocation policies (match hetmem::alloc::Policy). */
enum {
  HETMEM_POLICY_STRICT = 0,
  HETMEM_POLICY_RANKED_FALLBACK = 1,
  HETMEM_POLICY_PREFERRED = 2,
};

/* --- context lifecycle -------------------------------------------------- */

/* Creates a context from a preset platform name (see
 * hetmem_list_presets); attributes are populated from the synthetic
 * firmware HMAT (local+remote). Returns NULL on unknown preset. */
hetmem_context* hetmem_context_create(const char* preset_name);

/* As above but attributes come from benchmarking the simulated machine
 * (slower; includes remote pairs). */
hetmem_context* hetmem_context_create_probed(const char* preset_name);

void hetmem_context_destroy(hetmem_context* ctx);

/* Writes up to `capacity` preset names into `names` (caller-owned array of
 * const char*); returns the total number of presets. */
int hetmem_list_presets(const char** names, size_t capacity);

/* --- topology queries --------------------------------------------------- */

/* Number of NUMA nodes / PUs. Negative on error. */
int hetmem_numa_count(const hetmem_context* ctx);
int hetmem_pu_count(const hetmem_context* ctx);

/* Node capacity in bytes; 0 on error. */
uint64_t hetmem_node_capacity(const hetmem_context* ctx, unsigned node);

/* Writes the node's locality cpuset in list syntax into buf. Returns the
 * needed length (snprintf-style) or negative error. */
int hetmem_node_cpuset(const hetmem_context* ctx, unsigned node, char* buf,
                       size_t buflen);

/* Kind name for debugging only ("DRAM", "HBM", ...) — applications should
 * not branch on this (the whole point of the paper). NULL on error. */
const char* hetmem_node_kind_debug(const hetmem_context* ctx, unsigned node);

/* Nodes local to an initiator cpuset: fills `nodes` (up to capacity),
 * returns the total count or negative error. */
int hetmem_local_nodes(const hetmem_context* ctx, const char* initiator,
                       unsigned* nodes, size_t capacity);

/* --- memory attributes (the paper's Fig. 4 calls) ------------------------ */

/* hwloc_memattr_get_value. For per-initiator attributes, `initiator` must
 * be a cpuset list string; pass NULL for global attributes. */
int hetmem_memattr_get_value(const hetmem_context* ctx, int attr,
                             unsigned node, const char* initiator,
                             double* value);

/* hwloc_memattr_get_best_target: *node and *value receive the winner. */
int hetmem_memattr_get_best_target(const hetmem_context* ctx, int attr,
                                   const char* initiator, unsigned* node,
                                   double* value);

/* hwloc_memattr_get_best_initiator: writes the winning cpuset into buf. */
int hetmem_memattr_get_best_initiator(const hetmem_context* ctx, int attr,
                                      unsigned node, char* buf, size_t buflen,
                                      double* value);

/* Attribute registration / lookup. Returns the id or negative error. */
int hetmem_memattr_register(hetmem_context* ctx, const char* name,
                            int higher_is_better, int need_initiator);
int hetmem_memattr_find(const hetmem_context* ctx, const char* name);
int hetmem_memattr_set_value(hetmem_context* ctx, int attr, unsigned node,
                             const char* initiator, double value);

/* --- the heterogeneous allocator ----------------------------------------- */

/* mem_alloc(bytes, attribute): returns a non-negative buffer handle or a
 * negative error. `policy` is a HETMEM_POLICY_* value. A handle names one
 * buffer: the library reuses a freed buffer's slot, but the new buffer gets
 * a new handle, and free, node and migrate refuse the old one. */
int64_t hetmem_alloc(hetmem_context* ctx, uint64_t bytes, int attr,
                     const char* initiator, int policy, const char* label);

int hetmem_free(hetmem_context* ctx, int64_t buffer);

/* Node currently holding the buffer, or negative error. */
int hetmem_buffer_node(const hetmem_context* ctx, int64_t buffer);

/* Migrates and returns the modeled cost in nanoseconds via *cost_ns. */
int hetmem_migrate(hetmem_context* ctx, int64_t buffer, unsigned node,
                   double* cost_ns);

/* Free/used bytes on a node. */
uint64_t hetmem_node_available(const hetmem_context* ctx, unsigned node);

/* --- multi-tenant service (docs/TENANCY.md) ------------------------------ */

/* Tenant priority classes (match hetmem::tenant::Priority). */
enum {
  HETMEM_PRIORITY_CRITICAL = 0,
  HETMEM_PRIORITY_NORMAL = 1,
  HETMEM_PRIORITY_BEST_EFFORT = 2,
};

/* Backpressure rejection reasons (hetmem_backpressure_rejections). */
enum {
  HETMEM_BACKPRESSURE_TOTAL = 0,  /* sum of the three reasons below */
  HETMEM_BACKPRESSURE_HEALTH = 1, /* every target quarantined/offline */
  HETMEM_BACKPRESSURE_QUOTA = 2,  /* tenant quota cannot absorb the bytes */
  HETMEM_BACKPRESSURE_SHED = 3,   /* degradation ladder shed the request */
};

/* Registers a tenant; returns its id (>= 1) or a negative error.
 * `priority` is a HETMEM_PRIORITY_* value; `total_cap_bytes` caps the
 * tenant's machine-wide usage (0 = unlimited); `share_weight` (> 0) scales
 * its migration-budget share. Duplicate names are HETMEM_ERR_INVALID. */
int64_t hetmem_tenant_register(hetmem_context* ctx, const char* name,
                               int priority, uint64_t total_cap_bytes,
                               double share_weight);

/* Deregisters a tenant. Its live buffers stay valid (and keep refunding the
 * quota as they are freed) but new allocations under the id are refused. */
int hetmem_tenant_deregister(hetmem_context* ctx, int64_t tenant);

/* hetmem_alloc charged against a tenant's quota and admitted through the
 * degradation ladder. On HETMEM_ERR_AGAIN the structured retry hint is
 * readable via hetmem_last_retry_after_ms. */
int64_t hetmem_alloc_tenant(hetmem_context* ctx, uint64_t bytes, int attr,
                            const char* initiator, int policy,
                            const char* label, int64_t tenant);

/* Bytes currently charged to the tenant across all tiers; 0 on error. */
uint64_t hetmem_tenant_used_bytes(const hetmem_context* ctx, int64_t tenant);

/* Allocator backpressure rejections broken down by reason (a
 * HETMEM_BACKPRESSURE_* value). Returns the count, or 0 on error. */
uint64_t hetmem_backpressure_rejections(const hetmem_context* ctx, int reason);

/* retry-after hint (ms) carried by the most recent HETMEM_ERR_AGAIN from
 * hetmem_alloc_tenant; 0 when none was produced yet. Clients should jitter
 * around it (full-jitter exponential backoff) rather than sleeping exactly
 * this long in lockstep. */
uint64_t hetmem_last_retry_after_ms(const hetmem_context* ctx);

/* --- power telemetry and the watt budget (docs/POWER.md) ----------------- */

/* Current estimated draw of `node` in watts (static share of installed
 * capacity + smoothed dynamic draw); negative error as a double (< 0) on a
 * bad context/node. A freshly created context reports the static floor. */
double hetmem_power_draw_watts(const hetmem_context* ctx, unsigned node);

/* Machine-wide watt budget consulted by the power governor. 0 = uncapped
 * (the default). Negative watts are HETMEM_ERR_INVALID. */
int hetmem_set_power_cap_watts(hetmem_context* ctx, double watts);
double hetmem_power_cap_watts(const hetmem_context* ctx);

/* Cumulative thermal power-throttle events reported against `node`
 * (governor escalation or injected machine.power.throttle faults); 0 on
 * error. */
uint64_t hetmem_throttle_events(const hetmem_context* ctx, unsigned node);

/* --- crash resilience: snapshot/restore + breakers (docs/RECOVERY.md) ---- */

/* Circuit-breaker states (match hetmem::recover::BreakerState). */
enum {
  HETMEM_BREAKER_CLOSED = 0,    /* normal service */
  HETMEM_BREAKER_OPEN = 1,      /* tripped; calls short-circuited */
  HETMEM_BREAKER_HALF_OPEN = 2, /* probing for recovery */
};

/* Serializes the context's full mutable state (placements, tenant charges,
 * allocator statistics, telemetry, supervisor state) to `path` in the
 * versioned hetmem-snap/2 text format. The write is atomic: the snapshot is
 * staged at `path`.tmp and renamed, so a crash mid-save leaves any previous
 * snapshot intact. Returns HETMEM_SUCCESS or a negative error. */
int hetmem_snapshot_save(const hetmem_context* ctx, const char* path);

/* Rebuilds a context from a snapshot file: the preset recorded in the
 * snapshot is re-instantiated (including probed attribute discovery when the
 * original context used it) and every buffer slot, tenant, charge, and
 * counter is restored so the new context reports statistics identical to
 * the saved one. Returns NULL on any parse, checksum, or restore failure —
 * a damaged snapshot never yields a partially restored context. */
hetmem_context* hetmem_snapshot_restore(const char* path);

/* State of the named per-subsystem circuit breaker ("migration" or
 * "evacuation"): a HETMEM_BREAKER_* value, HETMEM_ERR_NOENT for an unknown
 * breaker name, HETMEM_ERR_INVALID for a bad context. */
int hetmem_breaker_state(const hetmem_context* ctx, const char* breaker);

#ifdef __cplusplus
} /* extern "C" */
#endif

#endif /* HETMEM_CAPI_H_ */
