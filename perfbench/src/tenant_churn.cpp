// tenant_churn — the allocation service: ranking-cache hits versus
// invalidation misses, quota charges and refunds, ladder decisions.
//
// Sixteen tenants (3 critical, 5 normal, 8 best-effort) with total and
// DRAM-tier quotas share xeon_clx_1lm. One closed-loop client issues a
// seeded stream of mem_alloc (Latency, Bandwidth and Capacity attributes;
// mixed sizes; initiators on both sockets) and mem_free requests; it asks
// for more than the machine holds, so the degradation ladder reaches spill
// and shed. On a seeded schedule an operator polls the HealthMonitor (the
// machine injects ECC bursts; every transition invalidates the cached
// rankings) and deregisters and re-registers best-effort tenants.
//
// One step is one request, timed individually. There are no phases and no
// epochs: this workload bypasses simmem and runtime, and uses alloc through
// alloc/free where kv_rotation uses it through migrate.
#include <cmath>
#include <string>
#include <vector>

#include "hetmem/health/health.hpp"
#include "hetmem/simmem/perf_model.hpp"
#include "runtime_stack.hpp"

namespace perfbench {

namespace {

constexpr std::uint64_t kGiB = 1ull << 30;
constexpr std::uint64_t kMiB = 1ull << 20;
constexpr unsigned kPrefillRequests = 100000;
constexpr unsigned kRequests = 400000;
/// Share of requests that allocate; above 1/2 so demand outruns the
/// machine and the ladder has to spill and shed.
constexpr double kAllocShare = 0.6;
constexpr double kMinBytesLog2 = 26.0;  // 64 MiB
constexpr double kMaxBytesLog2 = 33.0;  // 8 GiB
constexpr unsigned kPollEvery = 500;
constexpr unsigned kReregisterEvery = 5000;
constexpr double kEccBurstRate = 0.05;

constexpr std::uint64_t kRequestStream = 0x7c;
constexpr std::uint64_t kPrefillStream = 0x7d;
constexpr std::uint64_t kFaultStream = 0x7e;

struct TenantSpec {
  const char* name;
  tenant::Priority priority;
  std::uint64_t total_cap;
  std::uint64_t dram_cap;
  double weight;
};

std::vector<TenantSpec> tenant_specs() {
  static const char* const kNames[16] = {
      "crit.0", "crit.1", "crit.2", "norm.0", "norm.1", "norm.2",
      "norm.3", "norm.4", "be.0",   "be.1",   "be.2",   "be.3",
      "be.4",   "be.5",   "be.6",   "be.7"};
  std::vector<TenantSpec> specs;
  for (unsigned i = 0; i < 16; ++i) {
    if (i < 3) {
      specs.push_back({kNames[i], tenant::Priority::kCritical, 256 * kGiB,
                       UINT64_MAX, 4.0});
    } else if (i < 8) {
      specs.push_back({kNames[i], tenant::Priority::kNormal, 160 * kGiB,
                       24 * kGiB, 2.0});
    } else {
      specs.push_back({kNames[i], tenant::Priority::kBestEffort, 96 * kGiB,
                       8 * kGiB, 1.0});
    }
  }
  return specs;
}

tenant::TenantQuota quota_of(const TenantSpec& spec) {
  tenant::TenantQuota quota;
  quota.total_cap_bytes = spec.total_cap;
  quota.tier_cap_bytes[tenant::tier_index(topo::MemoryKind::kDRAM)] =
      spec.dram_cap;
  quota.share_weight = spec.weight;
  return quota;
}

struct Request {
  bool alloc = true;
  std::uint8_t tenant = 0;
  std::uint8_t package = 0;
  attr::AttrId attribute = attr::kCapacity;
  std::uint64_t bytes = 0;
  std::uint64_t pick = 0;  // which live buffer a free releases
};

std::vector<Request> generate(std::uint64_t stream_seed, unsigned count) {
  support::Xoshiro256 rng(stream_seed);
  const attr::AttrId attributes[3] = {attr::kLatency, attr::kBandwidth,
                                      attr::kCapacity};
  std::vector<Request> requests(count);
  for (Request& request : requests) {
    request.alloc = rng.next_double() < kAllocShare;
    request.tenant = static_cast<std::uint8_t>(rng.next_below(16));
    request.package = static_cast<std::uint8_t>(rng.next_below(2));
    request.attribute = attributes[rng.next_below(3)];
    const double log2_bytes =
        kMinBytesLog2 + (kMaxBytesLog2 - kMinBytesLog2) * rng.next_double();
    request.bytes = static_cast<std::uint64_t>(std::exp2(log2_bytes)) / kMiB * kMiB;
    request.pick = rng.next();
  }
  return requests;
}

struct Held {
  sim::BufferId buffer;
  std::uint32_t owner = 0;  // index into Client::handles
  std::uint64_t bytes = 0;
};

/// The closed-loop client: its tenants, what it holds, and what it saw.
struct Client {
  Testbed* bed = nullptr;
  std::vector<TenantSpec> specs;
  std::vector<std::uint32_t> current;        // spec -> index into handles
  std::vector<tenant::TenantHandle> handles;  // every handle ever registered
  std::vector<Held> held;
  std::uint64_t requests = 0;
  std::uint64_t refused = 0;  // backpressure or out of capacity
  std::uint64_t errors = 0;   // any other failure: an operation failed
  std::uint64_t admitted = 0;
  double modeled_seconds = 0.0;

  bool register_spec(std::size_t spec, Tracer* tracer) {
    Scope scope(tracer, "tenant.register", Layer::kTenant);
    auto handle = bed->tenants->register_tenant(
        specs[spec].name, specs[spec].priority, quota_of(specs[spec]));
    if (!handle.ok()) return false;
    current[spec] = static_cast<std::uint32_t>(handles.size());
    handles.push_back(*handle);
    return true;
  }

  /// Serves one request (a free while nothing is held allocates instead);
  /// returns the host time of the library call.
  std::int64_t serve(const Request& request, Tracer* tracer) {
    ++requests;
    if (!request.alloc && !held.empty()) {
      const std::size_t index = request.pick % held.size();
      const sim::BufferId buffer = held[index].buffer;
      std::int64_t t0 = 0;
      std::int64_t t1 = 0;
      support::Status freed;
      {
        Scope scope(tracer, "alloc.mem_free", Layer::kAlloc);
        t0 = now_ns();
        freed = bed->allocator->mem_free(buffer);
        t1 = now_ns();
      }
      if (!freed.ok()) ++errors;
      held[index] = held.back();
      held.pop_back();
      return t1 - t0;
    }
    alloc::AllocRequest alloc_request;
    alloc_request.bytes = request.bytes;
    alloc_request.attribute = request.attribute;
    alloc_request.initiator = bed->initiator(request.package);
    alloc_request.backing_bytes = 64;
    alloc_request.label = specs[request.tenant].name;
    alloc_request.tenant = handles[current[request.tenant]];
    alloc_request.admission_control = true;
    std::int64_t t0 = 0;
    std::int64_t t1 = 0;
    support::Result<alloc::Allocation> placed = support::make_error(
        support::Errc::kInternal, "not served");
    {
      Scope scope(tracer, "alloc.mem_alloc", Layer::kAlloc);
      t0 = now_ns();
      placed = bed->allocator->mem_alloc(alloc_request);
      t1 = now_ns();
    }
    if (!placed.ok()) {
      const support::Errc code = placed.error().code;
      if (code == support::Errc::kBackpressure ||
          code == support::Errc::kOutOfCapacity) {
        ++refused;
      } else {
        ++errors;
      }
      return t1 - t0;
    }
    held.push_back({placed->buffer, current[request.tenant], request.bytes});
    ++admitted;
    // The stress_tenants service model: each admitted buffer is streamed
    // once at its landing node's effective read bandwidth.
    const sim::SimMachine& machine = *bed->machine;
    const bool local = alloc_request.initiator.is_subset_of(
        machine.topology().numa_node(placed->node)->cpuset());
    modeled_seconds +=
        static_cast<double>(request.bytes) /
        machine.perf_model().effective(placed->node, request.bytes, local).read_bw;
    return t1 - t0;
  }
};

/// End-of-pass conservation checks; returns an error message or empty.
std::string check_conservation(const Client& client) {
  const sim::SimMachine& machine = *client.bed->machine;
  const std::size_t nodes = machine.topology().numa_nodes().size();
  std::vector<std::uint64_t> node_bytes(nodes, 0);
  std::vector<std::uint64_t> tenant_bytes(client.handles.size(), 0);
  for (const Held& held : client.held) {
    node_bytes[machine.info(held.buffer).node] += held.bytes;
    tenant_bytes[held.owner] += held.bytes;
  }
  for (unsigned n = 0; n < nodes; ++n) {
    if (machine.used_bytes(n) != node_bytes[n]) {
      return "tenant_churn: node " + std::to_string(n) + " uses " +
             std::to_string(machine.used_bytes(n)) +
             " bytes but its live buffers sum to " + std::to_string(node_bytes[n]);
    }
  }
  for (std::size_t t = 0; t < client.handles.size(); ++t) {
    if (client.handles[t]->used_bytes() != tenant_bytes[t]) {
      return "tenant_churn: tenant " + client.handles[t]->name() + " (id " +
             std::to_string(client.handles[t]->id()) + ") is charged " +
             std::to_string(client.handles[t]->used_bytes()) +
             " bytes but holds " + std::to_string(tenant_bytes[t]);
    }
  }
  const alloc::AllocatorStats stats = client.bed->allocator->stats();
  if (stats.backpressure_rejections != stats.backpressure_health +
                                           stats.backpressure_quota +
                                           stats.backpressure_shed) {
    return "tenant_churn: backpressure_rejections != health + quota + shed";
  }
  return {};
}

}  // namespace

PassResult tenant_churn_pass(std::uint64_t seed, Tracer* tracer) {
  PassResult pass;
  const std::int64_t setup_start = now_ns();
  Testbed bed;
  pass.error = make_testbed(bed, derive_seed(seed, kFaultStream), tracer,
                            pass.timings);
  if (!pass.error.empty()) return pass;
  health::HealthMonitor monitor(*bed.machine, *bed.registry);

  Client client;
  client.bed = &bed;
  client.specs = tenant_specs();
  client.current.resize(client.specs.size());
  for (std::size_t spec = 0; spec < client.specs.size(); ++spec) {
    if (!client.register_spec(spec, tracer)) {
      pass.error = "tenant_churn: registering " +
                   std::string(client.specs[spec].name) + " failed";
      return pass;
    }
  }
  std::vector<Request> prefill;
  std::vector<Request> requests;
  {
    Scope scope(tracer, "inputs", Layer::kBench);
    prefill = generate(derive_seed(seed, kPrefillStream), kPrefillRequests);
    requests = generate(derive_seed(seed, kRequestStream), kRequests);
  }
  // Prefill: the same request process, untimed, until occupancy is steady.
  {
    Scope scope(tracer, "prefill", Layer::kBench);
    for (const Request& request : prefill) (void)client.serve(request, nullptr);
  }
  if (client.errors != 0) {
    pass.error = "tenant_churn: a prefill request failed";
    return pass;
  }
  bed.faults->configure(fault::site::kMachineEccBurst, {kEccBurstRate, 0, 1, 0.0});
  client.requests = client.refused = client.admitted = 0;
  client.modeled_seconds = 0.0;
  pass.setup_s = static_cast<double>(now_ns() - setup_start) / 1e9;

  const alloc::AllocatorStats alloc_before = bed.allocator->stats();
  bed.registry->reset_ranking_cache_stats();
  std::uint64_t reregistered = 0;
  pass.step_ns.reserve(requests.size());
  const std::int64_t loop_start = now_ns();
  for (std::size_t i = 0; i < requests.size(); ++i) {
    if (tracer != nullptr) tracer->set_step(static_cast<std::int64_t>(i));
    if (i % kPollEvery == kPollEvery - 1) {
      Scope scope(tracer, "health.poll", Layer::kHealth);
      (void)monitor.poll();
    }
    if (i % kReregisterEvery == kReregisterEvery - 1) {
      const std::size_t spec = 8 + reregistered++ % 8;  // best-effort only
      support::Status gone;
      {
        Scope scope(tracer, "tenant.deregister", Layer::kTenant);
        gone = bed.tenants->deregister_tenant(client.handles[client.current[spec]]);
      }
      if (!gone.ok() || !client.register_spec(spec, tracer)) {
        pass.error = "tenant_churn: re-registering a tenant failed";
        return pass;
      }
    }
    pass.step_ns.push_back(static_cast<double>(client.serve(requests[i], tracer)));
  }
  pass.run_s = static_cast<double>(now_ns() - loop_start) / 1e9;
  if (tracer != nullptr) tracer->set_step(-1);

  pass.steps_failed = client.errors;
  if (std::string error = check_conservation(client); !error.empty()) {
    pass.error = error;
    return pass;
  }
  if (client.admitted == 0 || client.modeled_seconds <= 0.0) {
    pass.error = "tenant_churn: no request was admitted";
    return pass;
  }
  pass.sim_ops_per_s =
      static_cast<double>(client.admitted) / client.modeled_seconds;
  pass.ok_frac = 1.0 - static_cast<double>(client.refused + client.errors) /
                           static_cast<double>(client.requests);
  pass.logs["health"] = monitor.render_transition_log();
  pass.counts["health.transitions"] =
      static_cast<double>(monitor.transitions().size());
  pass.counts["tenant.reregistered"] = static_cast<double>(reregistered);
  pass.counts["tenant_churn.live_buffers"] = static_cast<double>(client.held.size());
  collect_alloc(bed, alloc_before, pass);
  return pass;
}

std::string tenant_churn_check(std::uint64_t seed, const PassResult&) {
  auto fingerprint = [](std::uint64_t s) {
    const std::vector<Request> requests =
        generate(derive_seed(s, kRequestStream), kRequests);
    std::uint64_t hash = 0xcbf29ce484222325ull;
    for (const Request& r : requests) {
      hash = fnv1a(&r.bytes, sizeof(r.bytes), hash);
      hash = fnv1a(&r.pick, sizeof(r.pick), hash);
    }
    return hash;
  };
  if (fingerprint(seed) == fingerprint(seed + 1)) {
    return "tenant_churn: seeds " + std::to_string(seed) + " and " +
           std::to_string(seed + 1) + " generate the same request stream";
  }
  return {};
}

}  // namespace perfbench
