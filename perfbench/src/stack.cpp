#include <algorithm>
#include <cstdio>

#include "bench.hpp"
#include "hetmem/hmat/hmat.hpp"
#include "hetmem/power/power.hpp"
#include "hetmem/probe/probe.hpp"
#include "hetmem/topo/presets.hpp"

namespace perfbench {

const char* layer_name(Layer layer) {
  switch (layer) {
    case Layer::kBench: return "bench";
    case Layer::kProbe: return "probe";
    case Layer::kHmat: return "hmat";
    case Layer::kApps: return "apps";
    case Layer::kSimmem: return "simmem";
    case Layer::kRuntime: return "runtime";
    case Layer::kHealth: return "health";
    case Layer::kPower: return "power";
    case Layer::kRecover: return "recover";
    case Layer::kAlloc: return "alloc";
    case Layer::kMemattr: return "memattr";
    case Layer::kTenant: return "tenant";
    case Layer::kCount: break;
  }
  return "?";
}

std::string determinism_fingerprint(const PassResult& pass) {
  std::string out;
  char line[128];
  std::snprintf(line, sizeof(line), "sim_ops_per_s %a\nok_frac %a\nsteps %zu\n",
                pass.sim_ops_per_s, pass.ok_frac, pass.step_ns.size());
  out += line;
  for (const auto& [name, value] : pass.counts) {
    std::snprintf(line, sizeof(line), " %a\n", value);
    out += name + line;
  }
  for (const auto& [name, text] : pass.logs) {
    std::snprintf(line, sizeof(line), " %016llx %zu\n",
                  static_cast<unsigned long long>(fnv1a(text.data(), text.size())),
                  text.size());
    out += name + line;
  }
  return out;
}

support::Bitmap Testbed::initiator(unsigned package) const {
  return machine->topology().numa_node(package)->cpuset();
}

std::string make_testbed(Testbed& bed, std::uint64_t fault_seed, Tracer* tracer,
                         std::map<std::string, double>& timings) {
  bed.machine = std::make_unique<sim::SimMachine>(topo::xeon_clx_1lm());
  bed.machine->set_llc_bytes(static_cast<std::uint64_t>(27.5 * 1024 * 1024));
  bed.registry = std::make_unique<attr::MemAttrRegistry>(bed.machine->topology());

  support::Status status;
  timings["hmat.load_s"] = timed(tracer, "hmat.load", Layer::kHmat, [&] {
    auto loaded = hmat::load_into(*bed.registry,
                                  hmat::generate(bed.machine->topology()));
    if (!loaded.ok()) status = loaded.error();
  });
  if (!status.ok()) return "hmat: " + status.error().to_string();

  timings["probe.discover_s"] =
      timed(tracer, "probe.discover", Layer::kProbe, [&] {
        probe::ProbeOptions options;  // the library's default fidelity
        options.threads = 2;  // at most two worker threads per workload
        auto report = probe::discover(*bed.machine, options);
        if (!report.ok()) {
          status = report.error();
          return;
        }
        status = probe::feed_registry(*bed.registry, *report);
      });
  if (!status.ok()) return "probe: " + status.error().to_string();

  (void)timed(tracer, "power.feed", Layer::kPower, [&] {
    status = power::feed_registry(*bed.registry, *bed.machine);
  });
  if (!status.ok()) return "power: " + status.error().to_string();

  bed.allocator = std::make_unique<alloc::HeterogeneousAllocator>(*bed.machine,
                                                                  *bed.registry);
  // The allocator's event trace is a per-call mutex + vector append; the
  // service workloads run with it off, as the tenant stress harness does.
  bed.allocator->set_trace_enabled(false);
  bed.tenants = std::make_unique<tenant::TenantRegistry>();
  bed.allocator->set_tenant_registry(bed.tenants.get());
  bed.faults = std::make_unique<fault::FaultInjector>(fault_seed);
  bed.machine->set_fault_injector(bed.faults.get());
  return {};
}

void collect_alloc(const Testbed& bed, const alloc::AllocatorStats& before,
                   PassResult& pass) {
  const alloc::AllocatorStats after = bed.allocator->stats();
  auto delta = [](std::uint64_t a, std::uint64_t b) {
    return static_cast<double>(a - b);
  };
  auto& c = pass.counts;
  c["alloc.admitted"] = delta(after.allocations, before.allocations);
  c["alloc.fallbacks"] = delta(after.fallbacks, before.fallbacks);
  c["alloc.tenant_spills"] = delta(after.tenant_spills, before.tenant_spills);
  c["alloc.backpressure_quota"] =
      delta(after.backpressure_quota, before.backpressure_quota);
  c["alloc.backpressure_shed"] =
      delta(after.backpressure_shed, before.backpressure_shed);
  c["alloc.backpressure_health"] =
      delta(after.backpressure_health, before.backpressure_health);
  c["alloc.transient_retries"] =
      delta(after.transient_retries, before.transient_retries);
  c["alloc.migrations"] = delta(after.migrations, before.migrations);
  const attr::RankingCacheStats cache = bed.registry->ranking_cache_stats();
  c["memattr.cache_hits"] = static_cast<double>(cache.hits);
  c["memattr.cache_misses"] = static_cast<double>(cache.misses);
  c["memattr.cache_hit_ratio"] = cache.hit_rate();
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double window_quantile(std::vector<double> values, double q) {
  const std::size_t n = values.size();
  if (n < 200) return quantile(std::move(values), q);
  std::sort(values.begin(), values.end());
  const double center = q * static_cast<double>(n - 1);
  const double half = 0.005 * static_cast<double>(n);
  const auto lo = static_cast<std::size_t>(std::max(0.0, center - half));
  const auto hi = std::min(n - 1, static_cast<std::size_t>(center + half));
  double sum = 0.0;
  for (std::size_t i = lo; i <= hi; ++i) sum += values[i];
  return sum / static_cast<double>(hi - lo + 1);
}

}  // namespace perfbench
