// Multi-tenant overload stress harness: BENCH_tenants.json.
//
// Sixteen mixed-priority tenants (3 critical, 5 normal, 8 best-effort — one
// of them a noisy neighbor with a huge appetite and a hard total cap) share
// one xeon_clx_1lm machine through the tenant-aware admission path
// (docs/TENANCY.md). Everything is deterministic: fixed chunk schedules,
// modeled (perf-model) throughput instead of wall time, and a seeded
// Backoff for the retry-convergence gate — the same binary produces the
// same JSON every run.
//
// Gates (--check exits 1 when any fails):
//   isolation   every critical tenant's modeled throughput under full
//               contention stays >= 90% of its isolated-run throughput;
//   fairness    every tenant holds >= 90% of min(its demand, its weighted
//               fair share of the machine) — the noisy neighbor cannot
//               starve anyone, and its own cap holds;
//   degradation under real memory pressure best-effort requests are shed
//               with machine-readable retry-after hints that converge under
//               jittered backoff while critical requests keep placing;
//   arbitration the GlobalArbiter's migration slices order by priority.
//
// Usage: stress_tenants [--out FILE] [--check]
#include <algorithm>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "common.hpp"
#include "hetmem/simmem/perf_model.hpp"
#include "hetmem/runtime/engine.hpp"
#include "hetmem/support/backoff.hpp"
#include "hetmem/tenant/arbiter.hpp"
#include "hetmem/tenant/tenant.hpp"

namespace {

using namespace hetmem;
using support::kGiB;

constexpr std::uint64_t kChunk = kGiB;

struct TenantSpec {
  std::string name;
  tenant::Priority priority = tenant::Priority::kNormal;
  double share_weight = 1.0;
  std::uint64_t total_cap = UINT64_MAX;   // UINT64_MAX = unlimited
  std::uint64_t dram_cap = UINT64_MAX;
  std::uint64_t demand_bytes = 0;
  std::uint64_t chunk_bytes = kChunk;
  unsigned package = 0;  // which socket's cpuset anchors its requests
};

// 3 critical + 5 normal + 8 best-effort; be.0 is the noisy neighbor. The
// schedule is sized so that critical demand always fits the DRAM left over
// by the others' DRAM tier caps — the gates measure policy, not luck.
std::vector<TenantSpec> make_specs() {
  std::vector<TenantSpec> specs;
  for (unsigned i = 0; i < 3; ++i) {
    specs.push_back({"crit." + std::to_string(i), tenant::Priority::kCritical,
                     4.0, UINT64_MAX, UINT64_MAX, 64 * kGiB, kChunk, i % 2});
  }
  for (unsigned i = 0; i < 5; ++i) {
    specs.push_back({"norm." + std::to_string(i), tenant::Priority::kNormal,
                     2.0, UINT64_MAX, 8 * kGiB, 40 * kGiB, kChunk, i % 2});
  }
  for (unsigned i = 0; i < 8; ++i) {
    TenantSpec spec{"be." + std::to_string(i), tenant::Priority::kBestEffort,
                    1.0, UINT64_MAX, 4 * kGiB, 30 * kGiB, kChunk, i % 2};
    if (i == 0) {
      // Noisy neighbor: wants 600 GiB, capped at 512 GiB, 4 GiB bites.
      spec.demand_bytes = 600 * kGiB;
      spec.total_cap = 512 * kGiB;
      spec.chunk_bytes = 4 * kGiB;
    }
    specs.push_back(std::move(spec));
  }
  return specs;
}

struct Testbed {
  Testbed()
      : machine(topo::xeon_clx_1lm()),
        registry(machine.topology()),
        allocator(machine, registry) {
    hmat::GenerateOptions options;
    options.local_only = false;
    (void)hmat::load_into(registry, hmat::generate(machine.topology(), options));
    allocator.set_trace_enabled(false);
    allocator.set_tenant_registry(&tenants);
  }

  support::Bitmap initiator(unsigned package) const {
    // Node 0 is socket 0's DRAM, node 1 socket 1's.
    return machine.topology().numa_node(package)->cpuset();
  }

  sim::SimMachine machine;
  attr::MemAttrRegistry registry;
  alloc::HeterogeneousAllocator allocator;
  tenant::TenantRegistry tenants;
};

struct TenantRun {
  TenantSpec spec;
  tenant::TenantHandle handle;
  std::uint64_t held_bytes = 0;
  std::uint64_t refused = 0;
  // Modeled service time: sum over placed chunks of bytes / effective
  // read bandwidth on the landing node. Throughput = held / service_time.
  double service_seconds = 0.0;
};

alloc::AllocRequest chunk_request(const Testbed& bed, const TenantRun& run) {
  alloc::AllocRequest request;
  request.bytes = run.spec.chunk_bytes;
  request.attribute = attr::kLatency;
  request.initiator = bed.initiator(run.spec.package);
  request.backing_bytes = 64;
  request.label = run.spec.name;
  request.tenant = run.handle;
  return request;
}

// One admission attempt; on success the modeled cost of reading the chunk
// once from its landing node is charged into the tenant's service time.
bool place_chunk(Testbed& bed, TenantRun& run) {
  auto allocation = bed.allocator.mem_alloc(chunk_request(bed, run));
  if (!allocation.ok()) {
    ++run.refused;
    return false;
  }
  const bool local = bed.initiator(run.spec.package)
                         .is_subset_of(bed.machine.topology()
                                           .numa_node(allocation->node)
                                           ->cpuset());
  const sim::EffectiveNodePerf perf = bed.machine.perf_model().effective(
      allocation->node, run.spec.chunk_bytes, local);
  run.held_bytes += run.spec.chunk_bytes;
  run.service_seconds +=
      static_cast<double>(run.spec.chunk_bytes) / perf.read_bw;
  return true;
}

double throughput_gbps(const TenantRun& run) {
  return run.service_seconds > 0.0
             ? static_cast<double>(run.held_bytes) / run.service_seconds / 1e9
             : 0.0;
}

tenant::TenantQuota quota_for(const TenantSpec& spec) {
  tenant::TenantQuota quota;
  quota.total_cap_bytes = spec.total_cap;
  quota.tier_cap_bytes[tenant::tier_index(topo::MemoryKind::kDRAM)] =
      spec.dram_cap;
  quota.share_weight = spec.share_weight;
  return quota;
}

// A critical tenant alone on a fresh machine: the isolation baseline.
double isolated_throughput(const TenantSpec& spec) {
  Testbed bed;
  TenantRun run;
  run.spec = spec;
  auto handle =
      bed.tenants.register_tenant(spec.name, spec.priority, quota_for(spec));
  if (!handle.ok()) return 0.0;
  run.handle = *handle;
  for (std::uint64_t placed = 0; placed < spec.demand_bytes;
       placed += spec.chunk_bytes) {
    if (!place_chunk(bed, run)) break;
  }
  return throughput_gbps(run);
}

}  // namespace

int main(int argc, char** argv) {
  std::string out_path = "BENCH_tenants.json";
  bool check = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--out" && i + 1 < argc) {
      out_path = argv[++i];
    } else if (arg == "--check") {
      check = true;
    } else {
      std::cerr << "usage: stress_tenants [--out FILE] [--check]\n";
      return 2;
    }
  }

  // --- Phase A: isolated criticals (the 90% baseline) --------------------
  const std::vector<TenantSpec> specs = make_specs();
  std::vector<double> isolated;
  for (const TenantSpec& spec : specs) {
    if (spec.priority == tenant::Priority::kCritical) {
      isolated.push_back(isolated_throughput(spec));
    }
  }

  // --- Phase B: all sixteen contend, round-robin -------------------------
  Testbed bed;
  std::vector<TenantRun> runs;
  for (const TenantSpec& spec : specs) {
    TenantRun run;
    run.spec = spec;
    auto handle =
        bed.tenants.register_tenant(spec.name, spec.priority, quota_for(spec));
    if (!handle.ok()) {
      std::cerr << "register " << spec.name << ": "
                << handle.error().to_string() << "\n";
      return 2;
    }
    run.handle = *handle;
    runs.push_back(std::move(run));
  }
  bool demand_left = true;
  while (demand_left) {
    demand_left = false;
    for (TenantRun& run : runs) {
      if (run.held_bytes + run.refused * run.spec.chunk_bytes >=
          run.spec.demand_bytes) {
        continue;
      }
      (void)place_chunk(bed, run);
      demand_left = true;
    }
  }

  // Gate: isolation. Modeled throughput under contention per critical
  // tenant vs its isolated baseline.
  bool isolation_ok = true;
  std::vector<double> contended_crit;
  std::size_t crit_index = 0;
  for (const TenantRun& run : runs) {
    if (run.spec.priority != tenant::Priority::kCritical) continue;
    const double contended = throughput_gbps(run);
    contended_crit.push_back(contended);
    if (contended < 0.9 * isolated[crit_index]) isolation_ok = false;
    ++crit_index;
  }

  // Gate: fairness. held >= 90% of min(demand, weighted share of machine).
  std::uint64_t machine_bytes = 0;
  for (const topo::Object* node : bed.machine.topology().numa_nodes()) {
    machine_bytes += node->capacity_bytes();
  }
  bool fairness_ok = true;
  std::vector<std::uint64_t> fair_floors;
  for (const TenantRun& run : runs) {
    const double share = bed.tenants.share_fraction(run.handle);
    const auto fair_bytes = static_cast<std::uint64_t>(
        share * static_cast<double>(machine_bytes));
    const std::uint64_t floor =
        std::min(run.spec.demand_bytes, fair_bytes) * 9 / 10;
    fair_floors.push_back(floor);
    if (run.held_bytes < floor) fairness_ok = false;
  }
  // The noisy neighbor's own cap must have held (its refusals are quota
  // rejections, nobody else's are).
  bool caps_ok = runs[8].handle->stats().quota_rejections > 0 &&
                 runs[8].held_bytes <= 512 * kGiB;
  for (std::size_t i = 0; i < runs.size(); ++i) {
    if (i != 8 && runs[i].handle->stats().quota_rejections != 0) {
      caps_ok = false;
    }
  }

  // --- Phase C: real pressure — shed, hint, converge ---------------------
  // Untenanted filler drives the healthy free fraction under the shed
  // threshold (0.12), then a best-effort request must be refused with a
  // structured hint while a critical one still places. Freeing filler
  // between retries models the machine recovering; the jittered backoff
  // schedule must land the request in a handful of attempts.
  std::vector<sim::BufferId> filler;
  {
    alloc::AllocRequest fill;
    fill.bytes = 32 * kGiB;
    fill.attribute = attr::kCapacity;
    fill.initiator = bed.initiator(0);
    fill.backing_bytes = 64;
    fill.label = "pressure.filler";
    while (bed.allocator.healthy_free_fraction() > 0.10) {
      bool placed = false;
      for (unsigned package = 0; package < 2 && !placed; ++package) {
        fill.initiator = bed.initiator((filler.size() + package) % 2);
        if (auto chunk = bed.allocator.mem_alloc(fill); chunk.ok()) {
          filler.push_back(chunk->buffer);
          placed = true;
        }
      }
      if (!placed) break;  // both sockets out of 32 GiB holes
    }
  }
  const auto level = bed.allocator.overload_level();

  TenantRun& best = runs[9];   // be.1: a well-behaved best-effort tenant
  TenantRun& crit = runs[0];
  auto shed = bed.allocator.mem_alloc(chunk_request(bed, best));
  const bool shed_refused = !shed.ok() &&
                            shed.error().code == support::Errc::kBackpressure;
  const std::uint64_t hint =
      shed_refused ? shed.error().retry_after_ms : 0;
  const bool hint_ok =
      shed_refused && hint > 0 &&
      support::parse_retry_after_ms(shed.error().message) == hint;

  bool critical_places_under_pressure = false;
  if (auto placed = bed.allocator.mem_alloc(chunk_request(bed, crit));
      placed.ok()) {
    critical_places_under_pressure = true;
    (void)bed.allocator.mem_free(placed->buffer);
  }

  // Convergence: jittered backoff around the hint, machine recovering one
  // filler chunk per attempt.
  support::BackoffOptions backoff_options;
  backoff_options.seed = 9;  // any fixed seed; determinism is the point
  support::Backoff backoff(backoff_options);
  std::uint64_t waited_ms = 0;
  unsigned attempts = 0;
  bool converged = false;
  std::uint64_t next_hint = hint;
  while (shed_refused && attempts < 8) {
    waited_ms += backoff.next_delay_ms(next_hint);
    ++attempts;
    if (!filler.empty()) {
      (void)bed.allocator.mem_free(filler.back());
      filler.pop_back();
    }
    auto retry = bed.allocator.mem_alloc(chunk_request(bed, best));
    if (retry.ok()) {
      converged = true;
      (void)bed.allocator.mem_free(retry->buffer);
      break;
    }
    next_hint = retry.error().retry_after_ms;
  }
  const bool degradation_ok = shed_refused && hint_ok &&
                              critical_places_under_pressure && converged &&
                              waited_ms < 2000;

  // --- Arbitration: migration slices order by priority --------------------
  tenant::GlobalArbiter arbiter(bed.tenants);
  runtime::EngineOptions engine_options;
  engine_options.epoch_budget_bytes = kGiB;
  runtime::MigrationEngine engine(bed.allocator, bed.initiator(0),
                                  engine_options);
  engine.set_arbiter(&arbiter);
  arbiter.begin_epoch(1, engine_options.epoch_budget_bytes);
  const std::uint64_t crit_slice = arbiter.slice_remaining(crit.handle->id());
  const std::uint64_t best_slice = arbiter.slice_remaining(best.handle->id());
  const bool arbitration_ok = crit_slice > best_slice && best_slice > 0;

  const alloc::AllocatorStats stats = bed.allocator.stats();
  const bool counters_ok =
      stats.backpressure_rejections ==
          stats.backpressure_health + stats.backpressure_quota +
              stats.backpressure_shed &&
      stats.backpressure_shed >= 1 && stats.backpressure_quota >= 1;

  // --- Report -------------------------------------------------------------
  std::ofstream out(out_path);
  if (!out) {
    std::cerr << "cannot open " << out_path << " for writing\n";
    return 2;
  }
  bench::JsonWriter json(out);
  json.begin_object();
  json.key("schema").value("hetmem.bench.tenants/1");
  json.key("fixture").value("xeon_clx_1lm");
  json.key("tenants").begin_array();
  crit_index = 0;
  for (std::size_t i = 0; i < runs.size(); ++i) {
    const TenantRun& run = runs[i];
    const tenant::TenantStats tstats = run.handle->stats();
    json.begin_object();
    json.key("name").value(run.spec.name);
    json.key("priority").value(tenant::priority_name(run.spec.priority));
    json.key("share_weight").value(run.spec.share_weight);
    json.key("demand_bytes").value(run.spec.demand_bytes);
    json.key("held_bytes").value(run.held_bytes);
    json.key("fair_floor_bytes").value(fair_floors[i]);
    json.key("modeled_gbps").value(throughput_gbps(run));
    if (run.spec.priority == tenant::Priority::kCritical) {
      json.key("isolated_gbps").value(isolated[crit_index]);
      ++crit_index;
    }
    json.key("admitted").value(tstats.admitted);
    json.key("spilled").value(tstats.spilled);
    json.key("shed").value(tstats.shed);
    json.key("quota_rejections").value(tstats.quota_rejections);
    json.end_object();
  }
  json.end_array();
  json.key("pressure").begin_object();
  json.key("overload_level").value(tenant::overload_level_name(level));
  json.key("shed_hint_ms").value(hint);
  json.key("backoff_attempts").value(attempts);
  json.key("backoff_waited_ms").value(waited_ms);
  json.end_object();
  json.key("arbiter").begin_object();
  json.key("critical_slice_bytes").value(crit_slice);
  json.key("best_effort_slice_bytes").value(best_slice);
  json.end_object();
  json.key("gates").begin_object();
  json.key("isolation").value(isolation_ok);
  json.key("fairness").value(fairness_ok);
  json.key("caps").value(caps_ok);
  json.key("degradation").value(degradation_ok);
  json.key("arbitration").value(arbitration_ok);
  json.key("counters").value(counters_ok);
  json.end_object();
  json.end_object();
  out << '\n';
  out.close();

  std::cout << "wrote " << out_path << "\n";
  std::cout << "isolation: " << (isolation_ok ? "ok" : "FAIL")
            << ", fairness: " << (fairness_ok ? "ok" : "FAIL")
            << ", caps: " << (caps_ok ? "ok" : "FAIL")
            << ", degradation: " << (degradation_ok ? "ok" : "FAIL")
            << ", arbitration: " << (arbitration_ok ? "ok" : "FAIL")
            << ", counters: " << (counters_ok ? "ok" : "FAIL") << "\n";
  std::cout << "overload level under pressure: "
            << tenant::overload_level_name(level) << ", shed hint " << hint
            << " ms, converged after " << attempts << " attempt(s), "
            << waited_ms << " ms simulated wait\n";

  const bool all_ok = isolation_ok && fairness_ok && caps_ok &&
                      degradation_ok && arbitration_ok && counters_ok;
  if (check && !all_ok) {
    std::cerr << "FAIL: tenant stress gates did not hold\n";
    return 1;
  }
  return 0;
}
