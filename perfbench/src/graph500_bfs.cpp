// graph500_bfs — the paper's latency-bound case under the full stack.
//
// Graph500 BFS at declared scale 24 (the paper's 2.15 GB row) on a backing
// scale-16 instance, one simulated rank, with the CSR, parents and frontier
// placed by mem_alloc(..., Latency). One step is one BFS from a seeded
// non-isolated root; every tree is validated (outside the timed steps).
// Per-vertex sim::Array recording and resolve_phase do nearly all the work;
// the five buffers leave the runtime, alloc and recover layers idle.
// Runs like the other workloads but is not listed in BENCHMARK.json: its
// host timings did not repeat within the bounds (README "Noise").
#include <memory>
#include <vector>

#include "hetmem/apps/graph500.hpp"
#include "hetmem/apps/rmat.hpp"
#include "runtime_stack.hpp"

namespace perfbench {

namespace {

/// At least 100 steps per pass, so ten or more lie beyond a pass's p90.
constexpr unsigned kRootsPerPass = 100;
constexpr std::uint64_t kRmatStream = 0x52;
constexpr std::uint64_t kRootStream = 0x53;
constexpr std::uint64_t kFaultStream = 0x54;

apps::Graph500Config graph_config(std::uint64_t seed) {
  apps::Graph500Config config;
  config.scale_declared = 24;
  config.scale_backing = 16;
  // One rank: with two, visited-bitmap claims race and TEPS jitters.
  config.threads = 1;
  config.seed = derive_seed(seed, kRmatStream);
  return config;
}

/// `count` seeded roots with at least one edge (the first is the warm-up).
std::vector<std::uint32_t> pick_roots(const apps::CsrGraph& graph,
                                      std::uint64_t seed, unsigned count) {
  support::Xoshiro256 rng(derive_seed(seed, kRootStream));
  std::vector<std::uint32_t> roots;
  for (unsigned attempts = 0; roots.size() < count && attempts < count * 64;
       ++attempts) {
    const auto root =
        static_cast<std::uint32_t>(rng.next_below(graph.num_vertices));
    if (graph.degree(root) > 0) roots.push_back(root);
  }
  return roots;
}

}  // namespace

PassResult graph500_pass(std::uint64_t seed, Tracer* tracer) {
  PassResult pass;
  const std::int64_t setup_start = now_ns();
  Testbed bed;
  pass.error = make_testbed(bed, derive_seed(seed, kFaultStream), tracer,
                            pass.timings);
  if (!pass.error.empty()) return pass;
  const support::Bitmap initiator = bed.initiator(0);

  std::unique_ptr<apps::Graph500Runner> runner;
  pass.timings["apps.create_s"] = timed(tracer, "apps.create", Layer::kApps, [&] {
    auto created = apps::Graph500Runner::create(
        *bed.machine, bed.allocator.get(), initiator, graph_config(seed),
        apps::Graph500Placement::by_attribute(attr::kLatency));
    if (created.ok()) {
      runner = std::move(created).take();
    } else {
      pass.error = "graph500 create: " + created.error().to_string();
    }
  });
  if (!runner) return pass;

  RuntimeStack stack;
  {
    Scope scope(tracer, "stack.wire", Layer::kBench);
    apps::Graph500Runner* app = runner.get();
    stack.wire(bed, runner->exec(), initiator, runtime::RuntimePolicyOptions{},
               seed, [app] { app->refresh_arrays(); }, tracer);
  }
  const std::vector<std::uint32_t> roots =
      pick_roots(runner->graph(), seed, kRootsPerPass + 1);
  if (roots.size() != kRootsPerPass + 1) {
    pass.error = "graph500: not enough non-isolated roots";
    return pass;
  }
  // Warm-up: one untimed BFS so first-touch and the first epochs are paid
  // in setup, not in the first step.
  begin_step(tracer, -1, "warmup");
  auto warm = runner->bfs_from(roots.front());
  end_step(tracer);
  if (!warm.ok() || !runner->validate_last_tree().ok()) {
    pass.error = "graph500 warm-up BFS failed";
    return pass;
  }
  pass.setup_s = static_cast<double>(now_ns() - setup_start) / 1e9;

  const alloc::AllocatorStats alloc_before = bed.allocator->stats();
  bed.registry->reset_ranking_cache_stats();
  double inverse_teps = 0.0;
  std::uint64_t ok_roots = 0;
  std::uint64_t edges = 0;
  std::int64_t check_ns = 0;
  const std::int64_t loop_start = now_ns();
  for (std::size_t i = 1; i < roots.size(); ++i) {
    begin_step(tracer, static_cast<std::int64_t>(i - 1));
    const std::int64_t t0 = now_ns();
    auto bfs = runner->bfs_from(roots[i]);
    const std::int64_t t1 = now_ns();
    end_step(tracer);
    pass.step_ns.push_back(static_cast<double>(t1 - t0));
    if (!bfs.ok()) {
      ++pass.steps_failed;
      continue;
    }
    inverse_teps += 1.0 / bfs->first;
    edges += bfs->second;
    ++ok_roots;
    const std::int64_t c0 = now_ns();
    const support::Status valid = runner->validate_last_tree();
    check_ns += now_ns() - c0;
    if (!valid.ok()) {
      pass.error = "graph500: BFS tree from root " + std::to_string(roots[i]) +
                   " invalid: " + valid.error().to_string();
      return pass;
    }
  }
  pass.run_s = static_cast<double>(now_ns() - loop_start - check_ns) / 1e9;

  if (ok_roots == 0) {
    pass.error = "graph500: every BFS failed";
    return pass;
  }
  pass.sim_ops_per_s = static_cast<double>(ok_roots) / inverse_teps;
  pass.ok_frac = static_cast<double>(ok_roots) /
                 static_cast<double>(pass.step_ns.size());
  pass.simmem_ops = static_cast<double>(edges);
  pass.counts["apps.edges_traversed"] = static_cast<double>(edges);
  stack.collect(pass);
  collect_alloc(bed, alloc_before, pass);
  return pass;
}

std::string graph500_check(std::uint64_t seed, const PassResult&) {
  // The seed reaches the generator: another seed must give another graph.
  auto fingerprint = [](std::uint64_t s) {
    apps::RmatParams params;
    params.scale = graph_config(s).scale_backing;
    params.seed = graph_config(s).seed;
    const std::vector<apps::Edge> edges = apps::generate_rmat(params);
    return fnv1a(edges.data(), edges.size() * sizeof(apps::Edge));
  };
  if (fingerprint(seed) == fingerprint(seed + 1)) {
    return "graph500: seeds " + std::to_string(seed) + " and " +
           std::to_string(seed + 1) + " generate the same graph";
  }
  return {};
}

}  // namespace perfbench
