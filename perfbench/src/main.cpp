// perfbench: runs one workload for a time budget and prints its
// metrics as the last line of stdout (one JSON object).
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--trace-dir DIR]
//
// A run repeats *passes* until S seconds have elapsed (at least three): each
// pass builds a fresh stack from the seed, sets it up, and runs the
// workload's fixed steps, timing each step. Every pass of one seed must
// reproduce the first exactly (sim metrics, per-layer counts, logs).
//
// --trace 0 reports the end-to-end metrics: the fastest pass's set-up time,
// loop time and step p50/p90 (every pass has at least 100 steps, so ten or
// more lie beyond its p90), peak RSS after the first pass, and the modeled
// sim_ops_per_s and ok_frac of the seed.
//
// --trace 1 additionally reruns one pass with spans on, checks that its
// logs are byte-identical to the untraced pass, writes the spans and a
// per-layer summary under --trace-dir, and reports the per-layer metrics.
//
// Any failed output check exits 1 without printing metrics.
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "bench.hpp"

namespace perfbench {
namespace {

constexpr unsigned kMinPasses = 3;
constexpr unsigned kMaxPasses = 512;

const Workload kWorkloads[] = {
    {"graph500_bfs", &graph500_pass, &graph500_check},
    {"kv_rotation", &kv_rotation_pass, &kv_rotation_check},
    {"tenant_churn", &tenant_churn_pass, &tenant_churn_check},
};

struct MetricDef {
  std::string name;
  const char* unit;
};

/// The per-layer metrics of a traced run, in report order. BENCHMARK.json's
/// per_layer list names exactly these; a layer a workload bypasses reads 0.
const MetricDef kLayerMetrics[] = {
    {"probe.discover_s", "s"},
    {"hmat.load_s", "s"},
    {"apps.create_s", "s"},
    {"apps.refresh_s", "s"},
    {"simmem.phase_s", "s"},
    {"simmem.phase_p50_us", "us"},
    {"simmem.phases", "count"},
    {"simmem.ns_per_op", "ns"},
    {"runtime.sample_s", "s"},
    {"runtime.engine_s", "s"},
    {"runtime.epochs", "count"},
    {"runtime.considered", "count"},
    {"runtime.accepted", "count"},
    {"runtime.evicted", "count"},
    {"runtime.rejected", "count"},
    {"runtime.deferred", "count"},
    {"runtime.failed", "count"},
    {"runtime.useful_ratio", "ratio"},
    {"runtime.migrated_mib", "MiB"},
    {"health.epoch_s", "s"},
    {"health.poll_us", "us"},
    {"health.transitions", "count"},
    {"health.evac_moved", "count"},
    {"health.evac_skipped", "count"},
    {"health.evac_useful_ratio", "ratio"},
    {"power.epoch_s", "s"},
    {"power.over_cap_epochs", "count"},
    {"power.drained_buffers", "count"},
    {"power.throttle_events", "count"},
    {"recover.supervise_s", "s"},
    {"recover.capture_ms", "ms"},
    {"recover.serialize_ms", "ms"},
    {"recover.parse_ms", "ms"},
    {"recover.restore_ms", "ms"},
    {"recover.snapshot_kib", "KiB"},
    {"recover.breaker_opens", "count"},
    {"recover.skipped_epochs", "count"},
    {"alloc.mem_alloc_p50_us", "us"},
    {"alloc.mem_alloc_p99_us", "us"},
    {"alloc.mem_free_p50_us", "us"},
    {"alloc.mem_free_p99_us", "us"},
    {"alloc.admitted", "count"},
    {"alloc.fallbacks", "count"},
    {"alloc.tenant_spills", "count"},
    {"alloc.backpressure_quota", "count"},
    {"alloc.backpressure_shed", "count"},
    {"alloc.backpressure_health", "count"},
    {"alloc.transient_retries", "count"},
    {"alloc.migrations", "count"},
    {"memattr.cache_hits", "count"},
    {"memattr.cache_misses", "count"},
    {"memattr.cache_hit_ratio", "ratio"},
    {"tenant.register_us", "us"},
    {"tenant.deregister_us", "us"},
};

/// Layers whose self time inside the timed loop is reported (the others
/// only run during setup or inside another layer's call).
const Layer kLoopLayers[] = {Layer::kBench,  Layer::kApps,    Layer::kSimmem,
                             Layer::kRuntime, Layer::kHealth, Layer::kPower,
                             Layer::kRecover, Layer::kAlloc,  Layer::kTenant};

std::string format_number(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

/// The fastest pass's figure. Contention from outside the VM comes and goes
/// over tens of seconds and can slow a whole pass 1.5-2x (see README
/// "Noise"); every pass does identical work, so the fastest one is the
/// figure that repeats from run to run, and the one a code change moves.
double fastest(const std::vector<double>& per_pass) {
  return *std::min_element(per_pass.begin(), per_pass.end());
}

double peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

/// Pins the process (and every thread it starts later) to the CPU it runs
/// on. Each phase wakes the execution pool's workers; on a shared VM the
/// cross-CPU wake-ups of idle vCPUs otherwise make whole runs 1.5-2x
/// slower at random, which no number of repeats averages out.
void pin_to_current_cpu() {
  const int cpu = sched_getcpu();
  if (cpu < 0) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  (void)sched_setaffinity(0, sizeof(set), &set);
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_dir = ".bench_build/trace";
};

bool parse_args(int argc, char** argv, Args& args) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return false;
    const std::string value = argv[++i];
    if (arg == "--workload") {
      args.workload = value;
    } else if (arg == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      args.seconds = std::strtod(value.c_str(), nullptr);
    } else if (arg == "--trace") {
      args.trace = value == "1";
    } else if (arg == "--trace-dir") {
      args.trace_dir = value;
    } else {
      return false;
    }
  }
  return !args.workload.empty();
}

/// Per-layer metrics of the traced pass.
std::map<std::string, double> layer_metrics(const PassResult& traced,
                                            const std::vector<Span>& spans,
                                            double untraced_run_s) {
  std::map<std::string, double> m;
  for (const MetricDef& def : kLayerMetrics) m[def.name] = 0.0;
  for (const auto& [name, value] : traced.counts) {
    if (m.count(name) != 0) m[name] = value;
  }
  for (const auto& [name, value] : traced.timings) {
    if (m.count(name) != 0) m[name] = value;
  }

  std::vector<double> child_ns(spans.size(), 0.0);
  for (const Span& span : spans) {
    if (span.parent >= 0) {
      child_ns[static_cast<std::size_t>(span.parent)] +=
          static_cast<double>(span.end_ns - span.start_ns);
    }
  }
  // Span durations by name (ns): inside the timed loop, and anywhere (tenant
  // registrations happen in set-up too).
  std::map<std::string, std::vector<double>> by_name;
  std::map<std::string, std::vector<double>> anywhere;
  std::vector<double> loop_self_ns(static_cast<std::size_t>(Layer::kCount), 0.0);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& span = spans[i];
    const double duration = static_cast<double>(span.end_ns - span.start_ns);
    anywhere[span.name].push_back(duration);
    if (span.step >= 0) {
      by_name[span.name].push_back(duration);
      loop_self_ns[static_cast<std::size_t>(span.layer)] += duration - child_ns[i];
    }
  }
  auto sum_s = [&](const char* name) {
    double total = 0.0;
    for (double ns : by_name[name]) total += ns;
    return total / 1e9;
  };
  auto quantile_of = [&](const char* name, double q, double scale) {
    return window_quantile(by_name[name], q) / scale;
  };

  m["apps.refresh_s"] = sum_s("apps.refresh");
  m["simmem.phase_s"] = sum_s("simmem.phase");
  m["simmem.phase_p50_us"] = quantile_of("simmem.phase", 0.5, 1e3);
  m["simmem.phases"] = static_cast<double>(by_name["simmem.phase"].size());
  m["simmem.ns_per_op"] =
      traced.simmem_ops > 0.0 ? sum_s("simmem.phase") * 1e9 / traced.simmem_ops
                              : 0.0;
  m["runtime.sample_s"] = sum_s("runtime.sample");
  m["runtime.engine_s"] = sum_s("runtime.engine");
  m["health.epoch_s"] = sum_s("health.epoch");
  m["health.poll_us"] = quantile_of("health.poll", 0.5, 1e3);
  m["power.epoch_s"] = sum_s("power.epoch");
  m["recover.supervise_s"] = sum_s("recover.supervise") + sum_s("recover.gate");
  m["recover.capture_ms"] = quantile_of("recover.capture", 0.5, 1e6);
  m["recover.serialize_ms"] = quantile_of("recover.serialize", 0.5, 1e6);
  m["recover.parse_ms"] = quantile_of("recover.parse", 0.5, 1e6);
  m["alloc.mem_alloc_p50_us"] = quantile_of("alloc.mem_alloc", 0.5, 1e3);
  m["alloc.mem_alloc_p99_us"] = quantile_of("alloc.mem_alloc", 0.99, 1e3);
  m["alloc.mem_free_p50_us"] = quantile_of("alloc.mem_free", 0.5, 1e3);
  m["alloc.mem_free_p99_us"] = quantile_of("alloc.mem_free", 0.99, 1e3);
  m["tenant.register_us"] = window_quantile(anywhere["tenant.register"], 0.5) / 1e3;
  m["tenant.deregister_us"] =
      window_quantile(anywhere["tenant.deregister"], 0.5) / 1e3;

  // Self time per layer inside the timed loop; whatever no span covers
  // (step glue, request bookkeeping) is the bench layer's.
  double covered_ns = 0.0;
  for (Layer layer : kLoopLayers) {
    if (layer != Layer::kBench) {
      covered_ns += loop_self_ns[static_cast<std::size_t>(layer)];
    }
  }
  const double run_ns = traced.run_s * 1e9;
  for (Layer layer : kLoopLayers) {
    const double self_ns = layer == Layer::kBench
                               ? run_ns - covered_ns
                               : loop_self_ns[static_cast<std::size_t>(layer)];
    const std::string prefix = layer_name(layer);
    m[prefix + ".self_s"] = self_ns / 1e9;
    m[prefix + ".share"] = run_ns > 0.0 ? self_ns / run_ns : 0.0;
  }
  m["trace.overhead_s"] = traced.run_s - untraced_run_s;
  return m;
}

std::vector<MetricDef> layer_metric_defs() {
  std::vector<MetricDef> defs(std::begin(kLayerMetrics), std::end(kLayerMetrics));
  for (Layer layer : kLoopLayers) {
    defs.push_back({std::string(layer_name(layer)) + ".self_s", "s"});
    defs.push_back({std::string(layer_name(layer)) + ".share", "ratio"});
  }
  defs.push_back({"trace.overhead_s", "s"});
  return defs;
}

/// Returns the first differing log name, or empty when all match.
std::string diff_logs(const PassResult& a, const PassResult& b) {
  if (a.logs.size() != b.logs.size()) return "<log set>";
  for (const auto& [name, text] : a.logs) {
    auto it = b.logs.find(name);
    if (it == b.logs.end() || it->second != text) return name;
  }
  return {};
}

bool write_trace(const std::string& dir, const Args& args,
                 const std::vector<Span>& spans,
                 const std::map<std::string, double>& metrics,
                 const std::vector<MetricDef>& defs, const PassResult& traced) {
  std::error_code error;
  std::filesystem::create_directories(dir, error);
  const std::string base = dir + "/" + args.workload;
  std::ofstream summary(base + ".json");
  std::ofstream tsv(base + ".spans.tsv");
  if (!summary || !tsv) return false;
  summary << "{\"schema\":\"perfbench.trace/1\",\"workload\":\"" << args.workload
          << "\",\"seed\":" << args.seed << ",\"steps\":" << traced.step_ns.size()
          << ",\"metrics\":{";
  for (std::size_t i = 0; i < defs.size(); ++i) {
    summary << (i == 0 ? "" : ",") << "\"" << defs[i].name << "\":{\"value\":"
            << format_number(metrics.at(defs[i].name)) << ",\"unit\":\""
            << defs[i].unit << "\"}";
  }
  summary << "},\"counts\":{";
  bool first = true;
  for (const auto& [name, value] : traced.counts) {
    summary << (first ? "" : ",") << "\"" << name << "\":" << format_number(value);
    first = false;
  }
  summary << "}}\n";
  const std::int64_t origin = spans.empty() ? 0 : spans.front().start_ns;
  tsv << "index\tparent\tstep\tlayer\tname\tstart_ns\tend_ns\n";
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& span = spans[i];
    tsv << i << '\t' << span.parent << '\t' << span.step << '\t'
        << layer_name(span.layer) << '\t' << span.name << '\t'
        << span.start_ns - origin << '\t' << span.end_ns - origin << '\n';
  }
  return static_cast<bool>(summary) && static_cast<bool>(tsv);
}

int fail(const std::string& workload, const std::string& message) {
  std::cerr << "perfbench " << workload << ": FAILED: " << message << "\n";
  return 1;
}

int run(const Args& args) {
  const Workload* workload = nullptr;
  for (const Workload& candidate : kWorkloads) {
    if (args.workload == candidate.name) workload = &candidate;
  }
  if (workload == nullptr) return fail(args.workload, "unknown workload");
  pin_to_current_cpu();

  PassResult first;
  std::string reference;  // determinism fingerprint of the first pass
  // Peak RSS of one pass: later passes reuse a heap the first one grew, so
  // reading after them would measure the repeat loop, not the workload.
  double rss_mib = 0.0;
  // Per pass: set-up and loop time, and the p50/p90 of its step times.
  std::vector<double> setup_s;
  std::vector<double> run_s;
  std::vector<double> step_p50_us;
  std::vector<double> step_p90_us;
  std::uint64_t steps = 0;
  std::uint64_t failed = 0;
  const std::int64_t start = now_ns();
  while (run_s.size() < kMaxPasses &&
         (run_s.size() < kMinPasses ||
          static_cast<double>(now_ns() - start) / 1e9 < args.seconds)) {
    PassResult pass = workload->run_pass(args.seed, nullptr);
    if (!pass.error.empty()) return fail(args.workload, pass.error);
    const std::string fingerprint = determinism_fingerprint(pass);
    if (run_s.empty()) {
      reference = fingerprint;
      rss_mib = peak_rss_mib();
    } else if (fingerprint != reference) {
      return fail(args.workload,
                  "pass " + std::to_string(run_s.size()) +
                      " diverged from pass 0 of the same seed:\n" + reference +
                      "---\n" + fingerprint);
    }
    setup_s.push_back(pass.setup_s);
    run_s.push_back(pass.run_s);
    step_p50_us.push_back(window_quantile(pass.step_ns, 0.5) / 1e3);
    step_p90_us.push_back(window_quantile(pass.step_ns, 0.9) / 1e3);
    steps += pass.step_ns.size();
    failed += pass.steps_failed;
    // The first pass keeps its logs for the traced run's byte comparison.
    if (run_s.size() == 1) first = std::move(pass);
  }
  if (std::string error = workload->check_run(args.seed, first); !error.empty()) {
    return fail(args.workload, error);
  }
  std::cout << "perfbench " << args.workload << " seed " << args.seed << ": "
            << run_s.size() << " passes, " << steps << " steps (" << failed
            << " failed), all output checks passed\n";

  std::vector<std::pair<MetricDef, double>> report;
  if (!args.trace) {
    report = {
        {{"setup_s", "s"}, fastest(setup_s)},
        {{"run_s", "s"}, fastest(run_s)},
        {{"step_p50_us", "us"}, fastest(step_p50_us)},
        {{"step_p90_us", "us"}, fastest(step_p90_us)},
        {{"peak_rss_mib", "MiB"}, rss_mib},
        {{"sim_ops_per_s", "ops/s"}, first.sim_ops_per_s},
        {{"ok_frac", "ratio"}, first.ok_frac},
    };
  } else {
    Tracer tracer;
    PassResult traced = workload->run_pass(args.seed, &tracer);
    if (!traced.error.empty()) return fail(args.workload, traced.error);
    if (std::string log = diff_logs(first, traced); !log.empty()) {
      return fail(args.workload,
                  "traced run changed the " + log + " log (non-perturbation)");
    }
    if (determinism_fingerprint(traced) != reference) {
      return fail(args.workload,
                  "traced run changed sim metrics or counts (non-perturbation)");
    }
    const std::map<std::string, double> metrics =
        layer_metrics(traced, tracer.spans(), quantile(run_s, 0.5));
    const std::vector<MetricDef> defs = layer_metric_defs();
    if (!write_trace(args.trace_dir, args, tracer.spans(), metrics, defs,
                     traced)) {
      return fail(args.workload, "cannot write the trace under " + args.trace_dir);
    }
    std::cout << "traced pass: " << tracer.spans().size() << " spans written to "
              << args.trace_dir << "/" << args.workload
              << ".{json,spans.tsv}; logs byte-identical to the untraced pass\n";
    for (const MetricDef& def : defs) report.push_back({def, metrics.at(def.name)});
  }

  for (const auto& [def, value] : report) {
    std::printf("  %-28s %14.6g %s\n", def.name.c_str(), value, def.unit);
  }
  std::string json = "{\"correct\": true, \"attempted\": " +
                     std::to_string(steps) +
                     ", \"failed\": " + std::to_string(failed) +
                     ", \"metrics\": {";
  for (std::size_t i = 0; i < report.size(); ++i) {
    const auto& [def, value] = report[i];
    json += (i == 0 ? "\"" : ", \"") + def.name +
            "\": {\"value\": " + format_number(value) + ", \"unit\": \"" +
            def.unit + "\"}";
  }
  json += "}}";
  std::cout << json << std::endl;
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::parse_args(argc, argv, args)) {
    std::cerr << "usage: perfbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--trace-dir DIR]\n";
    return 2;
  }
  return perfbench::run(args);
}
