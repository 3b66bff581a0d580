#include "hetmem/trace/trace.hpp"

#include <algorithm>
#include <string>
#include <utility>

#include "hetmem/support/line_codec.hpp"

namespace hetmem::trace {

using support::Result;

namespace {

constexpr const char* kHeader = "hetmem-trace/2";

sim::BufferTraffic latency_profile(const SynthOptions& options) {
  // A pointer-chase shape: every access dependent-indexed, ~97% missing the
  // LLC (a working set far past cache), one line per miss reaching memory.
  sim::BufferTraffic traffic;
  const double misses = options.random_accesses * 0.97;
  traffic.reads = options.random_accesses;
  traffic.llc_misses = misses;
  traffic.random_accesses = options.random_accesses;
  traffic.random_misses = misses;
  traffic.memory_bytes = misses * 64.0;
  return traffic;
}

sim::BufferTraffic bandwidth_profile(const SynthOptions& options) {
  sim::BufferTraffic traffic;
  traffic.reads = options.stream_bytes / 64.0;
  traffic.llc_misses = options.stream_bytes / 64.0;
  traffic.memory_bytes = options.stream_bytes;
  return traffic;
}

sim::BufferTraffic scale(sim::BufferTraffic traffic, double factor) {
  traffic.reads *= factor;
  traffic.writes *= factor;
  traffic.llc_misses *= factor;
  traffic.memory_bytes *= factor;
  traffic.random_accesses *= factor;
  traffic.random_misses *= factor;
  return traffic;
}

sim::BufferTraffic blend(const sim::BufferTraffic& a,
                         const sim::BufferTraffic& b, double t) {
  sim::BufferTraffic out = scale(a, 1.0 - t);
  const sim::BufferTraffic part = scale(b, t);
  out.reads += part.reads;
  out.writes += part.writes;
  out.llc_misses += part.llc_misses;
  out.memory_bytes += part.memory_bytes;
  out.random_accesses += part.random_accesses;
  out.random_misses += part.random_misses;
  return out;
}

Trace synth_base(const SynthOptions& options) {
  Trace trace;
  trace.workload = options.workload;
  trace.threads = options.threads;
  trace.phases_per_epoch = 1;
  trace.epochs.reserve(options.epochs);
  return trace;
}

void push_epoch(Trace& trace, std::uint64_t index, double duration_ns,
                std::vector<runtime::EpochSample> samples) {
  runtime::Epoch epoch;
  epoch.index = index;
  epoch.duration_ns = duration_ns;
  for (const runtime::EpochSample& sample : samples) {
    epoch.total_memory_bytes += sample.traffic.memory_bytes;
  }
  epoch.samples = std::move(samples);
  trace.epochs.push_back(std::move(epoch));
}

}  // namespace

std::string serialize(const Trace& trace) {
  std::string out = std::string(kHeader) + '\n';
  support::RecordWriter record(out);
  record.begin("workload");
  record.text(trace.workload);
  record.end();
  record.line("threads", trace.threads);
  record.line("phases_per_epoch", trace.phases_per_epoch);
  for (const runtime::Epoch& epoch : trace.epochs) {
    record.line("epoch", epoch.index, epoch.duration_ns, epoch.sample_period);
    for (const runtime::EpochSample& sample : epoch.samples) {
      record.begin("s");
      record(sample.buffer.packed());
      sim::traffic_fields(record, sample.traffic);
      record.end();
    }
  }
  out += "end\n";
  return out;
}

Result<Trace> parse(std::string_view text) {
  support::LineReader lines("trace", text);
  if (lines.done() || lines.next() != kHeader) {
    return lines.error(std::string("expected header ") + kHeader);
  }
  Trace trace;
  trace.workload.clear();
  runtime::Epoch* epoch = nullptr;
  while (!lines.done()) {
    support::FieldReader in(lines.next());
    if (in.rest().empty()) continue;
    const std::string_view tag = in.word();
    if (tag == "workload") {
      in.text(trace.workload);
    } else if (tag == "threads") {
      if (!in(trace.threads) || !in.at_end()) {
        return lines.error("bad thread count");
      }
    } else if (tag == "phases_per_epoch") {
      if (!in(trace.phases_per_epoch) || !in.at_end()) {
        return lines.error("bad phases_per_epoch");
      }
    } else if (tag == "epoch") {
      runtime::Epoch& next = trace.epochs.emplace_back();
      if (!in(next.index, next.duration_ns)) {
        return lines.error("bad epoch line");
      }
      if (!in(next.sample_period)) {
        return lines.error("bad epoch line (v2 needs sample_period)");
      }
      if (!in.at_end()) return lines.error("bad epoch line");
      epoch = &next;
    } else if (tag == "s") {
      if (epoch == nullptr) return lines.error("sample before any epoch");
      runtime::EpochSample& sample = epoch->samples.emplace_back();
      std::uint64_t packed = 0;
      if (!in(packed)) return lines.error("bad buffer id");
      sample.buffer = sim::BufferId::unpack(packed);
      if (sample.buffer.generation > sim::SimMachine::kMaxGeneration) {
        return lines.error("bad buffer id");
      }
      if (!sim::traffic_fields(in, sample.traffic) || !in.at_end()) {
        return lines.error("bad sample counter");
      }
      // total_memory_bytes is derived, summed in sample order exactly as
      // the recorder summed it — same additions, same rounding, same bits.
      epoch->total_memory_bytes += sample.traffic.memory_bytes;
    } else if (tag == "end") {
      return trace;
    } else {
      return lines.error("unknown record '" + std::string(tag) + "'");
    }
  }
  return lines.error("truncated trace (missing 'end')");
}

TraceRecorder::TraceRecorder(RecorderOptions options)
    : options_(std::move(options)) {
  options_.phases_per_epoch = std::max(1u, options_.phases_per_epoch);
  trace_.workload = options_.workload;
  trace_.phases_per_epoch = options_.phases_per_epoch;
}

void TraceRecorder::record_epoch(const sim::ExecutionContext& exec) {
  runtime::Epoch& epoch = trace_.epochs.emplace_back();
  epoch.index = trace_.epochs.size() - 1;
  epoch.duration_ns = exec.clock_ns() - snapshot_clock_ns_;
  // The sampler's own delta stream (same order, same inclusion rule), so a
  // replaying sampler consumes its rounding stream in lockstep with the
  // live one.
  exec.read_traffic_deltas(
      reader_, [&](sim::BufferId buffer, const sim::BufferTraffic& delta) {
        epoch.total_memory_bytes += delta.memory_bytes;
        epoch.samples.push_back(runtime::EpochSample{buffer, delta});
      });
  snapshot_clock_ns_ = exec.clock_ns();
  phases_since_epoch_ = 0;
  trace_.threads = exec.thread_count();
}

void TraceRecorder::on_phase(const sim::ExecutionContext& exec) {
  if (++phases_since_epoch_ < options_.phases_per_epoch) return;
  record_epoch(exec);
}

void TraceRecorder::force_epoch(const sim::ExecutionContext& exec) {
  record_epoch(exec);
}

void TraceRecorder::attach(sim::ExecutionContext& exec,
                           runtime::RuntimePolicy* policy) {
  exec.set_phase_observer([this, policy, &exec](const sim::PhaseResult&) {
    on_phase(exec);
    if (policy != nullptr) {
      policy->on_phase(exec);
      // Backfill the live sampler's effective period onto the epoch just
      // recorded (the recorder runs first, so when both close an epoch on
      // the same phase their counters agree). That period is what trace/2
      // serializes and what a replaying sampler re-applies verbatim.
      if (!trace_.epochs.empty() &&
          policy->sampler().epochs_emitted() == trace_.epochs.size()) {
        const std::vector<double>& periods = policy->sampler().period_log();
        if (!periods.empty()) trace_.epochs.back().sample_period = periods.back();
      }
    }
  });
}

ReplayStats TraceReplayer::replay(const Trace& trace) {
  ReplayStats stats;
  for (const runtime::Epoch& raw : trace.epochs) {
    stats.paid_ns += policy_->replay_epoch(raw, trace.threads);
    ++stats.epochs;
  }
  return stats;
}

Trace synthesize_rotation(const std::vector<sim::BufferId>& buffers,
                          unsigned shift_every, double cold_fraction,
                          const SynthOptions& options) {
  Trace trace = synth_base(options);
  if (buffers.empty()) return trace;
  shift_every = std::max(1u, shift_every);
  const sim::BufferTraffic hot = latency_profile(options);
  const sim::BufferTraffic cold = scale(hot, cold_fraction);
  for (unsigned index = 0; index < options.epochs; ++index) {
    const std::size_t hot_slot =
        (index / shift_every) % buffers.size();
    std::vector<runtime::EpochSample> samples;
    samples.reserve(buffers.size());
    for (std::size_t slot = 0; slot < buffers.size(); ++slot) {
      samples.push_back({buffers[slot], slot == hot_slot ? hot : cold});
    }
    push_epoch(trace, index, options.duration_ns, std::move(samples));
  }
  return trace;
}

Trace synthesize_square(sim::BufferId buffer, unsigned half_period,
                        const SynthOptions& options) {
  Trace trace = synth_base(options);
  half_period = std::max(1u, half_period);
  const sim::BufferTraffic streaming = bandwidth_profile(options);
  const sim::BufferTraffic chasing = latency_profile(options);
  for (unsigned index = 0; index < options.epochs; ++index) {
    const bool high = (index / half_period) % 2 == 1;
    push_epoch(trace, index, options.duration_ns,
               {{buffer, high ? chasing : streaming}});
  }
  return trace;
}

Trace synthesize_ramp(sim::BufferId buffer, unsigned ramp_start,
                      unsigned ramp_epochs, const SynthOptions& options) {
  Trace trace = synth_base(options);
  ramp_epochs = std::max(1u, ramp_epochs);
  const sim::BufferTraffic streaming = bandwidth_profile(options);
  const sim::BufferTraffic chasing = latency_profile(options);
  for (unsigned index = 0; index < options.epochs; ++index) {
    double t = 0.0;
    if (index >= ramp_start) {
      t = std::min(1.0, static_cast<double>(index - ramp_start + 1) /
                            ramp_epochs);
    }
    push_epoch(trace, index, options.duration_ns,
               {{buffer, blend(streaming, chasing, t)}});
  }
  return trace;
}

}  // namespace hetmem::trace
