#include "hetmem/recover/snapshot.hpp"

#include <charconv>
#include <cstdio>
#include <string>
#include <utility>

#include "hetmem/support/line_codec.hpp"

namespace hetmem::recover {

using support::Errc;
using support::make_error;
using support::Result;
using support::Status;

namespace {

constexpr const char* kHeader = "hetmem-snap/2";
/// The previous version, still read (see parse()).
constexpr const char* kHeaderV1 = "hetmem-snap/1";

// Each record's fields, listed once. serialize() calls a list with a
// support::RecordWriter and a const value, parse() with a FieldReader and
// a value to fill (support/line_codec.hpp). Per-node and per-slot lists
// are written `<tag> <position> <fields>` by put_indexed() and read back
// by get_indexed(), which requires the positions in order. A section's
// count field (classifier, health, faults) is for people reading the file:
// parse() checks that it is a number and otherwise ignores it, so a forged
// count allocates nothing.

/// A list entry that is a single number (period, gstreak).
constexpr auto scalar_fields = [](auto& io, auto& value) { return io(value); };

constexpr auto preset_fields = [](auto& io, auto& snap) {
  return io(snap.probed) && io.name(snap.machine_preset);
};

constexpr auto machine_fields = [](auto& io, auto& snap) {
  return io(snap.node_count, snap.power_cap_watts);
};

constexpr auto node_fields = [](auto& io, auto& t) {
  return io(t.capacity_rejections, t.offline_rejections, t.transient_faults,
            t.ecc_errors, t.degraded_events, t.thermal_throttle_events,
            t.degraded, t.online);
};

constexpr auto npower_fields = [](auto& io, auto& power) {
  return io(power.dynamic_watts_ema, power.seeded);
};

constexpr auto buffers_fields = [](auto& io, auto& snap) {
  return io(snap.buffers_total);
};

constexpr auto buffer_fields = [](auto& io, auto& b) {
  return io(b.index, b.generation, b.node, b.declared_bytes, b.backing_bytes,
            b.tenant_id) &&
         io.text(b.label);
};

constexpr auto free_fields = [](auto& io, auto& id) {
  return io(id.index, id.generation);
};

constexpr auto tenant_fields = [](auto& io, auto& t) {
  return io(t.id) &&
         io.enumeration(t.priority, tenant::Priority::kBestEffort) &&
         io(t.quota.share_weight, t.quota.total_cap_bytes,
            t.quota.tier_cap_bytes, t.stats.admitted, t.stats.spilled,
            t.stats.shed, t.stats.quota_rejections, t.live) &&
         io.name(t.name);
};

constexpr auto tnext_fields = [](auto& io, auto& snap) {
  return io(snap.tenants_next_id);
};

constexpr auto astats_fields = [](auto& io, auto& s) {
  return io(s.allocations, s.fallbacks, s.failures, s.frees, s.migrations,
            s.bytes_allocated, s.bytes_migrated, s.transient_retries,
            s.attribute_rescues, s.backpressure_rejections,
            s.backpressure_health, s.backpressure_quota, s.backpressure_shed,
            s.tenant_spills, s.retry_backoff_ms);
};

constexpr auto sampler_fields = [](auto& io, auto& s) {
  return io(s.rng, s.snapshot_clock_ns, s.phases_since_epoch, s.epochs,
            s.effective_period, s.last_cost_ns);
};

constexpr auto classifier_fields = [](auto& io, auto& snap) {
  std::uint64_t count = snap.classifier_states.size();
  return io(snap.classifier_ema_total_bytes, count);
};

/// `hetmem-snap/1`'s classifier state: cstate_fields without the
/// generation.
constexpr auto cstate_v1_fields = [](auto& io, auto& s) {
  return io(s.tracked) && sim::traffic_fields(io, s.ema) &&
         io.enumeration(s.committed, prof::Sensitivity::kInsensitive) &&
         io.enumeration(s.pending, prof::Sensitivity::kInsensitive) &&
         io(s.disagreement_streak);
};

constexpr auto cstate_fields = [](auto& io, auto& s) {
  return cstate_v1_fields(io, s) && io(s.generation);
};

/// Shared by the engine record and the watchdog's engine baseline.
constexpr auto engine_stats_fields = [](auto& io, auto& s) {
  return io(s.considered, s.accepted, s.evicted, s.rejected, s.failed,
            s.migrated_bytes, s.migration_cost_ns);
};

constexpr auto engine_fields = [](auto& io, auto& snap) {
  return engine_stats_fields(io, snap.engine_stats) &&
         io(snap.engine_max_epoch_bytes);
};

constexpr auto health_fields = [](auto& io, auto& snap) {
  std::uint64_t count = snap.health_nodes.size();
  return io(snap.health_poll_count, count);
};

constexpr auto hnode_fields = [](auto& io, auto& s) {
  return io.enumeration(s.state, health::HealthState::kOffline) &&
         io(s.last_errors, s.faulty_streak, s.clean_streak);
};

constexpr auto governor_fields = [](auto& io, auto& s) {
  return io(s.epochs, s.over_cap_epochs, s.throttle_events, s.drained_buffers,
            s.drained_bytes, s.drain_cost_ns);
};

constexpr auto faults_fields = [](auto& io, auto& snap) {
  std::uint64_t count = snap.fault_sites.size();
  return io(snap.fault_seed, count);
};

constexpr auto fsite_fields = [](auto& io, auto& s) {
  return io(s.spec.probability, s.spec.max_count, s.spec.burst,
            s.spec.noise_sigma, s.rng, s.consultations, s.injected,
            s.burst_remaining, s.armed) &&
         io.name(s.name);
};

/// `which` is 0 for the migration breaker, 1 for the evacuation breaker.
constexpr auto breaker_fields = [](auto& io, auto& which, auto& s) {
  return io(which) && io.enumeration(s.state, BreakerState::kHalfOpen) &&
         io(s.consecutive_failures, s.consecutive_successes,
            s.reopen_at_epoch, s.stats.opens, s.stats.recloses,
            s.stats.probes, s.stats.skipped, s.backoff.rng,
            s.backoff.attempt);
};

constexpr auto watchdog_fields = [](auto& io, auto& w) {
  return engine_stats_fields(io, w.prev_engine) &&
         io(w.prev_evac_failed, w.prev_evac_moved, w.migration_stall_streak,
            w.evacuation_stall_streak, w.stats.epochs_observed,
            w.stats.overruns, w.stats.migration_stall_trips,
            w.stats.evacuation_stall_trips);
};

/// Writes one `<tag> <fields>` line.
template <typename Fields, typename... Values>
void put_record(support::RecordWriter& out, std::string_view tag,
                Fields fields, const Values&... record) {
  out.begin(tag);
  fields(out, record...);
  out.end();
}

template <typename Fields, typename T>
void put_indexed(support::RecordWriter& out, std::string_view tag,
                 Fields fields, const std::vector<T>& items) {
  for (std::size_t i = 0; i < items.size(); ++i) {
    out.begin(tag);
    out(i);
    fields(out, items[i]);
    out.end();
  }
}

template <typename Fields, typename T>
bool get_indexed(support::FieldReader& in, Fields fields,
                 std::vector<T>& items) {
  std::uint64_t index = 0;
  return in(index) && index == items.size() &&
         fields(in, items.emplace_back());
}

}  // namespace

Snapshot capture(const CaptureSources& sources) {
  Snapshot snap;
  snap.machine_preset = sources.machine_preset;
  snap.probed = sources.probed;

  const sim::SimMachine& machine = *sources.machine;
  const std::size_t nodes = machine.topology().numa_nodes().size();
  snap.node_count = nodes;
  snap.power_cap_watts = machine.power_cap_watts();
  snap.node_telemetry.reserve(nodes);
  snap.node_power.reserve(nodes);
  for (unsigned n = 0; n < nodes; ++n) {
    snap.node_telemetry.push_back(machine.node_telemetry(n));
    snap.node_power.push_back(machine.node_power_state(n));
  }

  snap.buffers_total = machine.total_buffer_count();
  const alloc::HeterogeneousAllocator& allocator = *sources.allocator;
  for (const sim::BufferId id : machine.live_buffers()) {
    const sim::BufferInfo info = machine.info(id);
    Snapshot::BufferRecord record;
    record.index = id.index;
    record.generation = id.generation;
    record.node = info.node;
    record.declared_bytes = info.declared_bytes;
    record.backing_bytes = info.backing_bytes;
    record.label = info.label;
    const tenant::TenantHandle owner = allocator.tenant_of(id);
    if (owner != nullptr) record.tenant_id = owner->id();
    snap.buffers.push_back(std::move(record));
  }
  snap.free_slots = machine.free_slots();

  if (sources.tenants != nullptr) {
    for (const tenant::TenantHandle& handle : sources.tenants->tenants()) {
      Snapshot::TenantRecord record;
      record.id = handle->id();
      record.priority = handle->priority();
      record.quota = handle->quota();
      record.stats = handle->stats();
      record.live = handle->live();
      record.name = handle->name();
      snap.tenants.push_back(std::move(record));
    }
    // Deregistered tenants vanish from the registry but their outstanding
    // charges survive through the allocator's handles; synthesize records
    // for them so restore can rebuild those charges (marked dead).
    for (const Snapshot::BufferRecord& buffer : snap.buffers) {
      if (buffer.tenant_id == tenant::kNoTenant) continue;
      bool known = false;
      for (const Snapshot::TenantRecord& t : snap.tenants) {
        known = known || t.id == buffer.tenant_id;
      }
      if (known) continue;
      const tenant::TenantHandle dead = allocator.tenant_of(buffer.id());
      if (dead == nullptr) continue;
      Snapshot::TenantRecord record;
      record.id = dead->id();
      record.priority = dead->priority();
      record.quota = dead->quota();
      record.stats = dead->stats();
      record.live = false;
      record.name = dead->name();
      snap.tenants.push_back(std::move(record));
    }
    snap.tenants_next_id = sources.tenants->next_id();
  }

  snap.alloc_stats = allocator.stats();
  snap.reserved_bytes.reserve(nodes);
  for (unsigned n = 0; n < nodes; ++n) {
    snap.reserved_bytes.push_back(allocator.reserved_bytes(n));
  }

  if (sources.policy != nullptr) {
    snap.has_policy = true;
    snap.sampler = sources.policy->sampler().export_state();
    snap.classifier_states = sources.policy->classifier().states();
    snap.classifier_ema_total_bytes =
        sources.policy->classifier().ema_total_bytes();
    snap.engine_stats = sources.policy->engine().stats();
    snap.engine_max_epoch_bytes =
        sources.policy->engine().max_epoch_migrated_bytes();
    snap.decision_log = sources.policy->engine().render_decision_log();
  }

  if (sources.health != nullptr) {
    snap.has_health = true;
    snap.health_poll_count = sources.health->poll_count();
    snap.health_nodes.reserve(nodes);
    for (unsigned n = 0; n < nodes; ++n) {
      snap.health_nodes.push_back(sources.health->node_state(n));
    }
  }

  if (sources.governor != nullptr) {
    snap.has_governor = true;
    snap.governor_stats = sources.governor->stats();
    snap.governor_streaks = sources.governor->over_streaks();
  }

  if (sources.faults != nullptr) {
    snap.has_faults = true;
    snap.fault_seed = sources.faults->seed();
    snap.fault_sites = sources.faults->export_sites();
  }

  if (sources.supervisor != nullptr) {
    snap.has_supervisor = true;
    snap.migration_breaker =
        sources.supervisor->migration_breaker().export_state();
    snap.evacuation_breaker =
        sources.supervisor->evacuation_breaker().export_state();
    snap.watchdog = sources.supervisor->watchdog().export_state();
  }
  return snap;
}

std::string serialize(const Snapshot& snap) {
  // The whole text goes into one string. The rendered log is the bulk of
  // it: reserve that, its "dlog " tags and some slack for the other records.
  std::string text;
  text.reserve(snap.decision_log.size() + snap.decision_log.size() / 16 +
               64 * 1024);
  text += kHeader;
  text += '\n';
  const std::size_t payload_start = text.size();  // checksummed from here
  support::RecordWriter out(text);
  put_record(out, "preset", preset_fields, snap);
  put_record(out, "machine", machine_fields, snap);
  put_indexed(out, "node", node_fields, snap.node_telemetry);
  put_indexed(out, "npower", npower_fields, snap.node_power);
  put_record(out, "buffers", buffers_fields, snap);
  for (const Snapshot::BufferRecord& buffer : snap.buffers) {
    put_record(out, "buffer", buffer_fields, buffer);
  }
  for (const sim::BufferId& slot : snap.free_slots) {
    put_record(out, "free", free_fields, slot);
  }
  for (const Snapshot::TenantRecord& tenant : snap.tenants) {
    put_record(out, "tenant", tenant_fields, tenant);
  }
  if (snap.tenants_next_id > 1 || !snap.tenants.empty()) {
    put_record(out, "tnext", tnext_fields, snap);
  }
  put_record(out, "astats", astats_fields, snap.alloc_stats);
  for (std::size_t n = 0; n < snap.reserved_bytes.size(); ++n) {
    if (snap.reserved_bytes[n] != 0) {
      out.line("reserved", n, snap.reserved_bytes[n]);
    }
  }

  if (snap.has_policy) {
    put_record(out, "sampler", sampler_fields, snap.sampler);
    put_indexed(out, "period", scalar_fields, snap.sampler.period_log);
    put_record(out, "classifier", classifier_fields, snap);
    put_indexed(out, "cstate", cstate_fields, snap.classifier_states);
    put_record(out, "engine", engine_fields, snap);
    // The rendered narrative, one "dlog " line per log line (log lines are
    // never empty and always newline-terminated).
    std::string_view log = snap.decision_log;
    while (!log.empty()) {
      const std::size_t nl = log.find('\n');
      out.begin("dlog");
      out.text(log.substr(0, nl));
      out.end();
      log.remove_prefix(nl == std::string_view::npos ? log.size() : nl + 1);
    }
  }
  if (snap.has_health) {
    put_record(out, "health", health_fields, snap);
    put_indexed(out, "hnode", hnode_fields, snap.health_nodes);
  }
  if (snap.has_governor) {
    put_record(out, "governor", governor_fields, snap.governor_stats);
    put_indexed(out, "gstreak", scalar_fields, snap.governor_streaks);
  }
  if (snap.has_faults) {
    put_record(out, "faults", faults_fields, snap);
    for (const fault::FaultInjector::SiteState& site : snap.fault_sites) {
      put_record(out, "fsite", fsite_fields, site);
    }
  }
  if (snap.has_supervisor) {
    put_record(out, "breaker", breaker_fields, std::uint64_t{0},
               snap.migration_breaker);
    put_record(out, "breaker", breaker_fields, std::uint64_t{1},
               snap.evacuation_breaker);
    put_record(out, "watchdog", watchdog_fields, snap.watchdog);
  }

  char checksum[32];
  std::snprintf(checksum, sizeof(checksum), "%016llx",
                static_cast<unsigned long long>(support::fnv1a64(
                    std::string_view(text).substr(payload_start))));
  text += "checksum ";
  text += checksum;
  text += "\nend\n";
  return text;
}

Result<Snapshot> parse(std::string_view text) {
  support::LineReader lines("snapshot", text);
  if (lines.done()) return lines.error("empty snapshot");
  const std::string_view header = lines.next();
  const bool v1 = header == kHeaderV1;
  if (header != kHeader && !v1) {
    return lines.error("unsupported snapshot header '" + std::string(header) +
                       "' (expected " + kHeader + ")");
  }
  std::uint64_t v1_slots = 0;  // a /1 text lists every slot, in order
  const std::size_t payload_start = lines.offset();
  std::size_t payload_end = payload_start;
  std::uint64_t declared_checksum = 0;
  bool saw_machine = false;
  bool saw_checksum = false;
  bool saw_end = false;
  Snapshot snap;

  while (!lines.done()) {
    const std::size_t line_start = lines.offset();
    support::FieldReader in(lines.next());
    if (in.rest().empty()) return lines.error("empty line");
    const std::string_view tag = in.word();

    if (tag == "checksum") {
      payload_end = line_start;
      const std::string_view digits = in.rest();
      const char* end = digits.data() + digits.size();
      const std::from_chars_result parsed =
          std::from_chars(digits.data(), end, declared_checksum, 16);
      if (digits.empty() || parsed.ec != std::errc() || parsed.ptr != end) {
        return lines.error("malformed checksum");
      }
      saw_checksum = true;
      continue;
    }
    if (tag == "end") {
      if (!saw_checksum) return lines.error("'end' before checksum");
      saw_end = true;
      break;
    }
    if (saw_checksum) return lines.error("record after checksum");
    if (tag == "dlog") {
      snap.decision_log += in.rest();
      snap.decision_log += '\n';
      continue;
    }

    bool ok = false;
    if (tag == "preset") {
      ok = preset_fields(in, snap);
    } else if (tag == "machine") {
      ok = machine_fields(in, snap);
      saw_machine = true;
    } else if (tag == "node") {
      ok = get_indexed(in, node_fields, snap.node_telemetry);
    } else if (tag == "npower") {
      ok = get_indexed(in, npower_fields, snap.node_power);
    } else if (tag == "buffers") {
      ok = buffers_fields(in, snap);
    } else if (tag == "buffer" && v1) {
      Snapshot::BufferRecord buffer;
      bool freed = false;
      ok = in(buffer.index, buffer.node, buffer.declared_bytes,
              buffer.backing_bytes, freed, buffer.tenant_id) &&
           in.text(buffer.label) && buffer.index == v1_slots++;
      if (freed) {
        snap.free_slots.push_back(buffer.id());
      } else {
        snap.buffers.push_back(std::move(buffer));
      }
    } else if (tag == "buffer") {
      Snapshot::BufferRecord buffer;
      ok = buffer_fields(in, buffer) && buffer.index < snap.buffers_total &&
           (snap.buffers.empty() || buffer.index > snap.buffers.back().index);
      snap.buffers.push_back(std::move(buffer));
    } else if (tag == "free" && !v1) {
      sim::BufferId slot;
      ok = free_fields(in, slot) && slot.index < snap.buffers_total;
      snap.free_slots.push_back(slot);
    } else if (tag == "tenant") {
      ok = tenant_fields(in, snap.tenants.emplace_back());
    } else if (tag == "tnext") {
      ok = tnext_fields(in, snap) && snap.tenants_next_id != 0;
    } else if (tag == "astats") {
      ok = astats_fields(in, snap.alloc_stats);
    } else if (tag == "reserved") {
      std::uint64_t node = 0;
      std::uint64_t bytes = 0;
      ok = in(node, bytes) && node < snap.node_telemetry.size();
      if (ok) {
        if (node >= snap.reserved_bytes.size()) {
          snap.reserved_bytes.resize(node + 1, 0);
        }
        snap.reserved_bytes[node] = bytes;
      }
    } else if (tag == "sampler") {
      snap.has_policy = true;
      ok = sampler_fields(in, snap.sampler);
    } else if (tag == "period") {
      ok = get_indexed(in, scalar_fields, snap.sampler.period_log);
    } else if (tag == "classifier") {
      ok = classifier_fields(in, snap);
    } else if (tag == "cstate") {
      ok = v1 ? get_indexed(in, cstate_v1_fields, snap.classifier_states)
              : get_indexed(in, cstate_fields, snap.classifier_states);
    } else if (tag == "engine") {
      ok = engine_fields(in, snap);
    } else if (tag == "health") {
      snap.has_health = true;
      ok = health_fields(in, snap);
    } else if (tag == "hnode") {
      ok = get_indexed(in, hnode_fields, snap.health_nodes);
    } else if (tag == "governor") {
      snap.has_governor = true;
      ok = governor_fields(in, snap.governor_stats);
    } else if (tag == "gstreak") {
      ok = get_indexed(in, scalar_fields, snap.governor_streaks);
    } else if (tag == "faults") {
      snap.has_faults = true;
      ok = faults_fields(in, snap);
    } else if (tag == "fsite") {
      ok = fsite_fields(in, snap.fault_sites.emplace_back());
    } else if (tag == "breaker") {
      snap.has_supervisor = true;
      std::uint64_t which = 0;
      CircuitBreaker::State state;
      ok = breaker_fields(in, which, state) && which <= 1;
      if (ok) {
        (which == 0 ? snap.migration_breaker : snap.evacuation_breaker) =
            state;
      }
    } else if (tag == "watchdog") {
      snap.has_supervisor = true;
      ok = watchdog_fields(in, snap.watchdog);
    } else {
      return lines.error("unknown record '" + std::string(tag) + "'");
    }
    if (!ok || !in.at_end()) {
      return lines.error("malformed " + std::string(tag) + " record");
    }
  }

  if (!saw_end) {
    return lines.error("truncated snapshot (missing 'end' sentinel)");
  }
  if (!saw_machine) {
    return lines.error("snapshot has no machine record");
  }
  if (support::fnv1a64(text.substr(payload_start,
                                   payload_end - payload_start)) !=
      declared_checksum) {
    return make_error(Errc::kInvalidArgument,
                      "snapshot checksum mismatch (corrupt or bit-flipped "
                      "file; refusing to restore)");
  }
  if (snap.node_telemetry.size() != snap.node_count ||
      snap.node_power.size() != snap.node_count) {
    return make_error(Errc::kInvalidArgument,
                      "snapshot node records do not match its node count");
  }
  if (v1 && v1_slots != snap.buffers_total) {
    return make_error(
        Errc::kInvalidArgument,
        "snapshot buffer records do not match its buffer count");
  }
  return snap;
}

Status save_atomic(const Snapshot& snapshot, const std::string& path) {
  const std::string text = serialize(snapshot);
  const std::string tmp = path + ".tmp";
  std::FILE* file = std::fopen(tmp.c_str(), "wb");
  if (file == nullptr) {
    return make_error(Errc::kInternal,
                      "cannot open '" + tmp + "' for writing");
  }
  const std::size_t written = std::fwrite(text.data(), 1, text.size(), file);
  const bool flushed = std::fflush(file) == 0;
  const bool closed = std::fclose(file) == 0;
  if (written != text.size() || !flushed || !closed) {
    std::remove(tmp.c_str());
    return make_error(Errc::kInternal, "short write to '" + tmp + "'");
  }
  // The rename is the commit point: a crash before it leaves any previous
  // snapshot at `path` intact, a crash after it leaves the new one.
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return make_error(Errc::kInternal,
                      "cannot rename '" + tmp + "' over '" + path + "'");
  }
  return {};
}

Result<Snapshot> load(const std::string& path) {
  std::FILE* file = std::fopen(path.c_str(), "rb");
  if (file == nullptr) {
    return make_error(Errc::kNotFound, "cannot open snapshot '" + path + "'");
  }
  std::string text;
  char buffer[1 << 16];
  std::size_t got = 0;
  while ((got = std::fread(buffer, 1, sizeof(buffer), file)) > 0) {
    text.append(buffer, got);
  }
  std::fclose(file);
  return parse(text);
}

namespace {

/// Rebuild-from-empty: the machine takes the recorded buffer table whole.
Status rebuild_buffers(const Snapshot& snap, sim::SimMachine& machine) {
  if (snap.buffers_total > UINT32_MAX) {
    return make_error(Errc::kInvalidArgument,
                      "snapshot buffer watermark out of range");
  }
  std::vector<sim::SimMachine::RestoredBuffer> live;
  live.reserve(snap.buffers.size());
  for (const Snapshot::BufferRecord& record : snap.buffers) {
    live.push_back({record.id(), record.node, record.declared_bytes,
                    record.backing_bytes, record.label});
  }
  const Status rebuilt = machine.restore_buffer_table(
      static_cast<std::uint32_t>(snap.buffers_total), live, snap.free_slots);
  if (!rebuilt.ok()) {
    return make_error(Errc::kInternal, "restore cannot rebuild the buffer "
                                       "table: " +
                                           rebuilt.error().to_string());
  }
  return {};
}

/// Re-place: the machine already holds identically-prepared buffers; verify
/// identity (ids, labels, free list) and migrate each live one to its
/// recorded node.
Status replace_buffers(const Snapshot& snap, sim::SimMachine& machine) {
  if (machine.total_buffer_count() != snap.buffers_total) {
    return make_error(Errc::kInvalidArgument,
                      "restore target machine has " +
                          std::to_string(machine.total_buffer_count()) +
                          " buffer slot(s), snapshot has " +
                          std::to_string(snap.buffers_total));
  }
  const std::vector<sim::BufferId> live = machine.live_buffers();
  if (live.size() != snap.buffers.size()) {
    return make_error(Errc::kInvalidArgument,
                      "restore target machine has " +
                          std::to_string(live.size()) +
                          " live buffer(s), snapshot has " +
                          std::to_string(snap.buffers.size()));
  }
  for (std::size_t i = 0; i < live.size(); ++i) {
    const Snapshot::BufferRecord& record = snap.buffers[i];
    const sim::BufferInfo info = machine.info(record.id());
    if (live[i] != record.id() || info.label != record.label) {
      return make_error(Errc::kInvalidArgument,
                        "restore target buffer " +
                            std::to_string(record.index) +
                            " does not match the snapshot ('" + info.label +
                            "' vs '" + record.label + "')");
    }
  }
  if (machine.free_slots() != snap.free_slots) {
    return make_error(Errc::kInvalidArgument,
                      "restore target machine's free slots differ from the "
                      "snapshot's");
  }
  for (const Snapshot::BufferRecord& record : snap.buffers) {
    if (machine.info(record.id()).node == record.node) continue;
    const Status moved = machine.migrate(record.id(), record.node);
    if (!moved.ok()) {
      return make_error(Errc::kInternal,
                        "restore cannot re-place buffer '" + record.label +
                            "': " + moved.error().to_string());
    }
  }
  return {};
}

}  // namespace

Status restore(const Snapshot& snap, const RestoreTargets& targets) {
  if (targets.machine == nullptr || targets.allocator == nullptr) {
    return make_error(Errc::kInvalidArgument,
                      "restore requires a machine and an allocator");
  }
  sim::SimMachine& machine = *targets.machine;
  const std::size_t nodes = machine.topology().numa_nodes().size();
  if (nodes != snap.node_count) {
    return make_error(Errc::kInvalidArgument,
                      "restore target has " + std::to_string(nodes) +
                          " node(s), snapshot has " +
                          std::to_string(snap.node_count) +
                          " (topology mismatch)");
  }
  if (snap.has_faults && targets.faults != nullptr &&
      targets.faults->seed() != snap.fault_seed) {
    return make_error(Errc::kInvalidArgument,
                      "restore target fault injector seed differs from the "
                      "snapshot (schedules would diverge)");
  }

  // 1. Buffers — while every node is still online (rebuild allocations on a
  //    node the snapshot later marks offline must succeed first).
  if (machine.live_buffer_count() == 0) {
    const Status rebuilt = rebuild_buffers(snap, machine);
    if (!rebuilt.ok()) return rebuilt;
  } else {
    const Status replaced = replace_buffers(snap, machine);
    if (!replaced.ok()) return replaced;
  }

  // 2. Tenants: re-register under original ids (restore_tenant keeps the
  //    never-reused-id invariant), overlay stats, re-adopt charges, and only
  //    then deregister the ones that died before the snapshot — their
  //    outstanding charges survive through the handles, as in the live run.
  if (targets.tenants != nullptr && !snap.tenants.empty()) {
    std::vector<tenant::TenantHandle> dead;
    for (const Snapshot::TenantRecord& record : snap.tenants) {
      tenant::TenantHandle handle = targets.tenants->find(record.id);
      if (handle == nullptr) {
        auto restored = targets.tenants->restore_tenant(
            record.id, record.name, record.priority, record.quota);
        if (!restored.ok()) return restored.error();
        handle = *restored;
      } else if (handle->name() != record.name) {
        return make_error(Errc::kInvalidArgument,
                          "restore target tenant id " +
                              std::to_string(record.id) +
                              " is '" + handle->name() +
                              "', snapshot says '" + record.name + "'");
      }
      handle->restore_stats(record.stats);
      if (!record.live) dead.push_back(std::move(handle));
    }
    for (const Snapshot::BufferRecord& record : snap.buffers) {
      if (record.tenant_id == tenant::kNoTenant) continue;
      const sim::BufferId id = record.id();
      if (targets.allocator->tenant_of(id) != nullptr) continue;  // re-place
      tenant::TenantHandle owner = targets.tenants->find(record.tenant_id);
      if (owner == nullptr) {
        return make_error(Errc::kInvalidArgument,
                          "snapshot buffer '" + record.label +
                              "' charges unknown tenant id " +
                              std::to_string(record.tenant_id));
      }
      const Status adopted = targets.allocator->adopt_tenant_charge(
          id, std::move(owner), record.declared_bytes);
      if (!adopted.ok()) return adopted;
    }
    for (const tenant::TenantHandle& handle : dead) {
      const Status gone = targets.tenants->deregister_tenant(handle);
      if (!gone.ok()) return gone;
    }
  }
  if (targets.tenants != nullptr) {
    targets.tenants->restore_next_id(snap.tenants_next_id);
  }

  // 3. Allocator: reservations to their absolute recorded values, then the
  //    statistics overlay.
  for (unsigned n = 0; n < nodes; ++n) {
    const std::uint64_t want =
        n < snap.reserved_bytes.size() ? snap.reserved_bytes[n] : 0;
    const std::uint64_t have = targets.allocator->reserved_bytes(n);
    if (want > have) {
      const Status reserved = targets.allocator->reserve(n, want - have);
      if (!reserved.ok()) return reserved;
    } else if (have > want) {
      targets.allocator->release_reservation(n, have - want);
    }
  }
  targets.allocator->restore_stats(snap.alloc_stats);

  // 4. Machine telemetry, power state, cap (this may take nodes offline —
  //    after the buffer pass, by design).
  for (unsigned n = 0; n < nodes; ++n) {
    machine.restore_node_telemetry(n, snap.node_telemetry[n]);
    machine.restore_node_power_state(n, snap.node_power[n]);
  }
  machine.set_power_cap_watts(snap.power_cap_watts);

  // 5. Policy pipeline: sampler RNG/periods, classifier EMAs/streaks,
  //    engine stats + the rendered pre-crash narrative.
  if (snap.has_policy && targets.policy != nullptr) {
    targets.policy->mutable_sampler().restore_state(snap.sampler);
    targets.policy->mutable_classifier().restore_state(
        snap.classifier_states, snap.classifier_ema_total_bytes);
    targets.policy->mutable_engine().restore_stats(snap.engine_stats,
                                                   snap.engine_max_epoch_bytes);
    targets.policy->mutable_engine().restore_log_prefix(snap.decision_log);
  }

  // 6. Health — after telemetry, so last_errors and the counters it will be
  //    differenced against come from the same snapshot.
  if (snap.has_health && targets.health != nullptr) {
    targets.health->restore_state(snap.health_poll_count, snap.health_nodes);
  }

  if (snap.has_governor && targets.governor != nullptr) {
    targets.governor->restore_state(snap.governor_stats,
                                    snap.governor_streaks);
  }

  if (snap.has_supervisor && targets.supervisor != nullptr) {
    targets.supervisor->migration_breaker().restore_state(
        snap.migration_breaker);
    targets.supervisor->evacuation_breaker().restore_state(
        snap.evacuation_breaker);
    targets.supervisor->watchdog().restore_state(snap.watchdog);
  }

  // 7. Fault sites LAST: restore_site overwrites each stream absolutely, so
  //    any consultations the rebuild itself made are erased and the restored
  //    schedule continues exactly where the snapshot stopped.
  if (snap.has_faults && targets.faults != nullptr) {
    for (const fault::FaultInjector::SiteState& site : snap.fault_sites) {
      targets.faults->restore_site(site);
    }
  }
  return {};
}

}  // namespace hetmem::recover
