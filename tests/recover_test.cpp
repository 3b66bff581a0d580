// Crash resilience (docs/RECOVERY.md): snapshot/restore byte-identity,
// never-partial-restore rejection of damaged files, watchdog verdicts, and
// circuit-breaker trip/probe/reclose schedules.
//
// The determinism claims are exact, in the style of tests/trace_test.cpp:
// a run that is killed at epoch N, snapshotted, restored into an
// identically-prepared testbed and continued must render the SAME decision
// log, byte for byte, as a run that was never interrupted — including the
// sampler's stochastic-rounding streams (exact, 1/10-subsampled, and
// adaptive-period variants).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "hetmem/alloc/allocator.hpp"
#include "hetmem/fault/fault.hpp"
#include "hetmem/health/evacuator.hpp"
#include "hetmem/health/health.hpp"
#include "hetmem/hmat/hmat.hpp"
#include "hetmem/memattr/memattr.hpp"
#include "hetmem/power/governor.hpp"
#include "hetmem/recover/breaker.hpp"
#include "hetmem/recover/snapshot.hpp"
#include "hetmem/recover/supervisor.hpp"
#include "hetmem/recover/watchdog.hpp"
#include "hetmem/runtime/policy.hpp"
#include "hetmem/simmem/array.hpp"
#include "hetmem/simmem/exec.hpp"
#include "hetmem/simmem/machine.hpp"
#include "hetmem/support/line_codec.hpp"
#include "hetmem/support/rng.hpp"
#include "hetmem/support/units.hpp"
#include "hetmem/tenant/tenant.hpp"
#include "hetmem/topo/presets.hpp"
#include "hetmem/trace/trace.hpp"
#include "text_records.hpp"

namespace {

using namespace hetmem;
using hetmem_test::first_tagged;
using hetmem_test::first_word;
using hetmem_test::lines_of;
using hetmem_test::with_field;
using hetmem_test::with_line;
using support::kGiB;
using support::kMiB;

constexpr unsigned kThreads = 4;
constexpr std::uint64_t kBufferBytes = 1 * kGiB;

/// Identically-constructible testbed (tests/trace_test.cpp's Scenario):
/// Xeon with squeezed fast memory and three 1 GiB buffers parked on the
/// NVDIMM node, so every instance has the same buffer ids, placements and
/// rankings — the precondition for a restored run continuing byte-for-byte.
struct Scenario {
  sim::SimMachine machine;
  attr::MemAttrRegistry registry;
  alloc::HeterogeneousAllocator allocator;
  support::Bitmap initiator;
  unsigned fast = 0;
  unsigned slow = 0;
  std::vector<sim::BufferId> buffers;
  bool ok = false;

  Scenario()
      : machine(topo::xeon_clx_1lm()),
        registry(machine.topology()),
        allocator(machine, registry),
        initiator(machine.topology().numa_node(0)->cpuset()) {
    if (!hmat::load_into(registry, hmat::generate(machine.topology())).ok()) {
      return;
    }
    for (const topo::Object* node : machine.topology().numa_nodes()) {
      if (node->memory_kind() == topo::MemoryKind::kNVDIMM) {
        slow = node->logical_index();
      }
    }
    const std::uint64_t headroom = kBufferBytes + kBufferBytes / 2;
    const std::uint64_t fast_free = machine.available_bytes(fast);
    if (fast_free > headroom) {
      auto hog =
          machine.allocate(fast_free - headroom, fast, "resident.hog", 4096);
      if (!hog.ok()) return;
    }
    for (unsigned i = 0; i < 3; ++i) {
      auto buffer = machine.allocate(kBufferBytes, slow,
                                     "seg" + std::to_string(i), 1u << 16);
      if (!buffer.ok()) return;
      buffers.push_back(*buffer);
    }
    ok = true;
  }
};

runtime::RuntimePolicyOptions scenario_options() {
  runtime::RuntimePolicyOptions options;
  options.classifier.ema_alpha = 0.85;
  options.classifier.hysteresis_epochs = 2;
  options.engine.expected_future_epochs = 50.0;
  return options;
}

trace::Trace rotation_trace(unsigned epochs) {
  Scenario probe;
  EXPECT_TRUE(probe.ok);
  trace::SynthOptions synth;
  synth.epochs = epochs;
  return trace::synthesize_rotation(probe.buffers, 6, 0.002, synth);
}

/// A trace holding `trace`'s epochs in [begin, end).
trace::Trace slice(const trace::Trace& trace, std::size_t begin,
                   std::size_t end) {
  trace::Trace out = trace;
  out.epochs.assign(trace.epochs.begin() + static_cast<std::ptrdiff_t>(begin),
                    trace.epochs.begin() + static_cast<std::ptrdiff_t>(end));
  return out;
}

// ---------------------------------------------------------------------------
// Format: round trip, rejection of damage
// ---------------------------------------------------------------------------

/// Builds a snapshot with every section populated: buffers (live, migrated,
/// freed), tenants (live and dead), policy mid-run, armed fault sites, and
/// supervisor state.
recover::Snapshot rich_snapshot(Scenario& scenario, fault::FaultInjector& faults,
                                runtime::RuntimePolicy& policy,
                                recover::Supervisor& supervisor) {
  recover::CaptureSources sources;
  sources.machine = &scenario.machine;
  sources.allocator = &scenario.allocator;
  sources.policy = &policy;
  sources.faults = &faults;
  sources.supervisor = &supervisor;
  sources.machine_preset = "xeon_clx_1lm";
  return recover::capture(sources);
}

TEST(SnapshotFormatTest, SerializeParseIsAFixedPoint) {
  Scenario scenario;
  ASSERT_TRUE(scenario.ok);
  fault::FaultInjector faults(42);
  fault::FaultSpec spec;
  spec.probability = 0.25;
  faults.configure(fault::site::kMachineMigrateTransient, spec);
  for (int i = 0; i < 10; ++i) {
    (void)faults.should_fail(fault::site::kMachineMigrateTransient);
  }
  runtime::RuntimePolicyOptions options = scenario_options();
  options.sampler.sample_period = 10.0;
  runtime::RuntimePolicy policy(scenario.allocator, scenario.initiator,
                                options);
  recover::Supervisor supervisor(&faults);
  supervisor.attach(policy);
  trace::TraceReplayer replayer(policy);
  (void)replayer.replay(rotation_trace(12));

  const recover::Snapshot snap =
      rich_snapshot(scenario, faults, policy, supervisor);
  const std::string text = recover::serialize(snap);
  EXPECT_EQ(text.rfind("hetmem-snap/1\n", 0), 0u);

  auto parsed = recover::parse(text);
  ASSERT_TRUE(parsed.ok()) << parsed.error().message;
  // Fixed point: serializing the parse reproduces the exact text — which
  // covers bit-exactness of every hexfloat field in one stroke.
  EXPECT_EQ(recover::serialize(*parsed), text);
  EXPECT_EQ(parsed->buffers_total, scenario.machine.total_buffer_count());
  EXPECT_EQ(parsed->decision_log, policy.engine().render_decision_log());
  EXPECT_TRUE(parsed->has_faults);
  EXPECT_EQ(parsed->fault_seed, 42u);
  EXPECT_TRUE(parsed->has_supervisor);
}

/// rich_snapshot's setup plus a tenant registry (one live tenant, one
/// deregistered tenant that still owns a buffer), a reservation, a health
/// monitor and a power governor, driven through TraceReplayer, which never
/// times the sampler on the host clock. The text fills all 24 record types
/// and is the same on every run; empty when the setup fails.
std::string pinned_snapshot_text() {
  Scenario scenario;
  tenant::TenantRegistry tenants;
  scenario.allocator.set_tenant_registry(&tenants);
  auto live = tenants.register_tenant("live", tenant::Priority::kNormal,
                                      tenant::TenantQuota{});
  auto doomed = tenants.register_tenant(
      "doomed", tenant::Priority::kBestEffort, tenant::TenantQuota{});
  if (!scenario.ok || !live.ok() || !doomed.ok()) return {};
  alloc::AllocRequest request;
  request.bytes = 64 * kMiB;
  request.initiator = scenario.initiator;
  request.label = "charged";
  request.tenant = *live;
  if (!scenario.allocator.mem_alloc(request).ok()) return {};
  request.bytes = 32 * kMiB;
  request.label = "orphaned";
  request.tenant = *doomed;
  if (!scenario.allocator.mem_alloc(request).ok()) return {};
  if (!tenants.deregister_tenant(*doomed).ok()) return {};
  if (!scenario.allocator.reserve(scenario.fast, 8 * kMiB).ok()) return {};

  fault::FaultInjector faults(42);
  fault::FaultSpec spec;
  spec.probability = 0.25;
  faults.configure(fault::site::kMachineMigrateTransient, spec);
  for (int i = 0; i < 10; ++i) {
    (void)faults.should_fail(fault::site::kMachineMigrateTransient);
  }
  runtime::RuntimePolicyOptions options = scenario_options();
  options.sampler.sample_period = 10.0;
  runtime::RuntimePolicy policy(scenario.allocator, scenario.initiator,
                                options);
  health::HealthMonitor monitor(scenario.machine, scenario.registry);
  health::Evacuator evacuator(scenario.allocator, policy.mutable_engine(),
                              scenario.initiator);
  health::attach_health(policy, monitor, evacuator);
  power::PowerGovernor governor(scenario.allocator, policy.mutable_engine(),
                                scenario.initiator);
  power::attach_governor(policy, governor);
  recover::Supervisor supervisor(&faults);
  supervisor.attach(policy);
  trace::TraceReplayer replayer(policy);
  (void)replayer.replay(rotation_trace(12));

  recover::CaptureSources sources;
  sources.machine = &scenario.machine;
  sources.allocator = &scenario.allocator;
  sources.tenants = &tenants;
  sources.policy = &policy;
  sources.health = &monitor;
  sources.governor = &governor;
  sources.faults = &faults;
  sources.supervisor = &supervisor;
  sources.machine_preset = "xeon_clx_1lm";
  return recover::serialize(recover::capture(sources));
}

TEST(SnapshotFormatTest, SerializedSnapshotMatchesRecordedDigest) {
  const std::string text = pinned_snapshot_text();
  ASSERT_FALSE(text.empty());
  std::set<std::string> tags;
  for (const std::string& line : lines_of(text)) tags.insert(first_word(line));
  const std::set<std::string> want = {
      "hetmem-snap/1", "preset",  "machine",    "node",   "npower",
      "buffers",       "buffer",  "tenant",     "tnext",  "astats",
      "reserved",      "sampler", "period",     "classifier",
      "cstate",        "engine",  "dlog",       "health", "hnode",
      "governor",      "gstreak", "faults",     "fsite",  "breaker",
      "watchdog",      "checksum", "end"};
  EXPECT_EQ(tags, want);
  // Pinned bytes: any change to how a record is written moves them, and a
  // wire-format change needs a new `hetmem-snap` version.
  EXPECT_EQ(text.size(), 2944u);
  EXPECT_EQ(support::fnv1a64(text), 0xd90ef77f980a9defull)
      << std::hex << support::fnv1a64(text);
}

/// Numeric fields ahead of the free-text tail, for the records that end in
/// one; every other record's fields are all numeric.
std::size_t numeric_fields(const std::string& line) {
  const std::string tag = first_word(line);
  if (tag == "preset") return 1;
  if (tag == "buffer") return 6;
  if (tag == "tenant") return 14;
  if (tag == "fsite") return 12;
  return static_cast<std::size_t>(
      std::count(line.begin(), line.end(), ' '));
}

TEST(SnapshotRejectionTest, EveryNumericFieldAndIndexIsChecked) {
  const std::string text = pinned_snapshot_text();
  ASSERT_FALSE(text.empty());
  const std::vector<std::string> lines = lines_of(text);
  const std::set<std::string> indexed = {"node",   "npower", "buffer", "period",
                                         "cstate", "hnode",  "gstreak"};
  std::size_t cases = 0;
  auto expect_malformed = [&](std::size_t at, const std::string& line) {
    auto parsed = recover::parse(with_line(lines, at, line));
    ASSERT_FALSE(parsed.ok()) << line;
    EXPECT_EQ(parsed.error().message,
              "snapshot parse error at line " + std::to_string(at + 1) +
                  ": malformed " + first_word(lines[at]) + " record")
        << line;
    ++cases;
  };
  // A field past the record's last is refused too, once per tag. A record
  // that ends in free text reads any trailing words as part of it.
  const std::set<std::string> text_tailed = {"preset", "buffer", "tenant",
                                             "fsite"};
  std::set<std::string> trailed;
  for (std::size_t at = 1; at < lines.size(); ++at) {
    const std::string tag = first_word(lines[at]);
    if (tag == "dlog" || tag == "checksum" || tag == "end") continue;
    for (std::size_t field = 1; field <= numeric_fields(lines[at]); ++field) {
      expect_malformed(at, with_field(lines[at], field, "x"));
    }
    if (indexed.count(tag) != 0) {
      const std::uint64_t index = std::stoull(lines[at].substr(tag.size()));
      expect_malformed(at, with_field(lines[at], 1, std::to_string(index + 1)));
    }
    if (text_tailed.count(tag) == 0 && trailed.insert(tag).second) {
      expect_malformed(at, lines[at] + " 0");
    }
  }
  EXPECT_GT(cases, 300u);
  EXPECT_EQ(trailed.size(), 19u);
}

/// Rewrites the checksum line to match the (possibly damaged) payload, so
/// the damage reaches the record parsers instead of stopping at the
/// checksum.
std::string rechecksummed(std::string text) {
  const std::size_t header_end = text.find('\n');
  const std::size_t at = text.rfind("\nchecksum ");
  if (header_end == std::string::npos || at == std::string::npos ||
      at < header_end) {
    return text;
  }
  const std::size_t digits = at + 10;
  const std::size_t line_end = text.find('\n', digits);
  char hex[32];
  std::snprintf(hex, sizeof(hex), "%016llx",
                static_cast<unsigned long long>(support::fnv1a64(
                    std::string_view(text).substr(header_end + 1,
                                                  at - header_end))));
  text.replace(digits,
               (line_end == std::string::npos ? text.size() : line_end) -
                   digits,
               hex);
  return text;
}

TEST(SnapshotRejectionTest, RangeChecksBoolsIntegersAndSigns) {
  // Inputs the parser accepted before its fields went through
  // support::FieldReader: it read any bool other than 1 as false, cut
  // integers to their field's width, let strtoull take signs, leading
  // whitespace and out-of-range values, and grew the reservation table to
  // whatever node a `reserved` record named.
  const std::string text = pinned_snapshot_text();
  ASSERT_FALSE(text.empty());
  const std::vector<std::string> lines = lines_of(text);
  struct Case {
    const char* tag;
    std::size_t field;
    const char* value;
  };
  const Case cases[] = {
      // bools other than 0/1
      {"node", 8, "2"},
      {"node", 9, "2"},
      {"npower", 3, "2"},
      {"buffer", 5, "2"},
      {"tenant", 14, "2"},
      {"cstate", 2, "2"},
      {"fsite", 12, "2"},
      // integers too large for their 32-bit field
      {"buffer", 2, "4294967296"},
      {"buffer", 6, "4294967296"},
      {"tenant", 1, "4294967296"},
      {"tnext", 1, "4294967296"},
      {"sampler", 6, "4294967296"},
      {"cstate", 11, "4294967296"},
      {"hnode", 4, "4294967296"},
      {"gstreak", 2, "4294967296"},
      {"fsite", 3, "4294967296"},
      {"breaker", 3, "4294967296"},
      {"breaker", 14, "4294967296"},
      {"watchdog", 10, "4294967296"},
      // ... and for a 64-bit one
      {"astats", 1, "18446744073709551616"},
      {"machine", 1, "18446744073709551616"},
      // signs and leading whitespace
      {"astats", 1, "-1"},
      {"astats", 2, "+1"},
      {"engine", 1, "-1"},
      {"node", 1, "+0"},
      {"astats", 3, "\t1"},
      // a reservation on a node no `node` record listed
      {"reserved", 1, "4"},
  };
  for (const Case& c : cases) {
    const std::size_t at = first_tagged(lines, c.tag);
    ASSERT_LT(at, lines.size()) << c.tag;
    const std::string line = with_field(lines[at], c.field, c.value);
    auto parsed = recover::parse(with_line(lines, at, line));
    ASSERT_FALSE(parsed.ok()) << line;
    EXPECT_EQ(parsed.error().message,
              "snapshot parse error at line " + std::to_string(at + 1) +
                  ": malformed " + c.tag + " record")
        << line;
  }

  // The checksum is bare hex digits: no prefix, sign or leading space.
  const std::size_t digits = text.rfind("checksum ") + 9;
  for (const char* prefix : {"0x", "+", "\t"}) {
    std::string damaged = text;
    damaged.insert(digits, prefix);
    auto parsed = recover::parse(damaged);
    ASSERT_FALSE(parsed.ok()) << prefix;
    EXPECT_NE(parsed.error().message.find("malformed checksum"),
              std::string::npos)
        << parsed.error().message;
  }
}

TEST(SnapshotRejectionTest, SeededDamageFailsOrReachesAFixedPoint) {
  const std::string text = pinned_snapshot_text();
  ASSERT_FALSE(text.empty());
  ASSERT_TRUE(recover::parse(rechecksummed(text)).ok());
  support::Xoshiro256 rng(0x5eed5a9);
  std::size_t accepted = 0;
  for (int round = 0; round < 2000; ++round) {
    std::string damaged = hetmem_test::damage(text, rng);
    if (round % 2 == 1) damaged = rechecksummed(std::move(damaged));
    auto parsed = recover::parse(damaged);
    if (!parsed.ok()) {
      EXPECT_FALSE(parsed.error().message.empty());
      continue;
    }
    ++accepted;
    const std::string again = recover::serialize(*parsed);
    auto reparsed = recover::parse(again);
    ASSERT_TRUE(reparsed.ok()) << "round " << round << ": "
                               << reparsed.error().message;
    EXPECT_EQ(recover::serialize(*reparsed), again) << "round " << round;
  }
  EXPECT_GT(accepted, 0u) << "some damage must reach a successful parse";
}

TEST(SnapshotFormatTest, RejectsTruncatedBitFlippedAndVersionBumpedFiles) {
  Scenario scenario;
  ASSERT_TRUE(scenario.ok);
  recover::CaptureSources sources;
  sources.machine = &scenario.machine;
  sources.allocator = &scenario.allocator;
  const std::string text = recover::serialize(recover::capture(sources));
  ASSERT_TRUE(recover::parse(text).ok());

  // Empty and foreign headers.
  EXPECT_FALSE(recover::parse("").ok());
  auto bumped = recover::parse("hetmem-snap/2\nend\n");
  ASSERT_FALSE(bumped.ok());
  EXPECT_NE(bumped.error().message.find("unsupported snapshot header"),
            std::string::npos);
  EXPECT_NE(bumped.error().message.find("line 1"), std::string::npos);

  // Truncation anywhere — mid-line, mid-record, before the sentinel — is
  // rejected, never partially accepted.
  for (const std::size_t keep :
       {text.size() - 4, text.size() / 2, text.size() / 3}) {
    auto truncated = recover::parse(text.substr(0, keep));
    EXPECT_FALSE(truncated.ok()) << "kept " << keep << " bytes";
  }
  auto no_end = recover::parse(text.substr(0, text.size() - 4));
  ASSERT_FALSE(no_end.ok());
  EXPECT_NE(no_end.error().message.find("truncated"), std::string::npos);

  // A single flipped digit still parses line-by-line but fails the
  // checksum — the tripwire for corruption that stays syntactically valid.
  std::string flipped = text;
  const std::size_t digit = flipped.find("astats ") + 7;
  flipped[digit] = flipped[digit] == '1' ? '2' : '1';
  auto corrupt = recover::parse(flipped);
  ASSERT_FALSE(corrupt.ok());
  EXPECT_NE(corrupt.error().message.find("checksum mismatch"),
            std::string::npos);

  // Malformed records carry line diagnostics.
  auto garbled =
      recover::parse("hetmem-snap/1\nmachine two 0x0p+0\nend\n");
  ASSERT_FALSE(garbled.ok());
  EXPECT_NE(garbled.error().message.find("parse error at line 2"),
            std::string::npos);
  auto unknown = recover::parse("hetmem-snap/1\nbogus 1\nend\n");
  ASSERT_FALSE(unknown.ok());
  EXPECT_NE(unknown.error().message.find("unknown record"),
            std::string::npos);
}

TEST(SnapshotFormatTest, RestoreRefusesMismatchedTopologyWithoutMutating) {
  Scenario scenario;
  ASSERT_TRUE(scenario.ok);
  recover::CaptureSources sources;
  sources.machine = &scenario.machine;
  sources.allocator = &scenario.allocator;
  recover::Snapshot snap = recover::capture(sources);
  snap.node_count += 1;  // a snapshot from some other machine shape

  sim::SimMachine other(topo::xeon_clx_1lm());
  attr::MemAttrRegistry registry(other.topology());
  alloc::HeterogeneousAllocator allocator(other, registry);
  recover::RestoreTargets targets;
  targets.machine = &other;
  targets.allocator = &allocator;
  const support::Status refused = recover::restore(snap, targets);
  ASSERT_FALSE(refused.ok());
  EXPECT_NE(refused.error().message.find("topology mismatch"),
            std::string::npos);
  EXPECT_EQ(other.total_buffer_count(), 0u) << "nothing may be applied";
}

// ---------------------------------------------------------------------------
// The determinism gate: kill, restore, continue — byte-identical logs
// ---------------------------------------------------------------------------

/// Runs the full gate for one sampler configuration: the uninterrupted log
/// must equal the log of a run snapshotted (through TEXT, not in-memory
/// state) at `kill_epoch` and continued in a fresh identically-prepared
/// testbed.
void expect_restore_continues_byte_identically(
    const runtime::RuntimePolicyOptions& options, unsigned epochs,
    std::size_t kill_epoch) {
  const trace::Trace trace = rotation_trace(epochs);

  Scenario uninterrupted;
  ASSERT_TRUE(uninterrupted.ok);
  runtime::RuntimePolicy reference(uninterrupted.allocator,
                                   uninterrupted.initiator, options);
  trace::TraceReplayer ref_replayer(reference);
  (void)ref_replayer.replay(trace);
  const std::string want = reference.render_decision_log();
  ASSERT_FALSE(want.empty());

  // The crashing run: replay the prefix, snapshot, and "die".
  std::string text;
  {
    Scenario victim;
    ASSERT_TRUE(victim.ok);
    runtime::RuntimePolicy policy(victim.allocator, victim.initiator,
                                  options);
    trace::TraceReplayer replayer(policy);
    (void)replayer.replay(slice(trace, 0, kill_epoch));
    recover::CaptureSources sources;
    sources.machine = &victim.machine;
    sources.allocator = &victim.allocator;
    sources.policy = &policy;
    text = recover::serialize(recover::capture(sources));
  }

  // The restored run: fresh identical testbed, restore from the text,
  // continue with the remaining epochs.
  auto snap = recover::parse(text);
  ASSERT_TRUE(snap.ok()) << snap.error().message;
  Scenario restored;
  ASSERT_TRUE(restored.ok);
  runtime::RuntimePolicy policy(restored.allocator, restored.initiator,
                                options);
  recover::RestoreTargets targets;
  targets.machine = &restored.machine;
  targets.allocator = &restored.allocator;
  targets.policy = &policy;
  const support::Status applied = recover::restore(*snap, targets);
  ASSERT_TRUE(applied.ok()) << applied.error().message;
  trace::TraceReplayer replayer(policy);
  (void)replayer.replay(slice(trace, kill_epoch, trace.epochs.size()));

  EXPECT_EQ(policy.render_decision_log(), want);
  EXPECT_EQ(policy.engine().stats().accepted,
            reference.engine().stats().accepted);
}

TEST(SnapshotRestoreTest, ExactSamplingContinuesByteIdentically) {
  expect_restore_continues_byte_identically(scenario_options(), 24, 11);
}

TEST(SnapshotRestoreTest, SubsampledRngCursorsContinueByteIdentically) {
  // 1/10 subsampling consumes stochastic-rounding draws per sample: the
  // restored RNG cursors must resume mid-stream, not restart.
  runtime::RuntimePolicyOptions options = scenario_options();
  options.sampler.sample_period = 10.0;
  expect_restore_continues_byte_identically(options, 24, 13);
}

TEST(SnapshotRestoreTest, AdaptivePeriodLogContinuesByteIdentically) {
  // Adaptive mode: the controller's walked period trajectory (and its log,
  // which the policy renders) is part of the state.
  runtime::RuntimePolicyOptions options = scenario_options();
  options.sampler.sample_period = 2.0;
  options.sampler.adaptive = true;
  options.sampler.max_sample_period = 64.0;
  options.sampler.overhead_budget_fraction = 0.01;
  options.sampler.cost_model = [](const runtime::Epoch& epoch) {
    const double period =
        epoch.sample_period > 0.0 ? epoch.sample_period : 1.0;
    return epoch.duration_ns * 0.04 / period;
  };
  expect_restore_continues_byte_identically(options, 24, 9);
}

TEST(SnapshotRestoreTest, TenantChargesAndDeadTenantsSurvive) {
  Scenario scenario;
  ASSERT_TRUE(scenario.ok);
  tenant::TenantRegistry tenants;
  scenario.allocator.set_tenant_registry(&tenants);
  auto live = tenants.register_tenant("live", tenant::Priority::kNormal,
                                      tenant::TenantQuota{});
  ASSERT_TRUE(live.ok());
  auto doomed = tenants.register_tenant("doomed", tenant::Priority::kBestEffort,
                                        tenant::TenantQuota{});
  ASSERT_TRUE(doomed.ok());
  alloc::AllocRequest request;
  request.bytes = 64 * kMiB;
  request.initiator = scenario.initiator;
  request.label = "charged";
  request.tenant = *live;
  auto held = scenario.allocator.mem_alloc(request);
  ASSERT_TRUE(held.ok());
  // The doomed tenant holds a charge when it dies: its buffer stays live
  // and keeps the quota charged through the allocator's handle.
  alloc::AllocRequest doomed_request = request;
  doomed_request.bytes = 32 * kMiB;
  doomed_request.label = "orphaned";
  doomed_request.tenant = *doomed;
  auto orphaned = scenario.allocator.mem_alloc(doomed_request);
  ASSERT_TRUE(orphaned.ok());
  ASSERT_TRUE(tenants.deregister_tenant(*doomed).ok());

  recover::CaptureSources sources;
  sources.machine = &scenario.machine;
  sources.allocator = &scenario.allocator;
  sources.tenants = &tenants;
  auto snap = recover::parse(recover::serialize(recover::capture(sources)));
  ASSERT_TRUE(snap.ok()) << snap.error().message;

  Scenario fresh;
  ASSERT_TRUE(fresh.ok);
  tenant::TenantRegistry fresh_tenants;
  fresh.allocator.set_tenant_registry(&fresh_tenants);
  // Re-create the untracked allocation so the machines match slot-for-slot
  // (the allocator-owned buffer is restored by the charge-adoption pass).
  alloc::AllocRequest replayed = request;
  replayed.tenant = nullptr;
  auto placeholder = fresh.allocator.mem_alloc(replayed);
  ASSERT_TRUE(placeholder.ok());
  alloc::AllocRequest replay_orphan = doomed_request;
  replay_orphan.tenant = nullptr;
  auto orphan_placeholder = fresh.allocator.mem_alloc(replay_orphan);
  ASSERT_TRUE(orphan_placeholder.ok());
  recover::RestoreTargets targets;
  targets.machine = &fresh.machine;
  targets.allocator = &fresh.allocator;
  targets.tenants = &fresh_tenants;
  const support::Status applied = recover::restore(*snap, targets);
  ASSERT_TRUE(applied.ok()) << applied.error().message;

  tenant::TenantHandle restored_live = fresh_tenants.find("live");
  ASSERT_NE(restored_live, nullptr);
  EXPECT_EQ(restored_live->used_bytes(), 64 * kMiB)
      << "the live buffer's charge was re-adopted";
  EXPECT_EQ(fresh_tenants.find("doomed"), nullptr)
      << "dead tenants stay deregistered";
  // ... but the dead tenant's outstanding charge survives through the
  // allocator's handle, exactly as it would have in the original process.
  const tenant::TenantHandle orphan_owner =
      fresh.allocator.tenant_of(orphaned->buffer);
  ASSERT_NE(orphan_owner, nullptr);
  EXPECT_EQ(orphan_owner->name(), "doomed");
  EXPECT_FALSE(orphan_owner->live());
  EXPECT_EQ(orphan_owner->used_bytes(), 32 * kMiB);
  // The id space never rewinds: a new tenant gets a fresh id.
  auto next = fresh_tenants.register_tenant("after", tenant::Priority::kNormal,
                                            tenant::TenantQuota{});
  ASSERT_TRUE(next.ok());
  EXPECT_GT((*next)->id(), (*doomed)->id());
}

// ---------------------------------------------------------------------------
// Circuit breaker: state machine and deterministic schedules
// ---------------------------------------------------------------------------

recover::BreakerOptions tight_breaker() {
  recover::BreakerOptions options;
  options.failures_to_open = 3;
  options.successes_to_close = 2;
  options.cooldown_epochs = 2;
  return options;
}

TEST(CircuitBreakerTest, OpensAfterKFailuresProbesAndRecloses) {
  recover::CircuitBreaker breaker("migration", tight_breaker());
  EXPECT_EQ(breaker.state(), recover::BreakerState::kClosed);
  // K - 1 failures: still closed; a success resets the streak.
  breaker.on_failure(1);
  breaker.on_failure(2);
  breaker.on_success(3);
  breaker.on_failure(4);
  breaker.on_failure(5);
  EXPECT_EQ(breaker.state(), recover::BreakerState::kClosed);
  breaker.on_failure(6);
  EXPECT_EQ(breaker.state(), recover::BreakerState::kOpen);
  EXPECT_EQ(breaker.stats().opens, 1u);

  // First cooldown window is exactly cooldown_epochs (full jitter over an
  // un-grown window collapses to the floor): the probe lands at trip + 2.
  EXPECT_FALSE(breaker.allow(7));
  EXPECT_EQ(breaker.stats().skipped, 1u);
  EXPECT_TRUE(breaker.allow(8));  // probe
  EXPECT_EQ(breaker.state(), recover::BreakerState::kHalfOpen);
  breaker.on_success(8);
  EXPECT_EQ(breaker.state(), recover::BreakerState::kHalfOpen);
  breaker.on_success(9);
  EXPECT_EQ(breaker.state(), recover::BreakerState::kClosed);
  EXPECT_EQ(breaker.stats().recloses, 1u);
  EXPECT_FALSE(breaker.render_log().empty());
}

TEST(CircuitBreakerTest, FailedProbeReopensWithGrownWindow) {
  recover::CircuitBreaker breaker("migration", tight_breaker());
  for (std::uint64_t e = 1; e <= 3; ++e) breaker.on_failure(e);
  ASSERT_EQ(breaker.state(), recover::BreakerState::kOpen);
  ASSERT_TRUE(breaker.allow(5));  // past the 2-epoch cooldown: probe
  breaker.on_failure(5);          // probe fails
  EXPECT_EQ(breaker.state(), recover::BreakerState::kOpen);
  EXPECT_EQ(breaker.stats().opens, 2u);
  // The second window is jittered over a grown range but never below the
  // floor and never beyond floor * multiplier.
  const recover::CircuitBreaker::State state = breaker.export_state();
  EXPECT_GE(state.reopen_at_epoch, 5u + 2u);
  EXPECT_LE(state.reopen_at_epoch, 5u + 4u);
}

TEST(CircuitBreakerTest, ScheduleIsDeterministicPerSeedAndSurvivesRestore) {
  for (const std::uint64_t seed : {7ull, 99ull, 0xabcdefull}) {
    recover::BreakerOptions options = tight_breaker();
    options.backoff.seed = seed;
    recover::CircuitBreaker a("migration", options);
    recover::CircuitBreaker b("migration", options);
    recover::CircuitBreaker resumed("migration", options);
    // Drive a and b through an identical failure-heavy history; restore
    // `resumed` from a's mid-point state and continue in lockstep.
    for (std::uint64_t epoch = 0; epoch < 40; ++epoch) {
      if (epoch == 20) resumed.restore_state(a.export_state());
      const bool failing = epoch % 7 != 6;
      auto drive = [&](recover::CircuitBreaker& breaker) {
        if (!breaker.allow(epoch)) return;
        if (failing) {
          breaker.on_failure(epoch);
        } else {
          breaker.on_success(epoch);
        }
      };
      drive(a);
      drive(b);
      if (epoch >= 20) drive(resumed);
    }
    EXPECT_EQ(a.render_log(), b.render_log()) << "seed " << seed;
    EXPECT_EQ(a.export_state().reopen_at_epoch,
              resumed.export_state().reopen_at_epoch)
        << "seed " << seed;
    EXPECT_EQ(a.stats().opens, resumed.stats().opens) << "seed " << seed;
    EXPECT_GE(a.stats().opens, 2u) << "the history must actually trip";
  }
}

// ---------------------------------------------------------------------------
// Watchdog verdicts
// ---------------------------------------------------------------------------

TEST(WatchdogTest, DetectsStallSignatureAndDeadline) {
  recover::WatchdogOptions options;
  options.epoch_deadline_ns = 1000.0;
  options.stall_epochs_to_trip = 2;
  recover::Watchdog watchdog(nullptr, options);

  runtime::EngineStats engine;
  // Progress without failures: healthy.
  engine.accepted = 1;
  auto verdict = watchdog.observe_epoch(0, 500.0, engine);
  EXPECT_TRUE(verdict.healthy());
  EXPECT_TRUE(verdict.migration_active);

  // Failures without progress: failing immediately, stalled on the 2nd.
  engine.failed = 3;
  verdict = watchdog.observe_epoch(1, 500.0, engine);
  EXPECT_TRUE(verdict.migration_failing);
  EXPECT_FALSE(verdict.migration_stalled);
  engine.failed = 6;
  verdict = watchdog.observe_epoch(2, 500.0, engine);
  EXPECT_TRUE(verdict.migration_stalled);
  EXPECT_EQ(watchdog.stats().migration_stall_trips, 1u);

  // Progress resets the streak; a deadline overrun is flagged on its own.
  engine.accepted = 2;
  verdict = watchdog.observe_epoch(3, 1500.0, engine);
  EXPECT_FALSE(verdict.migration_failing);
  EXPECT_TRUE(verdict.epoch_overrun);
  EXPECT_EQ(watchdog.stats().overruns, 1u);
}

TEST(WatchdogTest, InjectedOverrunAndRestoredBaselines) {
  fault::FaultInjector faults(7);
  fault::FaultSpec spec;
  spec.probability = 1.0;
  spec.max_count = 1;
  faults.configure(fault::site::kRuntimeEpochOverrun, spec);
  recover::Watchdog watchdog(&faults);
  runtime::EngineStats engine;
  EXPECT_TRUE(watchdog.observe_epoch(0, 0.0, engine).epoch_overrun);
  EXPECT_FALSE(watchdog.observe_epoch(1, 0.0, engine).epoch_overrun)
      << "max_count exhausts the site";

  // Restore on a fresh watchdog: the cumulative-counter baseline rides
  // along, so the first post-restore epoch sees a delta, not a cliff.
  engine.failed = 100;
  (void)watchdog.observe_epoch(2, 0.0, engine);
  recover::Watchdog resumed(nullptr);
  resumed.restore_state(watchdog.export_state());
  engine.accepted = 1;  // progress alongside the old failure count
  const auto verdict = resumed.observe_epoch(3, 0.0, engine);
  EXPECT_FALSE(verdict.migration_failing)
      << "failed stayed at 100: no new failures after restore";
}

// ---------------------------------------------------------------------------
// Supervisor: a wedged migration path degrades to placement-only service
// ---------------------------------------------------------------------------

TEST(SupervisorTest, MigrationStallOpensBreakerThenProbesAndRecloses) {
  for (const std::uint64_t seed : {1ull, 2ull, 3ull}) {
    Scenario scenario;
    ASSERT_TRUE(scenario.ok);
    fault::FaultInjector faults(seed);
    scenario.machine.set_fault_injector(&faults);

    runtime::RuntimePolicy policy(scenario.allocator, scenario.initiator,
                                  scenario_options());
    recover::SupervisorOptions options;
    options.migration_breaker.failures_to_open = 3;
    options.migration_breaker.successes_to_close = 2;
    options.migration_breaker.cooldown_epochs = 2;
    recover::Supervisor supervisor(&faults, options);
    supervisor.attach(policy);
    trace::TraceReplayer replayer(policy);
    const trace::Trace trace = rotation_trace(48);

    // Phase 1: a permanently wedged migration path. Every attempt fails,
    // the watchdog sees failures-without-progress, and the breaker opens
    // within K = 3 failing epochs.
    fault::FaultSpec stall;
    stall.probability = 1.0;
    faults.configure(fault::site::kMachineMigrateStall, stall);
    (void)replayer.replay(slice(trace, 0, 12));
    EXPECT_GE(supervisor.migration_breaker().stats().opens, 1u)
        << "seed " << seed;
    EXPECT_GT(supervisor.migration_breaker().stats().skipped, 0u)
        << "open epochs must short-circuit the engine pass (seed " << seed
        << ")";
    EXPECT_GT(policy.engine().stats().failed, 0u);

    // Placement-only service stayed up the whole time: the classifier kept
    // observing epochs even while the engine was gated off.
    EXPECT_GT(policy.sampler().epochs_emitted(), 0u);

    // Phase 2: the stall clears; the next half-open probe succeeds and the
    // breaker recloses after the clean streak.
    fault::FaultSpec clear;
    clear.probability = 0.0;
    faults.configure(fault::site::kMachineMigrateStall, clear);
    (void)replayer.replay(slice(trace, 12, 48));
    EXPECT_GE(supervisor.migration_breaker().stats().recloses, 1u)
        << "seed " << seed;
    EXPECT_EQ(supervisor.migration_breaker().state(),
              recover::BreakerState::kClosed)
        << "seed " << seed;
  }
}

TEST(SupervisorTest, BreakerLookupAndLog) {
  recover::Supervisor supervisor;
  EXPECT_NE(supervisor.breaker("migration"), nullptr);
  EXPECT_NE(supervisor.breaker("evacuation"), nullptr);
  EXPECT_EQ(supervisor.breaker("nonsense"), nullptr);
  EXPECT_TRUE(supervisor.render_log().empty());
}

// ---------------------------------------------------------------------------
// Kill-at-random-epoch chaos (named for the TSan lane's
// `ctest -R 'Concurrency|InterleavingFuzz'` chaos set)
// ---------------------------------------------------------------------------

TEST(RecoveryConcurrencyTest, KillAtRandomEpochRestoresAcrossThreeSeeds) {
  for (const std::uint64_t seed : {11ull, 22ull, 33ull}) {
    support::Xoshiro256 rng(seed);
    const unsigned kill_after = 2 + static_cast<unsigned>(rng.next_below(6));

    // The "daemon": a live multithreaded workload with an attached policy.
    Scenario victim;
    ASSERT_TRUE(victim.ok);
    sim::Array<double> streamed(victim.machine, victim.buffers[0]);
    sim::Array<double> chased(victim.machine, victim.buffers[1]);
    sim::ExecutionContext exec(victim.machine, victim.initiator, kThreads);
    runtime::RuntimePolicy policy(victim.allocator, victim.initiator,
                                  scenario_options());
    policy.attach(exec, [&] {
      streamed.refresh_model();
      chased.refresh_model();
    });
    auto run_phases = [&](unsigned count) {
      for (unsigned phase = 0; phase < count; ++phase) {
        exec.run_phase("stream", kThreads,
                       [&](sim::ThreadCtx& ctx, unsigned, std::size_t begin,
                           std::size_t end) {
                         if (begin >= end) return;
                         streamed.record_bulk_read(ctx, 256.0 * kMiB);
                         chased.record_bulk_random_reads(ctx, 1e6);
                       });
      }
    };
    run_phases(kill_after);

    // Kill: serialize between epochs, drop the whole testbed on the floor.
    recover::CaptureSources sources;
    sources.machine = &victim.machine;
    sources.allocator = &victim.allocator;
    sources.policy = &policy;
    const std::string text = recover::serialize(recover::capture(sources));
    const alloc::AllocatorStats at_kill = victim.allocator.stats();
    const std::size_t live_at_kill = victim.machine.live_buffer_count();

    // Restore into a fresh identically-prepared testbed and keep serving.
    auto snap = recover::parse(text);
    ASSERT_TRUE(snap.ok()) << snap.error().message;
    Scenario restored;
    ASSERT_TRUE(restored.ok);
    sim::Array<double> streamed2(restored.machine, restored.buffers[0]);
    sim::Array<double> chased2(restored.machine, restored.buffers[1]);
    sim::ExecutionContext exec2(restored.machine, restored.initiator,
                                kThreads);
    runtime::RuntimePolicy policy2(restored.allocator, restored.initiator,
                                   scenario_options());
    policy2.attach(exec2, [&] {
      streamed2.refresh_model();
      chased2.refresh_model();
    });
    recover::RestoreTargets targets;
    targets.machine = &restored.machine;
    targets.allocator = &restored.allocator;
    targets.policy = &policy2;
    const support::Status applied = recover::restore(*snap, targets);
    ASSERT_TRUE(applied.ok()) << applied.error().message;

    EXPECT_EQ(restored.machine.live_buffer_count(), live_at_kill)
        << "seed " << seed;
    EXPECT_EQ(restored.allocator.stats().allocations, at_kill.allocations)
        << "seed " << seed;
    EXPECT_EQ(policy2.sampler().epochs_emitted(),
              policy.sampler().epochs_emitted())
        << "seed " << seed;
    const std::string log_at_kill = policy.engine().render_decision_log();
    EXPECT_EQ(policy2.engine().render_decision_log(), log_at_kill)
        << "seed " << seed;

    const std::uint64_t epochs_before = policy2.sampler().epochs_emitted();
    for (unsigned phase = 0; phase < 4; ++phase) {
      exec2.run_phase("stream", kThreads,
                      [&](sim::ThreadCtx& ctx, unsigned, std::size_t begin,
                          std::size_t end) {
                        if (begin >= end) return;
                        streamed2.record_bulk_read(ctx, 256.0 * kMiB);
                        chased2.record_bulk_random_reads(ctx, 1e6);
                      });
    }
    EXPECT_GT(policy2.sampler().epochs_emitted(), epochs_before)
        << "the restored service keeps emitting epochs (seed " << seed << ")";
  }
}

}  // namespace
