/**
 * @file
 * Tests for src/obs: the event ring (wrap, overflow accounting, drain
 * ordering, the disabled-path contract), the metric registry
 * (idempotent registration, kind-collision panics, snapshot/merge
 * determinism across campaign worker counts), the Chrome trace-event
 * exporter (well-formed JSON, drop reporting), the merged campaign
 * trace, phase profiling, and the observation-must-not-perturb
 * contract.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "common/json.hh"
#include "common/logging.hh"
#include "common/random.hh"
#include "cpu/program.hh"
#include "exp/campaign.hh"
#include "obs/chrome_trace.hh"
#include "obs/cli.hh"
#include "obs/event_trace.hh"
#include "obs/metrics.hh"
#include "obs/observer.hh"
#include "obs/prof.hh"
#include "os/machine.hh"

using namespace uscope;

// ---------------------------------------------------------------------
// The event ring.
// ---------------------------------------------------------------------

TEST(EventTrace, DisabledPathRecordsNothing)
{
    obs::EventTrace trace(16);
    ASSERT_FALSE(trace.enabled());
    for (int i = 0; i < 100; ++i)
        trace.record(obs::EventKind::Retire);
    EXPECT_EQ(trace.totalRecorded(), 0u);
    EXPECT_TRUE(trace.drain().empty());
}

TEST(EventTrace, CapacityRoundsUpToPowerOfTwo)
{
    obs::EventTrace trace(5);
    EXPECT_EQ(trace.capacity(), 8u);
    trace.reserve(16);
    EXPECT_EQ(trace.capacity(), 16u);
}

TEST(EventTrace, EnableWithoutCapacityPanics)
{
    obs::EventTrace trace;
    EXPECT_THROW(trace.setEnabled(true), SimPanic);
    EXPECT_THROW(trace.reserve(0), SimFatal);
}

TEST(EventTrace, WrapOverflowAndDrainOrder)
{
    obs::EventTrace trace(8);
    std::uint64_t cycle = 0;
    trace.bindClock(&cycle);
    trace.setEnabled(true);

    // 20 records into 8 slots: the 12 oldest are overwritten.
    for (cycle = 0; cycle < 20; ++cycle)
        trace.record(obs::EventKind::Retire, 0,
                     static_cast<std::uint16_t>(cycle), cycle * 64);

    const obs::EventLog log = trace.drain();
    EXPECT_EQ(log.total, 20u);
    EXPECT_EQ(log.dropped, 12u);
    ASSERT_EQ(log.events.size(), 8u);
    // Oldest first: cycles 12..19 in order.
    for (std::size_t i = 0; i < log.events.size(); ++i) {
        EXPECT_EQ(log.events[i].cycle, 12 + i);
        EXPECT_EQ(log.events[i].b, 12 + i);
        EXPECT_EQ(log.events[i].addr, (12 + i) * 64);
    }

    trace.clear();
    EXPECT_EQ(trace.totalRecorded(), 0u);
    EXPECT_TRUE(trace.drain().empty());
}

TEST(EventTrace, RecordAtBackdatesSubEvents)
{
    // Page walks complete without advancing the core clock; their
    // sub-events are stamped at start + accumulated latency.
    obs::EventTrace trace(8);
    std::uint64_t cycle = 500;
    trace.bindClock(&cycle);
    trace.setEnabled(true);

    const std::uint64_t start = trace.now();
    EXPECT_EQ(start, 500u);
    trace.recordAt(start, obs::EventKind::WalkStart);
    trace.recordAt(start + 40, obs::EventKind::WalkStep);
    trace.recordAt(start + 90, obs::EventKind::WalkEnd);

    const obs::EventLog log = trace.drain();
    ASSERT_EQ(log.events.size(), 3u);
    EXPECT_EQ(log.events[0].cycle, 500u);
    EXPECT_EQ(log.events[1].cycle, 540u);
    EXPECT_EQ(log.events[2].cycle, 590u);
}

// ---------------------------------------------------------------------
// The metric registry.
// ---------------------------------------------------------------------

TEST(Metrics, RegistrationIsIdempotent)
{
    obs::MetricRegistry registry;
    registry.counter("core.retired").inc(3);
    registry.counter("core.retired").inc(4);
    EXPECT_EQ(registry.counter("core.retired").value(), 7u);
    EXPECT_EQ(registry.size(), 1u);
}

TEST(Metrics, KindCollisionPanics)
{
    obs::MetricRegistry registry;
    registry.counter("vm.walker.steps");
    EXPECT_THROW(registry.gauge("vm.walker.steps"), SimPanic);
    EXPECT_THROW(registry.latency("vm.walker.steps"), SimPanic);

    registry.latency("os.faults.handler_latency");
    EXPECT_THROW(registry.counter("os.faults.handler_latency"),
                 SimPanic);
}

TEST(Metrics, SnapshotIsNameSorted)
{
    obs::MetricRegistry registry;
    registry.counter("z.last").set(1);
    registry.counter("a.first").set(2);
    registry.gauge("m.middle").set(3.0);

    const obs::MetricSnapshot snap = registry.snapshot();
    ASSERT_EQ(snap.size(), 3u);
    EXPECT_EQ(snap.values[0].name, "a.first");
    EXPECT_EQ(snap.values[1].name, "m.middle");
    EXPECT_EQ(snap.values[2].name, "z.last");
    ASSERT_NE(snap.find("m.middle"), nullptr);
    EXPECT_EQ(snap.find("m.middle")->gauge, 3.0);
    EXPECT_EQ(snap.find("absent"), nullptr);
}

TEST(Metrics, MergeSumsAndKeepsUniqueNames)
{
    obs::MetricRegistry ra;
    ra.counter("shared.count").set(10);
    ra.gauge("shared.gauge").set(1.5);
    ra.latency("shared.lat").record(100.0);
    ra.counter("only.a").set(7);

    obs::MetricRegistry rb;
    rb.counter("shared.count").set(32);
    rb.gauge("shared.gauge").set(2.5);
    rb.latency("shared.lat").record(300.0);
    rb.counter("only.b").set(9);

    obs::MetricSnapshot merged = ra.snapshot();
    merged.merge(rb.snapshot());

    EXPECT_EQ(merged.find("shared.count")->counter, 42u);
    EXPECT_EQ(merged.find("shared.gauge")->gauge, 4.0);
    EXPECT_EQ(merged.find("shared.lat")->latency.count(), 2u);
    EXPECT_EQ(merged.find("shared.lat")->latency.mean(), 200.0);
    EXPECT_EQ(merged.find("only.a")->counter, 7u);
    EXPECT_EQ(merged.find("only.b")->counter, 9u);
}

TEST(Metrics, MergeKindMismatchPanics)
{
    obs::MetricRegistry ra;
    ra.counter("x");
    obs::MetricRegistry rb;
    rb.gauge("x");
    obs::MetricSnapshot snap = ra.snapshot();
    EXPECT_THROW(snap.merge(rb.snapshot()), SimPanic);
}

namespace
{

/** A campaign whose trials export seed-dependent metrics. */
exp::CampaignSpec
metricSpec(unsigned workers)
{
    exp::CampaignSpec spec;
    spec.name = "obs-metrics";
    spec.trials = 24;
    spec.masterSeed = 7;
    spec.workers = workers;
    spec.body = [](const exp::TrialContext &ctx) {
        Rng rng(ctx.seed);
        obs::MetricRegistry registry;
        registry.counter("t.count").set(rng.below(1000));
        registry.gauge("t.gauge").set(rng.uniform());
        auto &lat = registry.latency("t.latency");
        for (int i = 0; i < 63; ++i)
            lat.record(rng.uniform() * 400.0);

        exp::TrialOutput out;
        out.metrics = registry.snapshot();
        return out;
    };
    return spec;
}

} // namespace

TEST(Metrics, MergeBitIdenticalAcrossWorkerCounts)
{
    const exp::CampaignResult w1 = exp::runCampaign(metricSpec(1));
    const exp::CampaignResult w2 = exp::runCampaign(metricSpec(2));
    const exp::CampaignResult w4 = exp::runCampaign(metricSpec(4));

    // Bit-exact by contract: merged in trial-index order, never in
    // completion order.
    const std::string j1 = w1.aggregate.metrics.toJson().dump();
    EXPECT_EQ(j1, w2.aggregate.metrics.toJson().dump());
    EXPECT_EQ(j1, w4.aggregate.metrics.toJson().dump());

    const obs::MetricValue *lat = w1.aggregate.metrics.find("t.latency");
    ASSERT_NE(lat, nullptr);
    EXPECT_EQ(lat->latency.count(), 24u * 63u);
}

// ---------------------------------------------------------------------
// The Chrome trace-event exporter.
// ---------------------------------------------------------------------

namespace
{

/** Minimal structural JSON check: balanced outside string literals. */
bool
jsonWellFormed(const std::string &text)
{
    long braces = 0;
    long brackets = 0;
    bool in_string = false;
    bool escaped = false;
    for (char c : text) {
        if (in_string) {
            if (escaped)
                escaped = false;
            else if (c == '\\')
                escaped = true;
            else if (c == '"')
                in_string = false;
            continue;
        }
        switch (c) {
          case '"': in_string = true; break;
          case '{': ++braces; break;
          case '}': --braces; break;
          case '[': ++brackets; break;
          case ']': --brackets; break;
          default: break;
        }
        if (braces < 0 || brackets < 0)
            return false;
    }
    return !in_string && braces == 0 && brackets == 0;
}

/** One log exercising every event kind, with a walk B/E span. */
obs::EventLog
sampleLog()
{
    obs::EventTrace trace(64);
    std::uint64_t cycle = 100;
    trace.bindClock(&cycle);
    trace.setEnabled(true);

    trace.recordAt(100, obs::EventKind::WalkStart, 4, 0, 0x7000);
    trace.recordAt(130, obs::EventKind::WalkStep, 3, 30, 0x1040);
    trace.recordAt(190, obs::EventKind::WalkEnd, 0, 90, 0x7000);
    trace.record(obs::EventKind::TlbMiss, 0, 0, 0x7000);
    trace.record(obs::EventKind::SpecIssue, 0, 12, 0x400);
    trace.record(obs::EventKind::Retire, 1, 12, 0x408);
    trace.record(obs::EventKind::Squash, 0, 14, 0x410);
    trace.record(obs::EventKind::PortConflict, 1, 9, 0x418);
    trace.record(obs::EventKind::CacheAccess, 2, 40, 0x2000);
    trace.record(obs::EventKind::PageFault, 0, 0, 0x7008);
    trace.record(obs::EventKind::Probe, 3, 300, 0x2040);
    trace.record(obs::EventKind::ReplayBoundary, 1, 3, 2);
    trace.record(obs::EventKind::EpisodeEnd, 0, 3, 2);
    return trace.drain();
}

} // namespace

TEST(ChromeTrace, WellFormedAndCoversEveryKind)
{
    const std::string text = obs::toChromeTraceJson(sampleLog());
    EXPECT_TRUE(jsonWellFormed(text));
    EXPECT_EQ(text.rfind("{\"traceEvents\":", 0), 0u);
    // Spans for the walk, instants elsewhere, track names as metadata.
    EXPECT_NE(text.find("\"ph\":\"B\""), std::string::npos);
    EXPECT_NE(text.find("\"ph\":\"E\""), std::string::npos);
    EXPECT_NE(text.find("\"ph\":\"i\""), std::string::npos);
    EXPECT_NE(text.find("thread_name"), std::string::npos);
    EXPECT_NE(text.find("page-walk"), std::string::npos);
    EXPECT_NE(text.find("replay"), std::string::npos);
}

TEST(ChromeTrace, RingDropsAreAnnotatedNeverSilent)
{
    obs::EventTrace trace(4);
    trace.setEnabled(true);
    for (int i = 0; i < 10; ++i)
        trace.record(obs::EventKind::Retire);
    const obs::EventLog log = trace.drain();
    ASSERT_EQ(log.dropped, 6u);

    const std::string text = obs::toChromeTraceJson(log);
    EXPECT_TRUE(jsonWellFormed(text));
    EXPECT_NE(text.find("dropped"), std::string::npos);
}

TEST(ChromeTrace, WriterCapIsAppliedAndReported)
{
    obs::ChromeTraceOptions options;
    options.maxEvents = 4;
    const std::string text = obs::toChromeTraceJson(sampleLog(), options);
    EXPECT_TRUE(jsonWellFormed(text));
    EXPECT_NE(text.find("dropped"), std::string::npos);
}

TEST(ChromeTrace, WriteCreatesParentDirectories)
{
    const std::filesystem::path path =
        std::filesystem::path(testing::TempDir()) / "obs-test" / "sub" /
        "trace.json";
    std::filesystem::remove_all(path.parent_path().parent_path());
    ASSERT_TRUE(obs::writeChromeTrace(path.string(), sampleLog()));
    EXPECT_TRUE(std::filesystem::exists(path));
    EXPECT_GT(std::filesystem::file_size(path), 0u);
}

// ---------------------------------------------------------------------
// A whole Machine under observation.
// ---------------------------------------------------------------------

namespace
{

os::MachineConfig
tracedConfig()
{
    os::MachineConfig config;
    config.obs.traceEvents = true;
    config.obs.traceCapacity = 1u << 12;
    return config;
}

/** Touch a few lines so the TLB, walker, caches and ROB all move. */
void
runSmallProgram(os::Machine &machine)
{
    auto &kernel = machine.kernel();
    const os::Pid pid = kernel.createProcess("obs-victim");
    const VAddr page = kernel.allocVirtual(pid, pageSize);
    cpu::ProgramBuilder b;
    b.movi(1, static_cast<std::int64_t>(page));
    for (unsigned i = 0; i < 8; ++i)
        b.ld(2, 1, static_cast<std::int64_t>(i * lineSize));
    b.halt();
    kernel.startOnContext(
        pid, 0, std::make_shared<const cpu::Program>(b.build()));
    ASSERT_TRUE(machine.runUntilHalted(0, 1'000'000));
}

} // namespace

TEST(Observer, MachineEmitsEventsAndMetrics)
{
    os::Machine machine(tracedConfig());
    runSmallProgram(machine);

    const obs::EventLog log = machine.observer().trace.drain();
    ASSERT_FALSE(log.empty());
    // Ring order is record order, not timestamp order: a walk's
    // sub-events are stamped at start + accumulated latency while the
    // core clock holds still (Perfetto sorts by ts on load).
    bool saw_walk = false;
    bool saw_retire = false;
    bool saw_access = false;
    for (const obs::Event &e : log.events) {
        saw_walk |= e.kind == obs::EventKind::WalkStart;
        saw_retire |= e.kind == obs::EventKind::Retire;
        saw_access |= e.kind == obs::EventKind::CacheAccess;
    }
    EXPECT_TRUE(saw_walk);
    EXPECT_TRUE(saw_retire);
    EXPECT_TRUE(saw_access);

    const obs::MetricSnapshot snap = machine.metricsSnapshot();
    ASSERT_NE(snap.find("core.retired"), nullptr);
    EXPECT_GT(snap.find("core.retired")->counter, 0u);
    ASSERT_NE(snap.find("vm.walker.walks"), nullptr);
    EXPECT_GT(snap.find("vm.walker.walks")->counter, 0u);
    ASSERT_NE(snap.find("mem.l1d.misses"), nullptr);

    // Snapshotting is read-only: two snapshots are identical.
    EXPECT_EQ(snap.toJson().dump(),
              machine.metricsSnapshot().toJson().dump());
}

TEST(Observer, TracingIsOffByDefaultAndCostsNothing)
{
    os::Machine machine{os::MachineConfig{}};
    EXPECT_FALSE(machine.observer().trace.enabled());
    runSmallProgram(machine);
    EXPECT_EQ(machine.observer().trace.totalRecorded(), 0u);
    // Metrics are snapshot-time exports and work regardless.
    EXPECT_GT(machine.metricsSnapshot().size(), 0u);
}

// ---------------------------------------------------------------------
// Bench CLI surface.
// ---------------------------------------------------------------------

TEST(BenchCli, ParsesTraceMetricsAndCapacity)
{
    const char *argv[] = {"bench",
                          "--trace=/tmp/custom.json",
                          "--metrics",
                          "--trace-capacity=4096"};
    const obs::BenchObsOptions opts = obs::parseBenchObsOptions(
        4, const_cast<char **>(argv), "default.json");
    EXPECT_TRUE(opts.trace);
    EXPECT_TRUE(opts.metrics);
    EXPECT_EQ(opts.tracePath, "/tmp/custom.json");
    EXPECT_EQ(opts.traceCapacity, 4096u);

    const char *bare[] = {"bench", "--trace"};
    const obs::BenchObsOptions defaults = obs::parseBenchObsOptions(
        2, const_cast<char **>(bare), "default.json");
    EXPECT_TRUE(defaults.trace);
    EXPECT_FALSE(defaults.metrics);
    EXPECT_EQ(defaults.tracePath, "default.json");

    const char *bad[] = {"bench", "--trace-capacity=zero"};
    EXPECT_THROW(obs::parseBenchObsOptions(
                     2, const_cast<char **>(bad), "d.json"),
                 SimPanic);

    // An unknown argument fails like a bad value: a misspelt flag
    // must not run the bench with its defaults.
    for (const char *unknown :
         {"--sectoin=3", "--pool=on", "--obs=trace", "trace"}) {
        const char *argvUnknown[] = {"bench", "--metrics", unknown};
        EXPECT_THROW(obs::parseBenchObsOptions(
                         3, const_cast<char **>(argvUnknown), "d.json"),
                     SimPanic)
            << unknown;
    }
}

// ---------------------------------------------------------------------
// The merged campaign trace (DESIGN.md §14).
// ---------------------------------------------------------------------

TEST(ChromeTrace, MergeGivesEachTrialOneTrackGroup)
{
    const obs::EventLog first = sampleLog();
    obs::EventLog wrapped = sampleLog();
    wrapped.dropped = 5;
    wrapped.total += 5;
    const obs::EventLog empty;
    // Trials 1 and 2 recorded nothing and are left out.
    const std::vector<const obs::EventLog *> trials = {
        &first, &empty, &empty, &wrapped};
    const std::size_t perLog = first.events.size();

    obs::ChromeTraceOptions options;
    options.maxEvents = perLog + 3;
    const json::Value doc = obs::mergeChromeTraces(trials, options);
    EXPECT_TRUE(jsonWellFormed(doc.dump()));

    const json::Value *events = doc.get("traceEvents");
    ASSERT_NE(events, nullptr);
    std::set<std::string> processNames;
    std::map<std::uint64_t, std::size_t> tracksPerPid, eventsPerPid;
    for (const json::Value &event : events->items()) {
        const json::Value *pid = event.get("pid");
        ASSERT_NE(pid, nullptr);
        const std::string &name = event.get("name")->asString();
        if (name == "process_name") {
            const std::string &label =
                event.get("args")->get("name")->asString();
            EXPECT_EQ(label, "trial " + std::to_string(pid->asU64()));
            processNames.insert(label);
        } else if (name == "thread_name") {
            ++tracksPerPid[pid->asU64()];
        } else {
            ++eventsPerPid[pid->asU64()];
        }
    }
    EXPECT_EQ(processNames,
              (std::set<std::string>{"trial 0", "trial 3"}));
    EXPECT_EQ(tracksPerPid,
              (std::map<std::uint64_t, std::size_t>{{0, 6}, {3, 6}}));
    // The writer cap keeps trial 0 whole and 3 events of trial 3.
    EXPECT_EQ(eventsPerPid,
              (std::map<std::uint64_t, std::size_t>{{0, perLog},
                                                    {3, 3}}));

    const json::Value *other = doc.get("otherData");
    ASSERT_NE(other, nullptr);
    EXPECT_EQ(other->get("trials")->asU64(), 2u);
    EXPECT_EQ(other->get("events_recorded")->asU64(),
              first.total + wrapped.total);
    EXPECT_EQ(other->get("events_ring_dropped")->asU64(), 5u);
    EXPECT_EQ(other->get("events_writer_capped")->asU64(), perLog - 3);
}

namespace
{

/** Where the traced campaign's warmup leaves its victim. */
struct WarmVictim
{
    os::Pid pid = 0;
    VAddr page = 0;
};

/** A traced campaign whose trials run a seed-sized load loop on a
 *  fork of a shared warmup. */
exp::CampaignSpec
tracedWarmupSpec(unsigned workers)
{
    exp::CampaignSpec spec;
    spec.name = "obs-merged-trace";
    spec.trials = 8;
    spec.masterSeed = 11;
    spec.workers = workers;
    spec.obsLevel = obs::ObsLevel::Trace;
    spec.machineFactory = [](const exp::TrialContext &) {
        os::MachineConfig config;
        config.obs.traceCapacity = 1u << 12;
        return config;
    };
    spec.warmup = [](os::Machine &m) -> std::shared_ptr<const void> {
        auto victim = std::make_shared<WarmVictim>();
        victim->pid = m.kernel().createProcess("obs-warm");
        victim->page = m.kernel().allocVirtual(victim->pid, pageSize);
        return victim;
    };
    spec.body = [](const exp::TrialContext &ctx) {
        os::Machine &m = *ctx.fork;
        const auto *victim =
            static_cast<const WarmVictim *>(ctx.warmupData);
        Rng rng(ctx.seed);
        cpu::ProgramBuilder b;
        b.movi(1, static_cast<std::int64_t>(victim->page));
        const unsigned loads = 1 + static_cast<unsigned>(rng.below(8));
        for (unsigned i = 0; i < loads; ++i)
            b.ld(2, 1, static_cast<std::int64_t>(i * lineSize));
        b.halt();
        m.kernel().startOnContext(
            victim->pid, 0,
            std::make_shared<const cpu::Program>(b.build()));
        if (!m.runUntilHalted(0, 1'000'000))
            throw std::runtime_error("victim did not halt");
        exp::TrialOutput out;
        out.simCycles = m.cycle() - ctx.forkCycle;
        return out;
    };
    return spec;
}

std::string
mergedTrace(const exp::CampaignResult &result)
{
    std::vector<const obs::EventLog *> logs;
    for (const exp::TrialResult &trial : result.trials)
        logs.push_back(&trial.output.trace);
    return obs::mergeChromeTraces(logs).dump();
}

} // namespace

TEST(ChromeTrace, MergedCampaignTraceIsIdenticalAcrossWorkerCounts)
{
    const exp::CampaignResult w1 =
        exp::runCampaign(tracedWarmupSpec(1));
    const exp::CampaignResult w4 =
        exp::runCampaign(tracedWarmupSpec(4));
    ASSERT_EQ(w1.aggregate.ok, 8u);
    ASSERT_EQ(w4.aggregate.ok, 8u);
    for (const exp::TrialResult &trial : w1.trials)
        ASSERT_FALSE(trial.output.trace.events.empty());

    const std::string doc = mergedTrace(w1);
    EXPECT_EQ(doc, mergedTrace(w4));
    EXPECT_NE(doc.find("\"trials\":8"), std::string::npos);
}

// ---------------------------------------------------------------------
// Phase profiling.
// ---------------------------------------------------------------------

TEST(Prof, ObsLevelNames)
{
    EXPECT_STREQ(obs::obsLevelName(obs::ObsLevel::Off), "off");
    EXPECT_STREQ(obs::obsLevelName(obs::ObsLevel::Metrics), "metrics");
    EXPECT_STREQ(obs::obsLevelName(obs::ObsLevel::Trace), "trace");
}

TEST(Prof, ScopeIsNoOpOnNullAndRecordsOtherwise)
{
    obs::ProfData data;
    {
        obs::ProfScope off(nullptr, "prof.trial.run");
    }
    EXPECT_TRUE(data.empty());

    {
        obs::ProfScope on(&data, "prof.trial.run");
    }
    {
        obs::ProfScope again(&data, "prof.trial.run");
    }
    ASSERT_FALSE(data.empty());
    const auto it = data.phases().find("prof.trial.run");
    ASSERT_NE(it, data.phases().end());
    EXPECT_EQ(it->second.count(), 2u);
}

TEST(Prof, DataJsonAndMerge)
{
    obs::ProfData data;
    data.add("prof.trial.run", 0.5);
    data.add("prof.trial.run", 1.5);
    data.add("prof.trial.fork", 0.25);

    const json::Value v = data.toJson();
    const json::Value *run = v.get("prof.trial.run");
    ASSERT_NE(run, nullptr);
    EXPECT_EQ(run->get("count")->asU64(), 2u);
    EXPECT_DOUBLE_EQ(run->get("total_seconds")->asDouble(), 2.0);
    EXPECT_DOUBLE_EQ(run->get("mean_seconds")->asDouble(), 1.0);
    EXPECT_DOUBLE_EQ(run->get("max_seconds")->asDouble(), 1.5);
    ASSERT_NE(v.get("prof.trial.fork"), nullptr);

    obs::ProfData other;
    other.add("prof.trial.run", 2.0);
    data.merge(other);
    EXPECT_EQ(data.phases().at("prof.trial.run").count(), 3u);
}

// ---------------------------------------------------------------------
// The observation-must-not-perturb contract, in process.
// ---------------------------------------------------------------------

TEST(Obs, CampaignFingerprintInvariantAcrossObsLevels)
{
    std::string baseline;
    bool first = true;
    for (obs::ObsLevel level :
         {obs::ObsLevel::Off, obs::ObsLevel::Metrics,
          obs::ObsLevel::Trace}) {
        exp::CampaignSpec spec = metricSpec(2);
        spec.obsLevel = level;
        const exp::CampaignResult result = exp::runCampaign(spec);
        const std::string print = exp::deterministicFingerprint(result);
        if (first) {
            baseline = print;
            first = false;
        } else {
            EXPECT_EQ(print, baseline)
                << "fingerprint diverged at --obs="
                << obs::obsLevelName(level);
        }
        // Profiling is a side channel gated at >= Metrics; it never
        // feeds the fingerprint.
        EXPECT_EQ(result.prof.empty(), level == obs::ObsLevel::Off)
            << obs::obsLevelName(level);
    }
}
