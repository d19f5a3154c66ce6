#include "obs/chrome_trace.hh"

#include <cstdio>
#include <filesystem>

#include "common/logging.hh"

namespace uscope::obs
{

namespace
{

/** Virtual thread ids (Chrome "tid") per subsystem track. */
constexpr int tidReplay = 0;
constexpr int tidWalker = 1;
constexpr int tidMem = 2;
constexpr int tidFault = 3;
constexpr int tidCoreBase = 10;  ///< +ctx

const char *
levelName(unsigned level)
{
    static const char *const names[] = {"L1", "L2", "L3", "DRAM"};
    return level < 4 ? names[level] : "?";
}

/** Mirrors fault::Site (obs cannot depend on the fault library). */
const char *
faultSiteName(unsigned site)
{
    static const char *const names[] = {"interrupt", "preemption",
                                        "port-jitter", "probe-jitter",
                                        "sample-drop"};
    return site < 5 ? names[site] : "?";
}

std::string
hex(std::uint64_t value)
{
    return format("0x%llx", static_cast<unsigned long long>(value));
}

/** One trace-event dict.  @p ph is "B"/"E"/"i"/"M". */
json::Value
traceEvent(const char *name, const char *ph, std::uint64_t ts, int tid)
{
    json::Value v = json::Value::object()
                        .set("name", name)
                        .set("ph", ph)
                        .set("ts", ts)
                        .set("pid", 0)
                        .set("tid", tid);
    if (ph[0] == 'i')
        v.set("s", "t");  // instant scoped to its thread/track.
    return v;
}

json::Value
convert(const Event &e)
{
    switch (e.kind) {
      case EventKind::WalkStart:
        return traceEvent("page-walk", "B", e.cycle, tidWalker)
            .set("args", json::Value::object()
                             .set("va", hex(e.addr))
                             .set("start_level", std::uint64_t{e.a}));
      case EventKind::WalkEnd:
        return traceEvent("page-walk", "E", e.cycle, tidWalker)
            .set("args", json::Value::object()
                             .set("va", hex(e.addr))
                             .set("fault", e.a != 0)
                             .set("latency", std::uint64_t{e.b}));
      case EventKind::WalkStep:
        return traceEvent("walk-step", "i", e.cycle, tidWalker)
            .set("args", json::Value::object()
                             .set("level", std::uint64_t{e.a})
                             .set("latency", std::uint64_t{e.b})
                             .set("entry_pa", hex(e.addr)));
      case EventKind::TlbMiss:
        return traceEvent("tlb-miss", "i", e.cycle, tidWalker)
            .set("args", json::Value::object().set("va", hex(e.addr)));
      case EventKind::PageFault:
        return traceEvent("page-fault", "i", e.cycle, tidWalker)
            .set("args", json::Value::object()
                             .set("ctx", std::uint64_t{e.a})
                             .set("va", hex(e.addr)));
      case EventKind::SpecIssue:
        return traceEvent("issue", "i", e.cycle, tidCoreBase + e.a)
            .set("args", json::Value::object()
                             .set("op", std::uint64_t{e.b})
                             .set("pc", e.addr));
      case EventKind::Retire:
        return traceEvent("retire", "i", e.cycle, tidCoreBase + e.a)
            .set("args", json::Value::object()
                             .set("op", std::uint64_t{e.b})
                             .set("pc", e.addr));
      case EventKind::Squash:
        return traceEvent("squash", "i", e.cycle, tidCoreBase + e.a)
            .set("args", json::Value::object()
                             .set("entries", std::uint64_t{e.b})
                             .set("pc", e.addr));
      case EventKind::PortConflict:
        return traceEvent("port-conflict", "i", e.cycle,
                          tidCoreBase + e.a)
            .set("args", json::Value::object()
                             .set("op", std::uint64_t{e.b})
                             .set("pc", e.addr));
      case EventKind::CacheAccess:
        return traceEvent("cache-access", "i", e.cycle, tidMem)
            .set("args", json::Value::object()
                             .set("level", levelName(e.a))
                             .set("latency", std::uint64_t{e.b})
                             .set("line", hex(e.addr)));
      case EventKind::Probe:
        return traceEvent("probe", "i", e.cycle, tidMem)
            .set("args", json::Value::object()
                             .set("level", levelName(e.a))
                             .set("latency", std::uint64_t{e.b})
                             .set("line", hex(e.addr)));
      case EventKind::ReplayBoundary:
        return traceEvent("replay", "i", e.cycle, tidReplay)
            .set("args",
                 json::Value::object()
                     .set("page", e.a == 2 ? "pivot" : "handle")
                     .set("replay", std::uint64_t{e.b})
                     .set("episode", e.addr));
      case EventKind::EpisodeEnd:
        return traceEvent("episode-end", "i", e.cycle, tidReplay)
            .set("args", json::Value::object()
                             .set("replays", std::uint64_t{e.b})
                             .set("episode", e.addr));
      case EventKind::FaultInject:
        return traceEvent("fault-inject", "i", e.cycle, tidFault)
            .set("args", json::Value::object()
                             .set("site", faultSiteName(e.a))
                             .set("magnitude", std::uint64_t{e.b})
                             .set("payload", hex(e.addr)));
    }
    return traceEvent(eventKindName(e.kind), "i", e.cycle, tidMem);
}

json::Value
threadNameMeta(int tid, const char *name)
{
    return json::Value::object()
        .set("name", "thread_name")
        .set("ph", "M")
        .set("pid", 0)
        .set("tid", tid)
        .set("args", json::Value::object().set("name", name));
}

/** The subsystem tracks of one machine's timeline. */
constexpr std::pair<int, const char *> tracks[] = {
    {tidReplay, "replay"}, {tidWalker, "walker"}, {tidMem, "mem"},
    {tidFault, "fault"},   {tidCoreBase + 0, "core.ctx0"},
    {tidCoreBase + 1, "core.ctx1"},
};

/** Move an event (or track metadata) onto process lane @p pid. */
json::Value
onPid(json::Value event, std::uint64_t pid)
{
    event.set("pid", pid);
    return event;
}

} // anonymous namespace

std::string
toChromeTraceJson(const EventLog &log, const ChromeTraceOptions &options)
{
    json::Value events = json::Value::array();
    for (const auto &[tid, name] : tracks)
        events.push(threadNameMeta(tid, name));

    std::size_t emitted = 0;
    std::size_t capped = 0;
    for (const Event &e : log.events) {
        if (emitted >= options.maxEvents) {
            ++capped;
            continue;
        }
        events.push(convert(e));
        ++emitted;
    }

    if (capped)
        warn("chrome trace: emitted %zu of %zu retained events "
             "(writer cap %zu); %zu dropped from the tail",
             emitted, log.events.size(), options.maxEvents, capped);
    if (log.dropped)
        warn("chrome trace: ring buffer overwrote %llu of %llu "
             "recorded events before export",
             static_cast<unsigned long long>(log.dropped),
             static_cast<unsigned long long>(log.total));

    json::Value doc =
        json::Value::object()
            .set("traceEvents", std::move(events))
            .set("displayTimeUnit", "ms")
            .set("otherData",
                 json::Value::object()
                     .set("cycles_per_us", 1)
                     .set("events_recorded", log.total)
                     .set("events_ring_dropped", log.dropped)
                     .set("events_writer_capped",
                          std::uint64_t{capped}));
    return doc.dump();
}

json::Value
mergeChromeTraces(const std::vector<const EventLog *> &trials,
                  const ChromeTraceOptions &options)
{
    json::Value events = json::Value::array();
    std::uint64_t ringDropped = 0, recorded = 0;
    std::size_t merged = 0, emitted = 0, capped = 0;
    for (std::size_t trial = 0; trial < trials.size(); ++trial) {
        const EventLog &log = *trials[trial];
        if (log.events.empty() && log.total == 0)
            continue;
        ++merged;
        const std::uint64_t pid = trial;
        events.push(json::Value::object()
                        .set("name", "process_name")
                        .set("ph", "M")
                        .set("pid", pid)
                        .set("tid", 0)
                        .set("args", json::Value::object().set(
                                         "name", format("trial %zu",
                                                        trial))));
        for (const auto &[tid, name] : tracks)
            events.push(onPid(threadNameMeta(tid, name), pid));
        for (const Event &e : log.events) {
            if (emitted >= options.maxEvents) {
                ++capped;
                continue;
            }
            events.push(onPid(convert(e), pid));
            ++emitted;
        }
        ringDropped += log.dropped;
        recorded += log.total;
    }
    if (capped)
        warn("merged trace: emitted %zu events (writer cap %zu); %zu "
             "dropped from the tail",
             emitted, options.maxEvents, capped);
    if (ringDropped)
        warn("merged trace: trial rings overwrote %llu of %llu "
             "recorded events before export",
             static_cast<unsigned long long>(ringDropped),
             static_cast<unsigned long long>(recorded));

    return json::Value::object()
        .set("traceEvents", std::move(events))
        .set("displayTimeUnit", "ms")
        .set("otherData",
             json::Value::object()
                 .set("cycles_per_us", 1)
                 .set("trials", std::uint64_t{merged})
                 .set("events_recorded", recorded)
                 .set("events_ring_dropped", ringDropped)
                 .set("events_writer_capped", std::uint64_t{capped}));
}

bool
writeChromeTrace(const std::string &path, const EventLog &log,
                 const ChromeTraceOptions &options)
{
    const std::string body = toChromeTraceJson(log, options);
    const std::filesystem::path parent =
        std::filesystem::path(path).parent_path();
    if (!parent.empty()) {
        std::error_code ec;
        std::filesystem::create_directories(parent, ec);
    }
    std::FILE *file = std::fopen(path.c_str(), "w");
    if (!file) {
        warn("chrome trace: cannot open '%s' for writing", path.c_str());
        return false;
    }
    const std::size_t written =
        std::fwrite(body.data(), 1, body.size(), file);
    std::fclose(file);
    if (written != body.size()) {
        warn("chrome trace: short write to '%s' (%zu of %zu bytes)",
             path.c_str(), written, body.size());
        return false;
    }
    return true;
}

} // namespace uscope::obs
