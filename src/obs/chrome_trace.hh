/**
 * @file
 * Chrome trace-event export: renders a drained EventLog as the JSON
 * object format (`{"traceEvents": [...]}`) understood by Perfetto and
 * chrome://tracing, so a Fig-10/11 replay shows up as a visual
 * timeline.
 *
 * Mapping: one simulated cycle is rendered as one microsecond (the
 * trace-event "ts" unit).  Page walks become duration ("B"/"E") spans
 * on the walker track; everything else is an instant event on a track
 * per subsystem (replay boundaries, walker, memory, one track per SMT
 * context).  Ring-buffer drops and writer-side caps are reported in
 * the document's otherData, never silently.
 */

#ifndef USCOPE_OBS_CHROME_TRACE_HH
#define USCOPE_OBS_CHROME_TRACE_HH

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/json.hh"
#include "obs/event.hh"

namespace uscope::obs
{

/** Writer knobs. */
struct ChromeTraceOptions
{
    /** Emit at most this many events; the tail beyond it is dropped
     *  with a warn() and an in-trace annotation. */
    std::size_t maxEvents = 1u << 20;
};

/** Render @p log as a Chrome trace-event JSON document. */
std::string toChromeTraceJson(const EventLog &log,
                              const ChromeTraceOptions &options = {});

/**
 * Write toChromeTraceJson(@p log) to @p path.
 * @return true on success; warns and returns false on I/O failure.
 */
bool writeChromeTrace(const std::string &path, const EventLog &log,
                      const ChromeTraceOptions &options = {});

/**
 * Merge a campaign's per-trial traces into ONE Chrome trace-event
 * document (DESIGN.md §14).  Element i of @p trials is trial i's
 * drained log (TrialResult::output.trace); empty logs are left
 * out.  Each trial becomes its own track group — `pid` = trial
 * index, named `trial <i>`, holding the replay/walker/mem/fault/core
 * tracks — on one shared cycle axis.  Ring-drop and writer-cap totals
 * are summed into otherData, never silent.  The document depends only
 * on the logs, so it is byte-identical at any worker count.
 */
json::Value mergeChromeTraces(const std::vector<const EventLog *> &trials,
                              const ChromeTraceOptions &options = {});

} // namespace uscope::obs

#endif // USCOPE_OBS_CHROME_TRACE_HH
