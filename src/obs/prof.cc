#include "obs/prof.hh"

namespace uscope::obs
{

const char *
obsLevelName(ObsLevel level)
{
    switch (level) {
      case ObsLevel::Off: return "off";
      case ObsLevel::Metrics: return "metrics";
      case ObsLevel::Trace: return "trace";
    }
    return "?";
}

json::Value
ProfData::toJson() const
{
    json::Value out = json::Value::object();
    for (const auto &[phase, summary] : phases_) {
        out.set(phase,
                json::Value::object()
                    .set("count", summary.count())
                    .set("total_seconds",
                         summary.mean() *
                             static_cast<double>(summary.count()))
                    .set("mean_seconds", summary.mean())
                    .set("max_seconds", summary.rawMax()));
    }
    return out;
}

} // namespace uscope::obs
