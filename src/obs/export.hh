/**
 * @file
 * Trace and metrics exporters.
 *
 * Three views of one TraceSession:
 *  - writePerfettoJson(): Chrome trace_event format ("X" complete
 *    events, one tid per track) loadable in ui.perfetto.dev or
 *    chrome://tracing;
 *  - writeCsv(): flat rows for ad-hoc analysis (tools/trace_report.py);
 *  - writeSummary(): a terminal table of per-kind count/mean/p50/p90/p99.
 *
 * Metrics snapshots go through Registry::writeJson(). Every JSON
 * writer escapes its strings with jsonEscape().
 */

#ifndef UNET_OBS_EXPORT_HH
#define UNET_OBS_EXPORT_HH

#include <iosfwd>
#include <string>
#include <string_view>

namespace unet::obs {

class TraceSession;

/** @p s escaped for use inside a JSON string literal: quotes,
 *  backslashes and control characters. */
std::string jsonEscape(std::string_view s);

/** Chrome/Perfetto trace_event JSON; timestamps in microseconds. */
void writePerfettoJson(std::ostream &os, const TraceSession &tr);

/** CSV: msg_id,kind,custody,track,label,start_ps,end_ps,dur_ps. */
void writeCsv(std::ostream &os, const TraceSession &tr);

/** Human-readable per-kind duration summary. */
void writeSummary(std::ostream &os, const TraceSession &tr);

} // namespace unet::obs

#endif // UNET_OBS_EXPORT_HH
