#include "obs/export.hh"

#include <cstdio>
#include <iomanip>
#include <ostream>
#include <set>

#include "obs/trace.hh"

namespace unet::obs {

std::string
jsonEscape(std::string_view s)
{
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof buf, "\\u%04x",
                          static_cast<unsigned>(c));
            out += buf;
        } else {
            out += c;
        }
    }
    return out;
}

void
writePerfettoJson(std::ostream &os, const TraceSession &tr)
{
    os << "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[";
    bool first = true;
    auto emit = [&](auto &&writeBody) {
        if (!first)
            os << ",";
        first = false;
        os << "\n";
        writeBody();
    };

    // Track rows as named "threads" so the UI labels each timeline.
    std::set<std::uint16_t> tracks;
    tr.forEach([&](const Span &s) { tracks.insert(s.track); });
    for (std::uint16_t t : tracks) {
        emit([&] {
            os << "{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":0,"
               << "\"tid\":" << t << ",\"args\":{\"name\":\""
               << jsonEscape(tr.nameOf(t)) << "\"}}";
        });
    }

    std::streamsize prec = os.precision();
    os << std::setprecision(15);
    tr.forEach([&](const Span &s) {
        emit([&] {
            std::string_view kind = spanKindName(s.kind);
            const std::string &label = tr.nameOf(s.label);
            os << "{\"ph\":\"X\",\"name\":\""
               << jsonEscape(label.empty() ? kind : label)
               << "\",\"cat\":\""
               << (isCustody(s.kind) ? "custody" : "detail")
               << "\",\"pid\":0,\"tid\":" << s.track << ",\"ts\":"
               << static_cast<double>(s.start) / 1e6 << ",\"dur\":"
               << static_cast<double>(s.end - s.start) / 1e6
               << ",\"args\":{\"msg\":" << s.id << ",\"kind\":\"" << kind
               << "\"}}";
        });
    });
    os << std::setprecision(static_cast<int>(prec));
    os << "\n]}\n";
}

void
writeCsv(std::ostream &os, const TraceSession &tr)
{
    os << "msg_id,kind,custody,track,label,start_ps,end_ps,dur_ps\n";
    tr.forEach([&](const Span &s) {
        os << s.id << "," << spanKindName(s.kind) << ","
           << (isCustody(s.kind) ? 1 : 0) << "," << tr.nameOf(s.track)
           << "," << tr.nameOf(s.label) << "," << s.start << "," << s.end
           << "," << (s.end - s.start) << "\n";
    });
}

void
writeSummary(std::ostream &os, const TraceSession &tr)
{
    os << "trace: " << tr.messages() << " messages, " << tr.recorded()
       << " spans";
    if (tr.dropped())
        os << " (" << tr.dropped() << " dropped: ring full)";
    os << "\n";
    os << "  " << std::left << std::setw(10) << "kind" << std::right
       << std::setw(8) << "count" << std::setw(11) << "mean_us"
       << std::setw(11) << "p50_us" << std::setw(11) << "p90_us"
       << std::setw(11) << "p99_us" << "\n";
    for (std::size_t k = 0; k < static_cast<std::size_t>(SpanKind::Count);
         ++k) {
        const Histogram &h = tr.kindHistogram(static_cast<SpanKind>(k));
        if (h.count() == 0)
            continue;
        os << "  " << std::left << std::setw(10)
           << spanKindName(static_cast<SpanKind>(k)) << std::right
           << std::setw(8) << h.count() << std::fixed
           << std::setprecision(3) << std::setw(11) << h.mean() / 1e3
           << std::setw(11) << h.quantile(0.5) / 1e3 << std::setw(11)
           << h.quantile(0.9) / 1e3 << std::setw(11)
           << h.quantile(0.99) / 1e3 << "\n";
        os.unsetf(std::ios::fixed);
    }
}

} // namespace unet::obs
