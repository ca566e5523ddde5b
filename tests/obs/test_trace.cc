#include <gtest/gtest.h>

#include <sstream>

#include "obs/export.hh"
#include "obs/trace.hh"

using namespace unet;
using namespace unet::obs;
using namespace unet::sim::literals;

TEST(TraceSession, RecordsAndInternNames)
{
    TraceSession tr(8);
    std::uint64_t id = tr.newMessageId();
    EXPECT_NE(id, 0u);

    tr.record(id, SpanKind::TxPost, "A.cpu", 0, 1000, "post");
    tr.record(id, SpanKind::Wire, "eth.wire", 1000, 3000);

    ASSERT_EQ(tr.size(), 2u);
    int seen = 0;
    tr.forEach([&](const Span &s) {
        EXPECT_EQ(s.id, id);
        if (seen == 0) {
            EXPECT_EQ(s.kind, SpanKind::TxPost);
            EXPECT_EQ(tr.nameOf(s.track), "A.cpu");
            EXPECT_EQ(tr.nameOf(s.label), "post");
        } else {
            EXPECT_EQ(s.kind, SpanKind::Wire);
            EXPECT_EQ(tr.nameOf(s.track), "eth.wire");
            EXPECT_EQ(tr.nameOf(s.label), ""); // 0 = kind name
        }
        ++seen;
    });
    EXPECT_EQ(seen, 2);

    // Interning is stable: the same string maps to the same index.
    EXPECT_EQ(tr.name("A.cpu"), tr.name("A.cpu"));
}

TEST(TraceSession, RingOverwritesOldestAndCountsDrops)
{
    TraceSession tr(4);
    for (sim::Tick i = 0; i < 10; ++i)
        tr.record(1, SpanKind::Step, "t", i, i + 1);

    EXPECT_EQ(tr.size(), 4u);
    EXPECT_EQ(tr.recorded(), 10u);
    EXPECT_EQ(tr.dropped(), 6u);

    // Oldest-first iteration starts at the oldest retained span.
    std::vector<sim::Tick> starts;
    tr.forEach([&](const Span &s) { starts.push_back(s.start); });
    EXPECT_EQ(starts, (std::vector<sim::Tick>{6, 7, 8, 9}));
}

TEST(TraceSession, KindHistogramTracksDurations)
{
    TraceSession tr(16);
    tr.record(1, SpanKind::Wire, "w", 0, sim::nanoseconds(5));
    tr.record(2, SpanKind::Wire, "w", 0, sim::nanoseconds(7));
    const Histogram &h = tr.kindHistogram(SpanKind::Wire);
    EXPECT_EQ(h.count(), 2u);
    EXPECT_EQ(h.sum(), 12u); // nanoseconds
}

TEST(TraceSession, CustodyTaxonomyPartitionsKinds)
{
    EXPECT_TRUE(isCustody(SpanKind::App));
    EXPECT_TRUE(isCustody(SpanKind::TxPost));
    EXPECT_TRUE(isCustody(SpanKind::TxNic));
    EXPECT_TRUE(isCustody(SpanKind::TxFw));
    EXPECT_TRUE(isCustody(SpanKind::Wire));
    EXPECT_TRUE(isCustody(SpanKind::RxKernel));
    EXPECT_TRUE(isCustody(SpanKind::RxFw));
    EXPECT_TRUE(isCustody(SpanKind::RxQueue));
    EXPECT_FALSE(isCustody(SpanKind::Step));
    EXPECT_FALSE(isCustody(SpanKind::AmHandler));
    EXPECT_STREQ(spanKindName(SpanKind::Wire), "Wire");
}

TEST(TraceSession, PublishesMetricsIntoRegistry)
{
    Registry reg;
    TraceSession tr(8, &reg);
    tr.record(tr.newMessageId(), SpanKind::Wire, "w", 0, 100);
    EXPECT_EQ(reg.value("trace.messages"), 1.0);
    EXPECT_EQ(reg.value("trace.spans"), 1.0);
}

TEST(TraceExport, PerfettoJsonAndCsvContainSpans)
{
    TraceSession tr(8);
    std::uint64_t id = tr.newMessageId();
    tr.record(id, SpanKind::TxPost, "A.cpu", sim::microseconds(1),
              sim::microseconds(3), "post");
    // Names are user input (host names): quotes, backslashes and
    // control characters must come out escaped.
    tr.record(id, SpanKind::Wire, R"(host "B"\nic)",
              sim::microseconds(3), sim::microseconds(4), "line\nbreak");

    std::ostringstream json;
    writePerfettoJson(json, tr);
    std::string j = json.str();
    EXPECT_NE(j.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(j.find("\"ph\":\"X\""), std::string::npos);
    EXPECT_NE(j.find("\"cat\":\"custody\""), std::string::npos);
    EXPECT_NE(j.find("\"A.cpu\""), std::string::npos);
    EXPECT_NE(j.find(R"("name":"host \"B\"\\nic")"), std::string::npos);
    EXPECT_NE(j.find(R"("name":"line\u000abreak")"), std::string::npos);

    std::ostringstream csv;
    writeCsv(csv, tr);
    std::string c = csv.str();
    EXPECT_NE(c.find("msg_id,kind,custody,track"), std::string::npos);
    EXPECT_NE(c.find("TxPost,1,A.cpu,post"), std::string::npos);

    std::ostringstream summary;
    writeSummary(summary, tr);
    EXPECT_NE(summary.str().find("TxPost"), std::string::npos);
}

TEST(TraceSession, ClearDropsSpansKeepsNames)
{
    TraceSession tr(8);
    std::uint16_t track = tr.name("A.cpu");
    tr.record(1, SpanKind::Step, track, 0, 10);
    tr.clear();
    EXPECT_EQ(tr.size(), 0u);
    EXPECT_EQ(tr.nameOf(track), "A.cpu");
}

#if UNET_TRACE
TEST(TraceSession, HopChainTilesTheLifetime)
{
    TraceSession tr(16);
    TraceContext ctx;
    tr.begin(ctx, 100);
    EXPECT_TRUE(static_cast<bool>(ctx));

    tr.hop(ctx, SpanKind::TxPost, "A.cpu", 300);
    tr.hop(ctx, SpanKind::Wire, "eth.wire", 900);
    tr.hop(ctx, SpanKind::RxQueue, "ep", 1000);

    // Custody spans partition [100, 1000] with no gaps or overlaps.
    sim::Tick expect_start = 100, total = 0;
    tr.forEach([&](const Span &s) {
        EXPECT_EQ(s.start, expect_start);
        expect_start = s.end;
        total += s.end - s.start;
    });
    EXPECT_EQ(expect_start, 1000);
    EXPECT_EQ(total, 900);

    // Untraced contexts are no-ops.
    TraceContext idle;
    tr.hop(idle, SpanKind::Wire, "eth.wire", 2000);
    EXPECT_EQ(tr.size(), 3u);
}
#endif // UNET_TRACE
