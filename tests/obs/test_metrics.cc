#include <gtest/gtest.h>

#include <sstream>

#include "obs/metrics.hh"

using namespace unet;
using namespace unet::obs;

TEST(Registry, CountersReadLiveValues)
{
    Registry reg;
    sim::Counter c;
    reg.addCounter("host.a.nic.frames", &c);

    EXPECT_TRUE(reg.has("host.a.nic.frames"));
    EXPECT_EQ(reg.value("host.a.nic.frames"), 0.0);
    ++c;
    ++c;
    EXPECT_EQ(reg.value("host.a.nic.frames"), 2.0);

    reg.remove("host.a.nic.frames");
    EXPECT_FALSE(reg.has("host.a.nic.frames"));
    EXPECT_EQ(reg.value("host.a.nic.frames"), 0.0);
}

TEST(Registry, GaugesEvaluateOnRead)
{
    Registry reg;
    double v = 1.5;
    reg.addGauge("eth.switch.learnedAddresses", [&] { return v; });
    EXPECT_EQ(reg.value("eth.switch.learnedAddresses"), 1.5);
    v = 7.0;
    EXPECT_EQ(reg.value("eth.switch.learnedAddresses"), 7.0);
}

TEST(Registry, UniquePrefixDisambiguatesInstances)
{
    Registry reg;
    EXPECT_EQ(reg.uniquePrefix("eth.hub"), "eth.hub");
    EXPECT_EQ(reg.uniquePrefix("eth.hub"), "eth.hub#2");
    EXPECT_EQ(reg.uniquePrefix("eth.hub"), "eth.hub#3");
    EXPECT_EQ(reg.uniquePrefix("atm.link"), "atm.link");
}

TEST(Registry, HistogramExpandsDerivedStats)
{
    Registry reg;
    Histogram h;
    reg.addHistogram("lat", &h);
    for (std::uint64_t i = 1; i <= 100; ++i)
        h.record(i);

    EXPECT_EQ(reg.value("lat"), 100.0);
    EXPECT_EQ(reg.value("lat.count"), 100.0);
    EXPECT_EQ(reg.value("lat.sum"), 5050.0);
    EXPECT_EQ(reg.value("lat.min"), 1.0);
    EXPECT_EQ(reg.value("lat.max"), 100.0);
    // Log-bucketed: quantiles are approximate but bounded.
    EXPECT_GE(reg.value("lat.p50"), 25.0);
    EXPECT_LE(reg.value("lat.p50"), 100.0);
    EXPECT_LE(reg.value("lat.p99"), 100.0);

    auto flat = reg.dump();
    bool saw_mean = false;
    for (const auto &[path, value] : flat)
        if (path == "lat.mean") {
            saw_mean = true;
            EXPECT_DOUBLE_EQ(value, 50.5);
        }
    EXPECT_TRUE(saw_mean);
}

TEST(Registry, DumpIsSortedAndJsonWellFormed)
{
    Registry reg;
    sim::Counter a, b;
    reg.addCounter("z.last", &a);
    reg.addCounter("a.first", &b);
    ++a;

    auto flat = reg.dump();
    ASSERT_EQ(flat.size(), 2u);
    EXPECT_EQ(flat[0].first, "a.first");
    EXPECT_EQ(flat[1].first, "z.last");

    std::ostringstream os;
    reg.writeJson(os);
    std::string json = os.str();
    EXPECT_NE(json.find("\"a.first\""), std::string::npos);
    EXPECT_NE(json.find("\"z.last\": 1"), std::string::npos);
    EXPECT_EQ(json.front(), '{');

    // A path built from a host name may hold a quote.
    sim::Counter q;
    reg.addCounter(R"(host."B".rx)", &q);
    std::ostringstream quoted;
    reg.writeJson(quoted);
    EXPECT_NE(quoted.str().find(R"("host.\"B\".rx": 0)"),
              std::string::npos);
}

TEST(MetricGroup, DeregistersOnDestruction)
{
    Registry reg;
    sim::Counter c;
    {
        MetricGroup g(reg, reg.uniquePrefix("host.a.unet.fe"));
        g.counter("messagesSent", c);
        EXPECT_TRUE(reg.has("host.a.unet.fe.messagesSent"));
        EXPECT_EQ(g.prefix(), "host.a.unet.fe");
    }
    EXPECT_FALSE(reg.has("host.a.unet.fe.messagesSent"));
    EXPECT_EQ(reg.size(), 0u);
}

TEST(HistogramTest, BucketsAndQuantilesBehave)
{
    Histogram h;
    EXPECT_EQ(h.count(), 0u);
    EXPECT_EQ(h.min(), 0u);
    EXPECT_EQ(h.quantile(0.5), 0.0);

    h.record(0);
    h.record(1);
    h.record(1000);
    EXPECT_EQ(h.count(), 3u);
    EXPECT_EQ(h.min(), 0u);
    EXPECT_EQ(h.max(), 1000u);
    EXPECT_DOUBLE_EQ(h.mean(), 1001.0 / 3.0);
    // Quantiles clamp to the observed range.
    EXPECT_LE(h.quantile(0.99), 1000.0);
    EXPECT_GE(h.quantile(0.0), 0.0);

    h.reset();
    EXPECT_EQ(h.count(), 0u);
    EXPECT_EQ(h.sum(), 0u);
}

TEST(HistogramTest, P999InterpolatesTheTailAccurately)
{
    // Every integer in [1, 16383] once: the top bucket [8192, 16383]
    // is fully dense, so linear interpolation inside it must land
    // within a couple of samples of the true order statistic
    // (0.999 * 16383 = 16366.6).
    Histogram h;
    for (std::uint64_t v = 1; v <= 16383; ++v)
        h.record(v);
    EXPECT_NEAR(h.quantile(0.999), 16367.0, 2.0);

    // Tail quantiles stay monotone and inside the observed range.
    EXPECT_LE(h.quantile(0.99), h.quantile(0.999));
    EXPECT_LE(h.quantile(0.999), static_cast<double>(h.max()));

    // Degenerate tail: one sample pins every quantile to it.
    Histogram one;
    one.record(7);
    EXPECT_DOUBLE_EQ(one.quantile(0.999), 7.0);
}

TEST(Registry, HistogramStatTableExposesP999)
{
    Registry reg;
    Histogram h;
    reg.addHistogram("lat", &h);
    for (std::uint64_t v = 1; v <= 1000; ++v)
        h.record(v);

    EXPECT_GT(reg.value("lat.p999"), 0.0);
    EXPECT_GE(reg.value("lat.p999"), reg.value("lat.p99"));
    EXPECT_LE(reg.value("lat.p999"), reg.value("lat.max"));

    bool in_dump = false;
    for (const auto &[path, value] : reg.dump())
        if (path == "lat.p999")
            in_dump = true;
    EXPECT_TRUE(in_dump);

    std::ostringstream os;
    reg.writeJson(os);
    EXPECT_NE(os.str().find("\"lat.p999\""), std::string::npos);
}
