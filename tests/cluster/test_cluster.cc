#include <gtest/gtest.h>

#include "cluster/cluster.hh"
#include "sim/perturb.hh"

using namespace unet;
using namespace unet::cluster;
using namespace unet::sim::literals;

TEST(Cluster, FeClusterUsesPaperHosts)
{
    auto cfg = Config::feCluster(8);
    sim::Simulation s;
    Cluster c(s, cfg);
    // "one 90 MHz and seven 120 MHz Pentium workstations"
    EXPECT_EQ(c.hostOf(0).cpu().spec().name, "Pentium-90");
    for (int i = 1; i < 8; ++i)
        EXPECT_EQ(c.hostOf(i).cpu().spec().name, "Pentium-120");
    EXPECT_EQ(c.unetOf(0).name(), "U-Net/FE");
}

TEST(Cluster, AtmClusterUsesPaperHosts)
{
    auto cfg = Config::atmSplitC(8);
    sim::Simulation s;
    Cluster c(s, cfg);
    // "4 SPARCStation 20s and 4 SPARCStation 10s"
    for (int i = 0; i < 4; ++i)
        EXPECT_EQ(c.hostOf(i).cpu().spec().name, "SPARCstation-20");
    for (int i = 4; i < 8; ++i)
        EXPECT_EQ(c.hostOf(i).cpu().spec().name, "SPARCstation-10");
    EXPECT_EQ(c.unetOf(0).name(), "U-Net/ATM");
}

TEST(Cluster, FullMeshChannelsWork)
{
    sim::Simulation s;
    Cluster c(s, Config::feCluster(4, NetKind::FeBay28115, false));
    // Every ordered pair exchanges one value through the mesh.
    std::vector<std::vector<std::uint64_t>> seen(
        4, std::vector<std::uint64_t>(4, 0));
    c.run([&](splitc::Runtime &rt, sim::Process &proc) {
        splitc::HeapAddr slot = rt.alloc<std::uint64_t>(4);
        *rt.localPtr<std::uint64_t>(
            slot + static_cast<splitc::HeapAddr>(8 * rt.self())) =
            100 + static_cast<std::uint64_t>(rt.self());
        rt.barrier(proc);
        for (int peer = 0; peer < rt.procs(); ++peer) {
            auto v = rt.read(
                proc,
                splitc::GlobalPtr<std::uint64_t>(
                    peer,
                    slot + static_cast<splitc::HeapAddr>(8 * peer)));
            seen[static_cast<std::size_t>(rt.self())]
                [static_cast<std::size_t>(peer)] = v;
        }
        rt.barrier(proc);
    });
    for (int i = 0; i < 4; ++i)
        for (int j = 0; j < 4; ++j)
            EXPECT_EQ(seen[static_cast<std::size_t>(i)]
                          [static_cast<std::size_t>(j)],
                      100u + static_cast<std::uint64_t>(j));
}

TEST(Cluster, ElapsedTimeIsLastFinisher)
{
    sim::Simulation s;
    Cluster c(s, Config::feCluster(2, NetKind::FeBay28115, false));
    sim::Tick elapsed = c.run([&](splitc::Runtime &rt,
                                  sim::Process &proc) {
        if (rt.self() == 1)
            rt.chargeTime(proc, 5_ms);
    });
    EXPECT_GE(elapsed, 5_ms);
    EXPECT_LT(elapsed, 6_ms);
}

TEST(ClusterDeathTest, SecondRunRejected)
{
    sim::Simulation s;
    Cluster c(s, Config::feCluster(2, NetKind::FeBay28115, false));
    c.run([](splitc::Runtime &, sim::Process &) {});
    EXPECT_EXIT(c.run([](splitc::Runtime &, sim::Process &) {}),
                ::testing::ExitedWithCode(1), "one SPMD program");
}

TEST(Cluster, HubAndFn100Presets)
{
    for (NetKind kind : {NetKind::FeHub, NetKind::FeFn100}) {
        sim::Simulation s;
        Cluster c(s, Config::feCluster(3, kind, false));
        std::uint64_t sum = 0;
        c.run([&](splitc::Runtime &rt, sim::Process &proc) {
            auto v = rt.allReduceSum(
                proc, static_cast<std::uint64_t>(rt.self()));
            if (rt.self() == 0)
                sum = v;
        });
        EXPECT_EQ(sum, 3u);
    }
}

TEST(Cluster, LatencySensitiveOrdering)
{
    // A barrier-heavy workload should be slowest on the FN100 (highest
    // switch latency) and the hub the fastest among FE fabrics at
    // 2 nodes (no store-and-forward penalty, no contention at n=2).
    auto barrier_time = [](NetKind kind) {
        sim::Simulation s;
        Cluster c(s, Config::feCluster(2, kind, false));
        return c.run([](splitc::Runtime &rt, sim::Process &proc) {
            for (int i = 0; i < 50; ++i)
                rt.barrier(proc);
        });
    };
    sim::Tick hub = barrier_time(NetKind::FeHub);
    sim::Tick bay = barrier_time(NetKind::FeBay28115);
    sim::Tick fn = barrier_time(NetKind::FeFn100);
    EXPECT_LT(hub, bay);
    EXPECT_LT(bay, fn);
}

/** Elapsed simulated time of one small SPMD program on every fabric.
 *  The cluster's wiring (host CPUs, MACs, switch ports, links) reaches
 *  these ticks. They are the unperturbed schedule's: a perturbation
 *  salt reorders contending same-tick requests and so moves a 4-node
 *  cluster's elapsed time (DESIGN.md, multi-node contention). */
TEST(Cluster, ElapsedTicksArePinned)
{
    sim::perturb::ScopedSalt unperturbed(0);
    const std::pair<Config, sim::Tick> rows[] = {
        {Config::feCluster(4, NetKind::FeBay28115), 763249382},
        {Config::feCluster(4, NetKind::FeHub), 1644894452},
        {Config::feCluster(4, NetKind::FeFn100), 1042465658},
        {Config::atmSplitC(4), 1146433330},
    };
    for (const auto &[config, pinned] : rows) {
        sim::Simulation s;
        Cluster c(s, config);
        sim::Tick elapsed =
            c.run([](splitc::Runtime &rt, sim::Process &proc) {
                splitc::HeapAddr slot = rt.alloc<std::uint64_t>(1);
                *rt.localPtr<std::uint64_t>(slot) =
                    static_cast<std::uint64_t>(rt.self());
                rt.barrier(proc);
                int next = (rt.self() + 1) % rt.procs();
                std::uint64_t v = rt.read(
                    proc, splitc::GlobalPtr<std::uint64_t>(next, slot));
                rt.allReduceSum(proc, v);
                rt.barrier(proc);
            });
        EXPECT_EQ(elapsed, pinned) << static_cast<int>(config.net);
    }
}
