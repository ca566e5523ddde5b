/**
 * @file
 * Bounded serving-plane soaks (ctest label: serve-soak).
 *
 * Incast at fan-in 64 through each fabric, clean and under seeded
 * Gilbert-Elliott burst loss, plus the determinism contract the SLO
 * curves depend on: every rig metric — and therefore every published
 * curve point — must be byte-stable across UNET_PERTURB salts.
 */

#include <gtest/gtest.h>

#include <utility>

#include "obs/digest.hh"
#include "serve/rig.hh"
#include "sim/perturb.hh"

using namespace unet;

namespace {

serve::RigSpec
incastSpec(serve::NicKind nic, bool loss)
{
    serve::RigSpec spec;
    spec.nic = nic;
    spec.clients = 64;
    spec.seed = 1;
    if (loss)
        spec.faults = nic == serve::NicKind::Fe
                          ? "seed=11 eth.switch.ge=0.005/0.2/0.8"
                          : "seed=11 atm.switch.ge=0.005/0.2/0.8";
    return spec;
}

serve::Workload
incastLoad(serve::NicKind nic)
{
    // ~half the calibrated per-NIC serving capacity (see
    // bench/serve_slo.cc): enough pressure for real fan-in contention,
    // below the Go-Back-N congestion knee.
    double offered = nic == serve::NicKind::Fe ? 27500.0 : 14000.0;
    serve::Workload w;
    w.requestsPerClient = 16;
    w.meanGap = static_cast<sim::Tick>(64.0 * 1e12 / offered);
    return w;
}

void
expectSound(const serve::RunResult &r)
{
    ASSERT_TRUE(r.finished);
    EXPECT_EQ(r.completed + r.giveUps, r.issued);
    EXPECT_GT(r.completed, 0u);
    EXPECT_GT(r.p50Us, 0.0);
    EXPECT_GE(r.p999Us, r.p99Us);
}

} // namespace

TEST(ServeSoak, FeIncastClean)
{
    serve::ServeRig rig(incastSpec(serve::NicKind::Fe, false));
    serve::RunResult r = rig.run(incastLoad(serve::NicKind::Fe));
    expectSound(r);
    EXPECT_EQ(r.giveUps, 0u);
    EXPECT_EQ(r.serverRxQueueDrops, 0u);
}

TEST(ServeSoak, AtmIncastClean)
{
    serve::ServeRig rig(incastSpec(serve::NicKind::Atm, false));
    serve::RunResult r = rig.run(incastLoad(serve::NicKind::Atm));
    expectSound(r);
    EXPECT_EQ(r.giveUps, 0u);
    EXPECT_EQ(r.serverRxQueueDrops, 0u);
}

TEST(ServeSoak, FeIncastBurstLossRecovers)
{
    serve::ServeRig rig(incastSpec(serve::NicKind::Fe, true));
    serve::RunResult r = rig.run(incastLoad(serve::NicKind::Fe));
    expectSound(r);
    EXPECT_GT(r.clientRetransmits + r.serverRetransmits, 0u);
}

TEST(ServeSoak, AtmIncastBurstLossRecovers)
{
    serve::ServeRig rig(incastSpec(serve::NicKind::Atm, true));
    serve::RunResult r = rig.run(incastLoad(serve::NicKind::Atm));
    expectSound(r);
    EXPECT_GT(r.clientRetransmits + r.serverRetransmits, 0u);
}

/**
 * A client whose NIC drops every frame it receives loses its AM
 * channel mid-stream: an issue() fails once the retransmit budget is
 * spent. The requests still in that channel's window must be retired
 * as give-ups, not left uncounted, so the accounting identity holds
 * with a dead channel too.
 */
TEST(ServeSoak, DeadChannelRetiresItsWindow)
{
    serve::RigSpec spec;
    spec.nic = serve::NicKind::Fe;
    spec.clients = 4;
    spec.seed = 1;
    spec.faults = "seed=1 nic.fe.rx.c1.drop=1";
    serve::ServeRig rig(spec);
    serve::Workload w;
    w.requestsPerClient = 40;
    w.meanGap = sim::microseconds(200);
    serve::RunResult r = rig.run(w);
    EXPECT_TRUE(r.finished);
    EXPECT_GT(r.giveUps, 0u);
    EXPECT_EQ(r.completed + r.giveUps, r.issued)
        << r.issued << " issued, " << r.completed << " completed, "
        << r.giveUps << " given up";
}

/**
 * The acceptance contract behind the published curves: one incast
 * experiment, re-run under perturbation salts 1..5, must reproduce
 * the salt-0 metrics registry bit for bit (digest equality covers
 * every counter and histogram bucket in the run).
 */
TEST(ServeSoak, MetricsDigestStableAcrossPerturbSalts)
{
    auto runDigest = [](std::uint64_t salt) {
        sim::perturb::ScopedSalt scoped(salt);
        serve::RigSpec spec;
        spec.nic = serve::NicKind::Fe;
        spec.clients = 16;
        spec.seed = 1;
        spec.faults = "seed=11 eth.switch.ge=0.005/0.2/0.8";
        serve::ServeRig rig(spec);
        serve::Workload w;
        w.requestsPerClient = 12;
        w.meanGap = static_cast<sim::Tick>(16.0 * 1e12 / 27500.0);
        serve::RunResult r = rig.run(w);
        EXPECT_TRUE(r.finished) << "salt " << salt;
        return obs::digestOf(rig.metrics());
    };

    std::uint64_t base = runDigest(0);
    for (std::uint64_t salt = 1; salt <= 5; ++salt)
        EXPECT_EQ(runDigest(salt), base) << "salt " << salt;
}

/** The same contract over ATM, open loop at 14 000 req/s offered:
 *  16 clients x 12 requests, and the serve_slo curve point atm_c4_u50
 *  (4 clients x 300 requests), whose long per-client streams put one
 *  endpoint's custody windows back to back on a single tick. */
TEST(ServeSoak, AtmMetricsDigestStableAcrossPerturbSalts)
{
    auto runDigest = [](int clients, int requests, std::uint64_t salt) {
        sim::perturb::ScopedSalt scoped(salt);
        serve::RigSpec spec;
        spec.nic = serve::NicKind::Atm;
        spec.clients = clients;
        spec.seed = 1;
        serve::ServeRig rig(spec);
        serve::Workload w;
        w.requestsPerClient = requests;
        w.meanGap = static_cast<sim::Tick>(clients * 1e12 / 14000.0);
        serve::RunResult r = rig.run(w);
        EXPECT_TRUE(r.finished) << clients << " clients, salt " << salt;
        return obs::digestOf(rig.metrics());
    };

    for (auto [clients, requests] :
         {std::pair{16, 12}, std::pair{4, 300}}) {
        std::uint64_t base = runDigest(clients, requests, 0);
        for (std::uint64_t salt = 1; salt <= 5; ++salt)
            EXPECT_EQ(runDigest(clients, requests, salt), base)
                << clients << " clients, salt " << salt;
    }
}
