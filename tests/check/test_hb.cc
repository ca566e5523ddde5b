/**
 * @file
 * Tests for the happens-before race auditor over the scenario
 * registry: planted cross-shard races are detected with both access
 * sites attributed and a replayable salt, every clean scenario audits
 * race-free with a canonical shardability report that is byte-stable
 * across perturbation salts, and the fiber suspension-point digest
 * distinguishes states the explorer would otherwise over-prune
 * together.
 */

#include <gtest/gtest.h>

#include <fstream>
#include <set>
#include <sstream>
#include <string>

#include "check/hb/report.hh"
#include "check/scenario.hh"
#include "sim/perturb.hh"
#include "sim/process.hh"
#include "sim/simulation.hh"

using namespace unet;
using namespace unet::check;

#if defined(UNET_CHECK) && UNET_CHECK

namespace {

/** Audit the registry entry @p name. */
hb::AuditResult
audit(const char *name)
{
    const ScenarioEntry *entry = findScenario(name);
    if (!entry)
        throw std::runtime_error(std::string("unknown scenario ") +
                                 name);
    return hb::audit(*entry);
}

} // namespace

TEST(HbPlanted, WriteWriteRaceOnResidencyCache)
{
    hb::AuditResult r = audit("planted-ww");
    ASSERT_FALSE(r.races.empty())
        << "the planted W/W race was not detected";

    bool found = false;
    for (const hb::RaceRecord &race : r.races) {
        if (std::string(race.kind) != "write/write")
            continue;
        found = true;
        // Both shard domains of the planted fibers, in either order.
        std::set<std::string> domains{race.firstDomain,
                                      race.secondDomain};
        EXPECT_EQ(domains,
                  (std::set<std::string>{"shardA", "shardB"}));
        // Both access sites must carry a real file:line (the
        // std::source_location of the touch() caller).
        EXPECT_STRNE(race.first.file, "");
        EXPECT_STRNE(race.second.file, "");
        EXPECT_GT(race.first.line, 0u);
        EXPECT_GT(race.second.line, 0u);
        EXPECT_STREQ(race.first.op, "touch");
        EXPECT_STREQ(race.second.op, "touch");
        // The record carries the active salt for replay.
        EXPECT_EQ(race.salt, sim::perturb::salt());
    }
    EXPECT_TRUE(found) << "no write/write race among "
                       << r.races.size() << " records";

    // The raced object is classified cross-shard in the report.
    EXPECT_NE(r.report.find("\"cross-shard\""), std::string::npos);
    EXPECT_NE(r.report.find("\"races\""), std::string::npos);
}

TEST(HbPlanted, ReadWriteRaceOnSendRing)
{
    hb::AuditResult r = audit("planted-rw");
    ASSERT_FALSE(r.races.empty())
        << "the planted R/W race was not detected";

    bool found = false;
    for (const hb::RaceRecord &race : r.races) {
        if (std::string(race.kind) != "read/write")
            continue;
        found = true;
        EXPECT_NE(race.object.find("sendq"), std::string::npos)
            << race.object;
        // One side is the foreign monitor fiber's peek, the other the
        // owning node's ring write.
        std::set<std::string> domains{race.firstDomain,
                                      race.secondDomain};
        EXPECT_TRUE(domains.count("monitor")) << race.firstDomain
                                              << " vs "
                                              << race.secondDomain;
        EXPECT_TRUE(domains.count("node0"));
        EXPECT_TRUE(std::string(race.first.op) == "spy ring peek" ||
                    std::string(race.second.op) == "spy ring peek");
        EXPECT_STRNE(race.first.file, "");
        EXPECT_STRNE(race.second.file, "");
        EXPECT_EQ(race.salt, sim::perturb::salt());
    }
    EXPECT_TRUE(found) << "no read/write race among "
                       << r.races.size() << " records";
}

TEST(HbPlanted, DetectionHoldsUnderPerturbation)
{
    // The planted races are ordering *structure*, not schedule
    // accidents: every perturbation salt must find every one of them.
    for (const ScenarioEntry &entry : scenarios()) {
        if (!entry.plantedRace)
            continue;
        for (std::uint64_t salt = 1; salt <= 3; ++salt) {
            sim::perturb::ScopedSalt scoped(salt);
            hb::AuditResult r = hb::audit(entry);
            ASSERT_FALSE(r.races.empty())
                << entry.name << " salt " << salt;
            EXPECT_EQ(r.races.front().salt, salt);
        }
    }
}

TEST(HbClean, Fig5IsRaceFree)
{
    hb::AuditResult r = audit("fig5");
    EXPECT_TRUE(r.races.empty())
        << r.races.size() << " race(s); first on '"
        << r.races.front().object << "'";
    EXPECT_FALSE(r.objects.empty());
    EXPECT_GT(r.chains, 0u);
    // The endpoint rings were exercised and stayed shard-local.
    EXPECT_NE(r.report.find("\"shard-local\""), std::string::npos);
    EXPECT_NE(r.report.find("unet-hb-shardability-v1"),
              std::string::npos);
}

/** The fault scenario is the explorer's "retransmit" entry: a burst
 *  of loss on one link inside an AM window, recovered by go-back-N. */
TEST(HbClean, FaultScenarioIsRaceFree)
{
    hb::AuditResult r = audit("retransmit");
    EXPECT_TRUE(r.races.empty())
        << r.races.size() << " race(s); first on '"
        << r.races.front().object << "'";
}

TEST(HbClean, ServeRigIsRaceFree)
{
    hb::AuditResult r = audit("serve");
    EXPECT_TRUE(r.races.empty())
        << r.races.size() << " race(s); first on '"
        << r.races.front().object << "'";
    // The RPC dispatch table is the server's alone.
    EXPECT_NE(r.report.find(".rpc.dispatch"), std::string::npos);
}

TEST(HbReport, CanonicalReportStableAcrossSalts)
{
    // Every scenario without a planted race audits race-free. Its
    // canonical report reflects happens-before structure; the
    // perturbation salts change same-tick schedules and addresses,
    // neither of which may leak into the report bytes.
    for (const ScenarioEntry &entry : scenarios()) {
        if (entry.plantedRace)
            continue;
        hb::AuditResult base = hb::audit(entry);
        EXPECT_TRUE(base.races.empty())
            << entry.name << ": " << base.races.size()
            << " race(s); first on '" << base.races.front().object
            << "'";
        for (std::uint64_t salt = 1; salt <= 5; ++salt) {
            sim::perturb::ScopedSalt scoped(salt);
            EXPECT_EQ(base.report, hb::audit(entry).report)
                << entry.name << " report diverges under salt " << salt;
        }
    }
}

TEST(HbReport, VerboseSectionIsSupplemental)
{
    hb::AuditResult r = audit("planted-ww");
    // The verbose form strictly extends the canonical form.
    EXPECT_NE(r.reportVerbose, r.report);
    EXPECT_NE(r.reportVerbose.find("\"verbose\""), std::string::npos);
    EXPECT_EQ(r.report.find("\"verbose\""), std::string::npos);
}

/** The canonical reports of three clean scenarios, byte for byte
 *  against the copies under tests/check/golden/. Regenerate one with
 *  `unet-hb <scenario> --report tests/check/golden/hb_<scenario>.json`
 *  and explain the change. */
TEST(HbReport, CleanReportsMatchGolden)
{
    for (const char *name : {"fig5", "retransmit", "serve"}) {
        std::ifstream in(std::string(UNET_HB_GOLDEN_DIR) + "/hb_" +
                         name + ".json");
        ASSERT_TRUE(in) << "missing golden report for " << name;
        std::stringstream want;
        want << in.rdbuf();
        EXPECT_EQ(audit(name).report, want.str()) << name;
    }
}

#endif // UNET_CHECK

// ---------------------------------------------------------------------
// Satellite: the fiber suspension-point token in the explorer digest.
// Two simulations reach the same point of progress — same simulated
// time, same fiber-progress counter, one fiber suspended — but one
// fiber sits in delay() and the other in waitOn(timeout). Without the
// suspension digest these states hash identically and the explorer
// would prune one as a duplicate of the other, even though only the
// waitOn state can be short-circuited by a notify. (This runs with
// UNET_CHECK both on and off: the digest is core sim state.)

namespace {

struct Probe
{
    sim::Tick now = 0;
    std::uint64_t fiberProgress = 0;
    std::uint64_t suspension = 0;
};

template <typename Body>
Probe
probeAt5us(Body body)
{
    sim::Simulation s;
    sim::WaitChannel ch;
    sim::Process p(s, "suspender",
                   [&](sim::Process &self) { body(self, ch); });
    Probe out;
    sim::Process probe(s, "probe", [&](sim::Process &self) {
        self.delay(sim::microseconds(5));
        out.now = s.now();
        out.fiberProgress = s.fiberProgress();
        out.suspension = s.suspensionDigest();
    });
    p.start();
    probe.start();
    s.run();
    return out;
}

} // namespace

TEST(SuspensionDigest, DistinguishesSuspensionReasonAtSameProgress)
{
    Probe delayed = probeAt5us([](sim::Process &self, sim::WaitChannel &) {
        self.delay(sim::microseconds(10));
    });
    Probe waiting = probeAt5us([](sim::Process &self, sim::WaitChannel &ch) {
        self.waitOn(ch, sim::microseconds(10));
    });

    // Identical by every pre-existing digest ingredient...
    EXPECT_EQ(delayed.now, waiting.now);
    EXPECT_EQ(delayed.fiberProgress, waiting.fiberProgress);
    // ...yet the states are NOT interchangeable, and the suspension
    // digest is what tells them apart.
    EXPECT_NE(delayed.suspension, 0u);
    EXPECT_NE(waiting.suspension, 0u);
    EXPECT_NE(delayed.suspension, waiting.suspension)
        << "explorer would over-prune: delay() and waitOn(timeout) "
           "states digest identically";
}

TEST(SuspensionDigest, ClearsOnResume)
{
    sim::Simulation s;
    sim::Process p(s, "p", [](sim::Process &self) {
        self.delay(sim::microseconds(1));
    });
    p.start();
    s.run();
    EXPECT_EQ(s.suspensionDigest(), 0u)
        << "suspension tokens must clear when fibers resume";
}
