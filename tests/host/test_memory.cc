#include <gtest/gtest.h>

#include <sys/mman.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>

#include "host/interrupts.hh"
#include "host/memory.hh"
#include "sim/perturb.hh"
#include "sim/simulation.hh"

using namespace unet;
using namespace unet::sim::literals;

namespace {

constexpr std::size_t arenaBytes = 8 * 1024 * 1024;

/** Resident pages among the whole pages inside @p m's arena. */
std::size_t
residentPages(host::Memory &m)
{
    const auto page = static_cast<std::uintptr_t>(sysconf(_SC_PAGESIZE));
    const auto start = reinterpret_cast<std::uintptr_t>(
        m.region(0, m.size()).data());
    const std::uintptr_t first = (start + page - 1) & ~(page - 1);
    const std::uintptr_t last = (start + m.size()) & ~(page - 1);
    std::vector<unsigned char> vec((last - first) / page);
    if (mincore(reinterpret_cast<void *>(first), last - first,
                vec.data()) != 0) {
        ADD_FAILURE() << "mincore failed";
        return 0;
    }
    return static_cast<std::size_t>(std::count_if(
        vec.begin(), vec.end(), [](unsigned char v) { return v & 1; }));
}

} // namespace

TEST(Memory, AllocAdvances)
{
    host::Memory m(1024);
    std::size_t a = m.alloc(100);
    std::size_t b = m.alloc(100);
    EXPECT_GE(b, a + 100);
    EXPECT_LE(m.remaining(), 1024 - 200);
}

TEST(Memory, AllocRespectsAlignment)
{
    host::Memory m(1024);
    m.alloc(3);
    std::size_t a = m.alloc(8, 64);
    EXPECT_EQ(a % 64, 0u);
}

TEST(Memory, WriteReadRoundTrip)
{
    host::Memory m(256);
    std::vector<std::uint8_t> data{1, 2, 3, 4, 5};
    std::size_t off = m.alloc(5);
    m.write(off, data);
    EXPECT_EQ(m.read(off, 5), data);
}

TEST(Memory, RegionIsLive)
{
    host::Memory m(256);
    std::size_t off = m.alloc(4);
    auto span = m.region(off, 4);
    span[0] = 0xAB;
    EXPECT_EQ(m.read(off, 1)[0], 0xAB);
}

TEST(Memory, FreshArenaHasNoResidentPage)
{
    // Building a host costs no page: the arena is zero because it was
    // never touched, not because it was cleared.
    host::Memory m(arenaBytes);
    EXPECT_EQ(residentPages(m), 0u);
    m.region(arenaBytes / 2, 1)[0] = 1;
    EXPECT_GE(residentPages(m), 1u); // mincore does see a written page
}

TEST(Memory, ArenaAfterADirtyOneReadsZero)
{
    for (std::uint64_t salt : {0u, 31337u}) {
        sim::perturb::ScopedSalt s(salt);
        {
            host::Memory dirty(arenaBytes);
            auto all = dirty.region(0, arenaBytes);
            std::fill(all.begin(), all.end(), 0xA5);
        }
        host::Memory fresh(arenaBytes);
        auto all = fresh.region(0, arenaBytes);
        EXPECT_TRUE(std::all_of(all.begin(), all.end(),
                                [](std::uint8_t b) { return b == 0; }))
            << "salt " << salt;
    }
}

TEST(MemoryDeathTest, OutOfBoundsPanics)
{
    host::Memory m(16);
    EXPECT_DEATH(m.region(12, 8), "out of bounds");
}

TEST(InterruptLine, DeliversAfterDispatchLatency)
{
    sim::Simulation s;
    host::Cpu cpu(s, host::CpuSpec::pentium120(), "cpu");
    host::InterruptLine irq(s, cpu, "nic");
    sim::Tick fired = -1;
    irq.connect([&] { fired = s.now(); });
    s.schedule(10_us, [&] { irq.assertLine(); });
    s.run();
    EXPECT_EQ(fired, 10_us + cpu.spec().interruptDispatch);
}

TEST(InterruptLine, CoalescesWhilePending)
{
    sim::Simulation s;
    host::Cpu cpu(s, host::CpuSpec::pentium120(), "cpu");
    host::InterruptLine irq(s, cpu, "nic");
    int delivered = 0;
    irq.connect([&] { ++delivered; });
    s.schedule(0, [&] {
        irq.assertLine();
        irq.assertLine(); // while pending: coalesce
    });
    s.run();
    EXPECT_EQ(delivered, 1);
    EXPECT_EQ(irq.asserted(), 2u);
    EXPECT_EQ(irq.delivered(), 1u);
}

TEST(InterruptLine, RearmsAfterDelivery)
{
    sim::Simulation s;
    host::Cpu cpu(s, host::CpuSpec::pentium120(), "cpu");
    host::InterruptLine irq(s, cpu, "nic");
    int delivered = 0;
    irq.connect([&] { ++delivered; });
    s.schedule(0, [&] { irq.assertLine(); });
    s.schedule(100_us, [&] { irq.assertLine(); });
    s.run();
    EXPECT_EQ(delivered, 2);
}
