/** @file Integration tests: profiling real workloads on the core
 *  model (small length scales). */

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "trace/profiler.hh"
#include "trace/synth_generator.hh"
#include "trace/workload.hh"
#include "uarch/core.hh"
#include "uarch/memory.hh"

namespace gpm
{
namespace
{

class ProfilerTest : public ::testing::Test
{
  protected:
    ProfilerTest() : dvfs(DvfsTable::classic3()), prof(dvfs) {}

    DvfsTable dvfs;
    Profiler prof;
};

TEST_F(ProfilerTest, ChunkStructureConsistentAcrossModes)
{
    auto p = prof.profileWorkload(workload("ammp"), 0.01);
    ASSERT_EQ(p.modes.size(), 3u);
    EXPECT_EQ(p.at(0).numChunks(), p.at(1).numChunks());
    EXPECT_EQ(p.at(0).numChunks(), p.at(2).numChunks());
    EXPECT_EQ(p.at(0).totalInsts(), p.at(2).totalInsts());
}

TEST_F(ProfilerTest, SlowerModesSlowerAndCheaper)
{
    auto p = prof.profileWorkload(workload("crafty"), 0.01);
    EXPECT_GT(p.at(modes::Eff1).totalTimePs(),
              p.at(modes::Turbo).totalTimePs());
    EXPECT_GT(p.at(modes::Eff2).totalTimePs(),
              p.at(modes::Eff1).totalTimePs());
    EXPECT_LT(p.at(modes::Eff1).avgPowerW(),
              p.at(modes::Turbo).avgPowerW());
    EXPECT_LT(p.at(modes::Eff2).avgPowerW(),
              p.at(modes::Eff1).avgPowerW());
}

TEST_F(ProfilerTest, MemoryBoundDegradesLessThanComputeBound)
{
    auto cpu = prof.profileWorkload(workload("sixtrack"), 0.01);
    auto mem = prof.profileWorkload(workload("mcf"), 0.01);
    auto slow = [](const WorkloadProfile &p) {
        return static_cast<double>(
                   p.at(modes::Eff2).totalTimePs()) /
            static_cast<double>(p.at(modes::Turbo).totalTimePs());
    };
    EXPECT_GT(slow(cpu), 1.12);
    EXPECT_LT(slow(mem), 1.06);
}

TEST_F(ProfilerTest, PowerSavingsNearCubic)
{
    auto p = prof.profileWorkload(workload("gcc"), 0.01);
    auto s = prof.summarize(p);
    // Within a couple of points of the ideal 14.26% / 38.59%.
    EXPECT_NEAR(s.powerSavings[0], 0.1426, 0.02);
    EXPECT_NEAR(s.powerSavings[1], 0.3859, 0.03);
}

TEST_F(ProfilerTest, SummaryDegradationBounds)
{
    auto p = prof.profileWorkload(workload("mesa"), 0.01);
    auto s = prof.summarize(p);
    // Eff1 elapsed-time increase within (0, 1/0.95-1];
    // Eff2 within (0, 1/0.85-1].
    EXPECT_GT(s.perfDegradation[0], 0.0);
    EXPECT_LE(s.perfDegradation[0], 1.0 / 0.95 - 1.0 + 1e-9);
    EXPECT_GT(s.perfDegradation[1], 0.0);
    EXPECT_LE(s.perfDegradation[1], 1.0 / 0.85 - 1.0 + 1e-9);
}

TEST_F(ProfilerTest, L2TrafficComparableAcrossModes)
{
    // The same instruction stream produces (nearly) the same misses
    // regardless of frequency.
    auto p = prof.profileWorkload(workload("art"), 0.01);
    auto misses = [](const ModeProfile &mp) {
        double m = 0;
        for (std::uint32_t c : mp.l2Misses)
            m += c;
        return m;
    };
    double m0 = misses(p.at(modes::Turbo));
    double m2 = misses(p.at(modes::Eff2));
    EXPECT_GT(m0, 0.0);
    EXPECT_NEAR(m2 / m0, 1.0, 0.02);
}

TEST_F(ProfilerTest, CustomChunkSize)
{
    auto p1 =
        prof.profileWorkload(workload("mcf"), 0.01, 5'000);
    auto p2 =
        prof.profileWorkload(workload("mcf"), 0.01, 20'000);
    EXPECT_EQ(p1.at(0).totalInsts(), p2.at(0).totalInsts());
    EXPECT_GT(p1.at(0).numChunks(), p2.at(0).numChunks());
}

TEST_F(ProfilerTest, MemoryBoundHasLowerPower)
{
    auto cpu = prof.profileWorkload(workload("sixtrack"), 0.01);
    auto mem = prof.profileWorkload(workload("mcf"), 0.01);
    EXPECT_GT(cpu.at(modes::Turbo).avgPowerW(),
              mem.at(modes::Turbo).avgPowerW() * 1.4);
}

// ---------------------------------------------------------------
// Lockstep profiling equals one OooCore run per mode, bit for bit
// ---------------------------------------------------------------

/** The per-mode reference: the public OooCore + SynthGenerator +
 *  PrivateL2 API run once per mode, chunked by OooCore::run(). */
ModeProfile
referenceMode(const WorkloadSpec &spec, const DvfsTable &dvfs,
              PowerMode m, double scale, std::uint64_t chunk)
{
    CoreConfig cfg;
    CorePowerModel power(CorePowerParams::classic(), dvfs);
    PrivateL2 l2(cfg);
    MemorySystem mem(cfg, l2);
    SynthGenerator gen(spec, scale);
    OooCore core(cfg, mem, gen, dvfs.frequency(m));
    ModeProfile mp;
    mp.chunkInsts = chunk;
    mp.lastChunkInsts = chunk;
    for (;;) {
        CoreRunResult r = core.run(chunk);
        if (r.instructions == 0)
            break;
        ChunkRecord c;
        c.timePs = r.elapsedPs;
        c.energyJ = power.energy(r.activity, m);
        c.l2Accesses = static_cast<std::uint32_t>(r.activity.l2Accesses);
        c.l2Misses = static_cast<std::uint32_t>(r.activity.l2Misses);
        mp.append(c);
        if (r.streamEnded || r.instructions < chunk) {
            mp.lastChunkInsts = r.instructions;
            break;
        }
    }
    return mp;
}

class LockstepProfileTest : public ::testing::TestWithParam<std::string>
{
};

TEST_P(LockstepProfileTest, MatchesOneCoreRunPerModeBitwise)
{
    constexpr double scale = 0.01;
    const WorkloadSpec &spec = workload(GetParam());
    const std::uint64_t total = SynthGenerator(spec, scale).totalInsts();
    struct Case
    {
        DvfsTable dvfs;
        std::uint64_t chunk;
    };
    // At this scale most streams are a whole number of 5 000- and
    // 10 000-op chunks (lastChunkInsts == chunkInsts) and art's is
    // not; 7 000 leaves a short last chunk almost everywhere. The
    // 5-mode table is the one the many-core and ablation benches use.
    const Case cases[] = {{DvfsTable::classic3(), 5'000},
                          {DvfsTable::classic3(), 10'000},
                          {DvfsTable::linear(5), 7'000}};
    for (const Case &c : cases) {
        Profiler prof(c.dvfs);
        WorkloadProfile p = prof.profileWorkload(spec, scale, c.chunk);
        ASSERT_EQ(p.name, spec.name);
        ASSERT_EQ(p.modes.size(), c.dvfs.numModes());
        const std::uint64_t tail = total % c.chunk;
        for (std::size_t mi = 0; mi < p.modes.size(); mi++) {
            SCOPED_TRACE("chunk " + std::to_string(c.chunk) + ", mode " +
                         std::to_string(mi) + " of " +
                         std::to_string(p.modes.size()));
            const ModeProfile &got = p.modes[mi];
            ModeProfile want =
                referenceMode(spec, c.dvfs, static_cast<PowerMode>(mi),
                              scale, c.chunk);
            EXPECT_EQ(got.chunkInsts, want.chunkInsts);
            EXPECT_EQ(got.lastChunkInsts, want.lastChunkInsts);
            EXPECT_EQ(got.lastChunkInsts, tail ? tail : c.chunk);
            EXPECT_EQ(got.totalInsts(), total);
            ASSERT_EQ(got.numChunks(), want.numChunks());
            for (std::size_t k = 0; k < got.numChunks(); k++) {
                const ChunkRecord x = got.chunk(k), y = want.chunk(k);
                EXPECT_EQ(std::memcmp(&x.timePs, &y.timePs,
                                      sizeof x.timePs), 0)
                    << "chunk " << k;
                EXPECT_EQ(std::memcmp(&x.energyJ, &y.energyJ,
                                      sizeof x.energyJ), 0)
                    << "chunk " << k;
                EXPECT_EQ(std::memcmp(&x.l2Accesses, &y.l2Accesses,
                                      sizeof x.l2Accesses), 0)
                    << "chunk " << k;
                EXPECT_EQ(std::memcmp(&x.l2Misses, &y.l2Misses,
                                      sizeof x.l2Misses), 0)
                    << "chunk " << k;
            }
        }
    }
}

std::vector<std::string>
suiteNames()
{
    std::vector<std::string> names;
    for (const WorkloadSpec &w : spec2000Suite())
        names.push_back(w.name);
    return names;
}

INSTANTIATE_TEST_SUITE_P(
    Suite, LockstepProfileTest, ::testing::ValuesIn(suiteNames()),
    [](const ::testing::TestParamInfo<std::string> &i) {
        return i.param;
    });

} // namespace
} // namespace gpm
