/** @file Unit tests for the synthetic workload generator. */

#include <map>

#include <gtest/gtest.h>

#include "trace/synth_generator.hh"
#include "trace/workload.hh"

namespace gpm
{
namespace
{

WorkloadSpec
simpleSpec()
{
    WorkloadSpec w;
    w.name = "test";
    w.isFp = false;
    w.totalInsts = 100'000;
    w.seed = 77;
    PhaseSpec p{};
    p.lengthInsts = 10'000;
    p.fracLoad = 0.30;
    p.fracStore = 0.10;
    p.fracBranch = 0.10;
    p.fracFp = 0.5;
    p.hotFrac = 1.0;
    w.phases = {p};
    return w;
}

TEST(SynthGenerator, ProducesExactlyTotalInsts)
{
    SynthGenerator g(simpleSpec());
    MicroOp op;
    std::uint64_t n = 0;
    while (g.next(op))
        n++;
    EXPECT_EQ(n, 100'000u);
    EXPECT_EQ(g.emitted(), 100'000u);
}

TEST(SynthGenerator, DeterministicStreams)
{
    SynthGenerator a(simpleSpec()), b(simpleSpec());
    MicroOp oa, ob;
    for (int i = 0; i < 20'000; i++) {
        ASSERT_TRUE(a.next(oa));
        ASSERT_TRUE(b.next(ob));
        ASSERT_EQ(oa.pc, ob.pc);
        ASSERT_EQ(oa.addr, ob.addr);
        ASSERT_EQ(static_cast<int>(oa.cls),
                  static_cast<int>(ob.cls));
        ASSERT_EQ(oa.depA, ob.depA);
        ASSERT_EQ(oa.taken, ob.taken);
    }
}

TEST(SynthGenerator, DifferentSeedsDiffer)
{
    auto s1 = simpleSpec();
    auto s2 = simpleSpec();
    s2.seed = 78;
    SynthGenerator a(s1), b(s2);
    MicroOp oa, ob;
    int diffs = 0;
    for (int i = 0; i < 1000; i++) {
        a.next(oa);
        b.next(ob);
        if (oa.addr != ob.addr ||
            static_cast<int>(oa.cls) != static_cast<int>(ob.cls))
            diffs++;
    }
    EXPECT_GT(diffs, 100);
}

TEST(SynthGenerator, OpMixMatchesSpec)
{
    SynthGenerator g(simpleSpec());
    MicroOp op;
    std::map<OpClass, int> counts;
    const int n = 100'000;
    for (int i = 0; i < n; i++) {
        ASSERT_TRUE(g.next(op));
        counts[op.cls]++;
    }
    EXPECT_NEAR(counts[OpClass::Load] / double(n), 0.30, 0.01);
    EXPECT_NEAR(counts[OpClass::Store] / double(n), 0.10, 0.01);
    EXPECT_NEAR(counts[OpClass::Branch] / double(n), 0.10, 0.01);
    double fp = (counts[OpClass::FpAlu] + counts[OpClass::FpMul] +
                 counts[OpClass::FpDiv]) /
        double(n);
    EXPECT_NEAR(fp, 0.5 * 0.5, 0.01); // 50% of compute = 25%
}

TEST(SynthGenerator, LengthScaleShortens)
{
    SynthGenerator g(simpleSpec(), 0.1);
    EXPECT_EQ(g.totalInsts(), 10'000u);
    MicroOp op;
    std::uint64_t n = 0;
    while (g.next(op))
        n++;
    EXPECT_EQ(n, 10'000u);
}

TEST(SynthGenerator, HotAddressesStayInHotRegion)
{
    auto s = simpleSpec();
    SynthGenerator g(s);
    MicroOp op;
    for (int i = 0; i < 50'000; i++) {
        ASSERT_TRUE(g.next(op));
        if (isMem(op.cls)) {
            EXPECT_LT(op.addr, s.hotBytes);
        }
    }
}

TEST(SynthGenerator, ColdAddressesReachColdRegion)
{
    auto s = simpleSpec();
    s.phases[0].hotFrac = 0.0;
    s.phases[0].coldFrac = 1.0;
    SynthGenerator g(s);
    MicroOp op;
    int cold = 0;
    for (int i = 0; i < 10'000; i++) {
        ASSERT_TRUE(g.next(op));
        if (isMem(op.cls)) {
            EXPECT_GE(op.addr, 0x2000'0000ULL);
            cold++;
        }
    }
    EXPECT_GT(cold, 1000);
}

TEST(SynthGenerator, StreamsAreSequential)
{
    auto s = simpleSpec();
    s.phases[0].hotFrac = 0.0;
    s.phases[0].strideFrac = 1.0;
    SynthGenerator g(s);
    MicroOp op;
    std::map<std::uint64_t, std::uint64_t> last_per_stream;
    for (int i = 0; i < 10'000; i++) {
        ASSERT_TRUE(g.next(op));
        if (!isMem(op.cls))
            continue;
        std::uint64_t stream = op.addr >> 24;
        auto it = last_per_stream.find(stream);
        if (it != last_per_stream.end() && op.addr > it->second) {
            EXPECT_EQ(op.addr - it->second, 8u);
        }
        last_per_stream[stream] = op.addr;
    }
    EXPECT_GE(last_per_stream.size(), 2u);
}

TEST(SynthGenerator, ChainedLoadsDependOnPreviousLoad)
{
    auto s = simpleSpec();
    s.phases[0].chainFrac = 1.0;
    SynthGenerator g(s);
    MicroOp op;
    int last_load = -1;
    int chained = 0;
    int idx = 0;
    for (int i = 0; i < 20'000; i++) {
        ASSERT_TRUE(g.next(op));
        if (op.cls == OpClass::Load) {
            if (last_load >= 0 && idx - last_load <= 63) {
                // depA must point exactly at the previous load.
                if (op.depA == idx - last_load)
                    chained++;
            }
            last_load = idx;
        }
        idx++;
    }
    EXPECT_GT(chained, 4000);
}

TEST(SynthGenerator, PhasesCycle)
{
    auto s = simpleSpec();
    PhaseSpec second = s.phases[0];
    second.lengthInsts = 5'000;
    second.fracLoad = 0.0;
    second.fracStore = 0.0;
    s.phases.push_back(second);
    SynthGenerator g(s);
    MicroOp op;
    // Phase 0: 10K ops, phase 1: 5K ops, repeat.
    for (int i = 0; i < 10'000; i++)
        ASSERT_TRUE(g.next(op));
    EXPECT_EQ(g.currentPhase(), 0u); // phase switch is lazy
    int mem_in_phase1 = 0;
    for (int i = 0; i < 5'000; i++) {
        ASSERT_TRUE(g.next(op));
        if (isMem(op.cls))
            mem_in_phase1++;
    }
    EXPECT_EQ(mem_in_phase1, 0);
    // Back to phase 0.
    int mem_again = 0;
    for (int i = 0; i < 5'000; i++) {
        ASSERT_TRUE(g.next(op));
        if (isMem(op.cls))
            mem_again++;
    }
    EXPECT_GT(mem_again, 1000);
}

TEST(SynthGenerator, TakenBranchesJumpWithinCodeFootprint)
{
    auto s = simpleSpec();
    s.codeBytes = 64 * 1024;
    SynthGenerator g(s);
    MicroOp op;
    std::uint64_t prev_pc = 0;
    bool prev_taken = false;
    for (int i = 0; i < 50'000; i++) {
        ASSERT_TRUE(g.next(op));
        EXPECT_GE(op.pc, 0x8000'0000ULL);
        EXPECT_LT(op.pc, 0x8000'0000ULL + s.codeBytes + 4096);
        if (prev_taken) {
            EXPECT_EQ(op.pc % 128, 0u); // jumps land on block starts
        } else if (prev_pc) {
            EXPECT_EQ(op.pc, prev_pc + 4);
        }
        prev_pc = op.pc;
        prev_taken = op.cls == OpClass::Branch && op.taken;
    }
}

TEST(SynthGenerator, SuiteSpecsAllGenerate)
{
    for (const auto &w : spec2000Suite()) {
        SynthGenerator g(w, 0.001);
        MicroOp op;
        std::uint64_t n = 0;
        while (g.next(op))
            n++;
        EXPECT_GT(n, 0u) << w.name;
        EXPECT_EQ(n, g.totalInsts()) << w.name;
    }
}

TEST(Workload, SuiteHasTwelveBenchmarks)
{
    EXPECT_EQ(spec2000Suite().size(), 12u);
}

TEST(Workload, LookupFindsAll)
{
    for (const auto &w : spec2000Suite())
        EXPECT_EQ(workload(w.name).seed, w.seed);
}

TEST(Workload, Table2CombinationsPresent)
{
    auto &combos = benchmarkCombinations();
    EXPECT_EQ(combos.size(), 10u);
    EXPECT_EQ(combination("4way1").size(), 4u);
    EXPECT_EQ(combination("2way4").size(), 2u);
    EXPECT_EQ(combination("8way2").size(), 8u);
    EXPECT_EQ(combination("4way1")[1], "mcf");
}

TEST(Workload, FractionsAreValid)
{
    for (const auto &w : spec2000Suite()) {
        for (const auto &p : w.phases) {
            EXPECT_LE(p.fracLoad + p.fracStore + p.fracBranch, 1.0)
                << w.name;
            EXPECT_LE(p.strideFrac + p.hotFrac + p.warmFrac +
                          p.coldFrac,
                      1.0 + 1e-9)
                << w.name;
            EXPECT_GT(p.lengthInsts, 0u) << w.name;
        }
    }
}

} // namespace
} // namespace gpm
