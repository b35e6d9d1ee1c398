/**
 * @file
 * Shared test fixtures: scripted micro-op sources, hand-built
 * workload profiles, and random ModeMatrix generators.
 */

#ifndef GPM_TESTS_HELPERS_HH
#define GPM_TESTS_HELPERS_HH

#include <vector>

#include "core/types.hh"
#include "trace/phase_profile.hh"
#include "uarch/isa.hh"
#include "util/rng.hh"

namespace gpm::test
{

/** OpSource that replays a fixed vector of micro-ops. */
class ScriptedSource : public OpSource
{
  public:
    explicit ScriptedSource(std::vector<MicroOp> ops)
        : ops(std::move(ops))
    {
    }

    bool
    next(MicroOp &op) override
    {
        if (pos >= ops.size())
            return false;
        op = ops[pos++];
        return true;
    }

  private:
    std::vector<MicroOp> ops;
    std::size_t pos = 0;
};

/** n copies of the same op (pc advances). */
inline std::vector<MicroOp>
repeatOp(OpClass cls, std::size_t n, std::uint8_t dep_a = 0,
         std::uint64_t addr_stride = 0)
{
    std::vector<MicroOp> ops(n);
    for (std::size_t i = 0; i < n; i++) {
        ops[i].cls = cls;
        ops[i].pc = 0x1000 + 4 * i;
        ops[i].depA = dep_a;
        ops[i].addr = addr_stride * i;
    }
    return ops;
}

/**
 * Hand-built WorkloadProfile: `chunks` chunks of `chunk_insts`
 * instructions each. Mode m runs a chunk in base_us * slowdown[m]
 * microseconds consuming base_j * pscale[m] joules.
 */
inline WorkloadProfile
syntheticProfile(std::size_t chunks, std::uint64_t chunk_insts,
                 double base_us, double base_j,
                 const std::vector<double> &slowdown,
                 const std::vector<double> &pscale,
                 std::uint32_t l2_misses_per_chunk = 0)
{
    WorkloadProfile p;
    p.name = "synthetic";
    for (std::size_t m = 0; m < slowdown.size(); m++) {
        ModeProfile mp;
        mp.chunkInsts = chunk_insts;
        mp.lastChunkInsts = chunk_insts;
        for (std::size_t c = 0; c < chunks; c++) {
            ChunkRecord r;
            r.timePs = static_cast<std::uint64_t>(
                base_us * slowdown[m] * 1e6);
            r.energyJ = base_j * pscale[m];
            r.l2Misses = l2_misses_per_chunk;
            r.l2Accesses = l2_misses_per_chunk * 2;
            mp.append(r);
        }
        p.modes.push_back(std::move(mp));
    }
    return p;
}

/** Classic-3-mode synthetic profile with cubic power behaviour. */
inline WorkloadProfile
classicSyntheticProfile(std::size_t chunks = 100,
                        double base_us = 10.0, double base_j = 1e-4)
{
    return syntheticProfile(chunks, 10'000, base_us, base_j,
                            {1.0, 1.0 / 0.95, 1.0 / 0.85},
                            {1.0, 0.857375, 0.614125});
}

/** Random ModeMatrix: powers descend with mode, bips descend too. */
inline ModeMatrix
randomMatrix(std::size_t cores, std::size_t n_modes,
             std::uint64_t seed)
{
    Rng rng(seed);
    ModeMatrix m(cores, n_modes);
    for (std::size_t c = 0; c < cores; c++) {
        double p = rng.uniform(5.0, 12.0);
        double b = rng.uniform(0.2, 2.5);
        for (std::size_t mi = 0; mi < n_modes; mi++) {
            double s = 1.0 -
                0.15 * static_cast<double>(mi) *
                    rng.uniform(0.8, 1.2);
            auto mode = static_cast<PowerMode>(mi);
            m.powerW(c, mode) = p * s * s * s;
            m.bips(c, mode) = b * s;
        }
    }
    return m;
}

} // namespace gpm::test

#endif // GPM_TESTS_HELPERS_HH
