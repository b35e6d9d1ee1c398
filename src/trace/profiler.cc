#include "profiler.hh"

#include "trace/synth_generator.hh"
#include "uarch/core.hh"
#include "uarch/memory.hh"
#include "util/logging.hh"

namespace gpm
{

Profiler::Profiler(const DvfsTable &dvfs_, CoreConfig cfg_,
                   CorePowerParams pwr_)
    : dvfs(dvfs_), cfg(cfg_), pwrParams(pwr_)
{
}

WorkloadProfile
Profiler::profileWorkload(const WorkloadSpec &spec,
                          double length_scale,
                          std::uint64_t chunk_insts) const
{
    GPM_ASSERT(chunk_insts > 0);
    const std::size_t n_modes = dvfs.numModes();
    CorePowerModel power(pwrParams, dvfs);
    PrivateL2 l2(cfg);
    MemorySystem mem(cfg, l2);
    SynthGenerator gen(spec, length_scale);
    // One op stream, one cache / predictor pass: PrivateL2 ignores
    // request times, so each op's accesses and activity are the same
    // at every clock and only the timing is per mode.
    OpResolver ops(cfg, mem);
    std::vector<CoreTiming> timing;
    std::vector<std::uint64_t> chunkStartPs(n_modes, 0);
    WorkloadProfile result;
    result.name = spec.name;
    result.modes.resize(n_modes);
    const std::uint64_t n_chunks =
        (gen.totalInsts() + chunk_insts - 1) / chunk_insts;
    for (std::size_t mi = 0; mi < n_modes; mi++) {
        timing.emplace_back(cfg,
                            dvfs.frequency(static_cast<PowerMode>(mi)));
        result.modes[mi].chunkInsts = chunk_insts;
        result.modes[mi].lastChunkInsts = chunk_insts;
        result.modes[mi].reserve(n_chunks);
    }

    // Close the chunk of @p insts ops at every mode.
    auto cut = [&](std::uint64_t insts) {
        for (std::size_t mi = 0; mi < n_modes; mi++) {
            const CoreTiming &t = timing[mi];
            ActivitySample a = ops.act;
            ChunkRecord c;
            c.timePs = t.nowPs() - chunkStartPs[mi];
            chunkStartPs[mi] = t.nowPs();
            a.cycles = c.timePs / t.periodPs();
            c.energyJ = power.energy(a, static_cast<PowerMode>(mi));
            c.l2Accesses = static_cast<std::uint32_t>(a.l2Accesses);
            c.l2Misses = static_cast<std::uint32_t>(a.l2Misses);
            result.modes[mi].append(c);
            result.modes[mi].lastChunkInsts = insts;
        }
        ops.act.reset();
    };

    MicroOp op;
    std::uint64_t n = 0;
    while (gen.next(op)) {
        const ResolvedOp r = ops.resolve(op);
        for (CoreTiming &t : timing)
            t.step(op, r);
        if (++n == chunk_insts) {
            cut(n);
            n = 0;
        }
    }
    if (n > 0)
        cut(n);
    return result;
}

ProfileSummary
Profiler::summarize(const WorkloadProfile &p) const
{
    ProfileSummary s;
    s.name = p.name;
    const ModeProfile &turbo = p.at(modes::Turbo);
    double t0 = static_cast<double>(turbo.totalTimePs());
    double p0 = turbo.avgPowerW();
    s.turboPowerW = p0;
    s.turboIpc = static_cast<double>(turbo.totalInsts()) /
        (t0 * 1e-12 * dvfs.nominalFrequency());
    for (std::size_t mi = 1; mi < p.modes.size(); mi++) {
        const ModeProfile &mp = p.modes[mi];
        double t = static_cast<double>(mp.totalTimePs());
        s.perfDegradation.push_back((t - t0) / t0);
        s.powerSavings.push_back((p0 - mp.avgPowerW()) / p0);
    }
    return s;
}

} // namespace gpm
