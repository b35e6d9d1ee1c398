/**
 * @file
 * ProfileCursor's column replay kernel against the array-of-records
 * replay it replaced, bit for bit. The reference below keeps that
 * replay's arithmetic exactly: one ChunkRecord per chunk, uint64
 * time converted per chunk, and the shift/wrap state tested per
 * chunk. Every suite workload is replayed at every mode, unshifted
 * and from wrapping seekFraction() starts, at dilation 1 and above,
 * over seeded step sequences and over one step spanning the whole
 * profile; every Delta field and instructionsDone() must match to
 * the bit.
 */

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "trace/phase_profile.hh"
#include "trace/profiler.hh"
#include "trace/workload.hh"
#include "util/rng.hh"

namespace gpm
{
namespace
{

using Delta = ProfileCursor::Delta;

/** The array-of-records replay: the reference for the kernel. */
class AosCursor
{
  public:
    explicit AosCursor(const WorkloadProfile &p)
    {
        for (const ModeProfile &mp : p.modes) {
            Mode m;
            m.chunkInsts = mp.chunkInsts;
            m.lastChunkInsts = mp.lastChunkInsts;
            for (std::size_t i = 0; i < mp.numChunks(); i++)
                m.chunks.push_back(mp.chunk(i));
            modes.push_back(std::move(m));
        }
    }

    void
    seekFraction(double f)
    {
        const Mode &mp = modes[0];
        start = Pos{};
        shifted = false;
        if (f > 0.0 && !mp.chunks.empty()) {
            double target = f * static_cast<double>(mp.totalInsts());
            auto chunk = static_cast<std::size_t>(
                target / static_cast<double>(mp.chunkInsts));
            chunk = std::min(chunk, mp.chunks.size() - 1);
            std::uint64_t this_chunk = chunk + 1 == mp.chunks.size()
                ? mp.lastChunkInsts
                : mp.chunkInsts;
            double frac = (target -
                           static_cast<double>(chunk) *
                               static_cast<double>(mp.chunkInsts)) /
                static_cast<double>(this_chunk);
            start.chunk = chunk;
            start.frac = std::clamp(frac, 0.0, 1.0);
            shifted = true;
        }
        cur = start;
        instsAcc = 0.0;
    }

    Delta
    advance(MicroSec dt_us, PowerMode m, double dilation)
    {
        Delta d = advanceFrom(cur, dt_us, m, dilation);
        instsAcc += d.instructions;
        return d;
    }

    Delta
    peek(MicroSec dt_us, PowerMode m, double dilation) const
    {
        Pos tmp = cur;
        return advanceFrom(tmp, dt_us, m, dilation);
    }

    bool finished() const { return posFinished(cur); }

    double
    instructionsDone() const
    {
        const Mode &mp = modes[0];
        if (shifted)
            return std::min(instsAcc,
                            static_cast<double>(mp.totalInsts()));
        if (finished())
            return static_cast<double>(mp.totalInsts());
        double insts = static_cast<double>(cur.chunk) *
            static_cast<double>(mp.chunkInsts);
        std::uint64_t this_chunk = cur.chunk + 1 == mp.chunks.size()
            ? mp.lastChunkInsts
            : mp.chunkInsts;
        return insts + cur.frac * static_cast<double>(this_chunk);
    }

  private:
    struct Mode
    {
        std::vector<ChunkRecord> chunks;
        std::uint64_t chunkInsts = 0;
        std::uint64_t lastChunkInsts = 0;

        std::uint64_t
        totalInsts() const
        {
            return chunks.empty()
                ? 0
                : (chunks.size() - 1) * chunkInsts + lastChunkInsts;
        }
    };

    struct Pos
    {
        std::size_t chunk = 0;
        double frac = 0.0;
        bool wrapped = false;
    };

    bool
    posFinished(const Pos &pos) const
    {
        if (!shifted)
            return pos.chunk >= modes[0].chunks.size();
        return pos.wrapped &&
            (pos.chunk > start.chunk ||
             (pos.chunk == start.chunk && pos.frac >= start.frac));
    }

    Delta
    advanceFrom(Pos &pos, MicroSec dt_us, PowerMode m,
                double dilation) const
    {
        const Mode &mp = modes[m];
        Delta d;
        double remaining_ps = dt_us * 1e6;
        while (remaining_ps > 0.0 && !posFinished(pos)) {
            const ChunkRecord &c = mp.chunks[pos.chunk];
            std::uint64_t this_chunk_insts =
                pos.chunk + 1 == mp.chunks.size() ? mp.lastChunkInsts
                                                  : mp.chunkInsts;
            double end_frac =
                shifted && pos.wrapped && pos.chunk == start.chunk
                ? start.frac
                : 1.0;
            double chunk_ps = static_cast<double>(c.timePs) * dilation;
            double rem_frac = end_frac - pos.frac;
            double rem_ps = chunk_ps * rem_frac;
            if (rem_ps <= remaining_ps) {
                d.instructions +=
                    rem_frac * static_cast<double>(this_chunk_insts);
                d.energyJ += rem_frac * c.energyJ;
                d.l2Accesses +=
                    rem_frac * static_cast<double>(c.l2Accesses);
                d.l2Misses +=
                    rem_frac * static_cast<double>(c.l2Misses);
                remaining_ps -= rem_ps;
                if (end_frac < 1.0) {
                    pos.frac = end_frac;
                } else {
                    pos.chunk++;
                    pos.frac = 0.0;
                    if (shifted && !pos.wrapped &&
                        pos.chunk >= mp.chunks.size()) {
                        pos.chunk = 0;
                        pos.wrapped = true;
                    }
                }
            } else {
                double f = remaining_ps / chunk_ps;
                d.instructions +=
                    f * static_cast<double>(this_chunk_insts);
                d.energyJ += f * c.energyJ;
                d.l2Accesses += f * static_cast<double>(c.l2Accesses);
                d.l2Misses += f * static_cast<double>(c.l2Misses);
                pos.frac += f;
                remaining_ps = 0.0;
            }
        }
        d.usedUs = dt_us - remaining_ps * 1e-6;
        d.finished = posFinished(pos);
        return d;
    }

    std::vector<Mode> modes;
    Pos cur;
    Pos start;
    bool shifted = false;
    double instsAcc = 0.0;
};

bool
sameBits(double a, double b)
{
    return std::memcmp(&a, &b, sizeof a) == 0;
}

/** Empty when @p got equals @p want bit for bit, else what differs. */
std::string
deltaMismatch(const Delta &got, const Delta &want)
{
    std::string out;
    auto field = [&](const char *name, double g, double w) {
        if (sameBits(g, w))
            return;
        char buf[96];
        std::snprintf(buf, sizeof buf, " %s %.17g vs %.17g", name, g, w);
        out += buf;
    };
    field("instructions", got.instructions, want.instructions);
    field("energyJ", got.energyJ, want.energyJ);
    field("l2Accesses", got.l2Accesses, want.l2Accesses);
    field("l2Misses", got.l2Misses, want.l2Misses);
    field("usedUs", got.usedUs, want.usedUs);
    if (std::memcmp(&got.finished, &want.finished, sizeof got.finished))
        out += " finished";
    return out;
}

/** How a replay picks each step's mode and length. */
struct Schedule
{
    const char *name;
    /** Mode of every step, or -1 for a seeded random mode per step. */
    int mode;
    /** Seeded step lengths are uniform in [minUs, maxUs]. */
    double minUs;
    double maxUs;
    /** One step covering the whole profile instead (ignores the
     *  range): the kernel walks every chunk in one call. */
    bool wholeProfile;
};

/** Suite profile @p name at scale 0.01, built on first use. */
const WorkloadProfile &
suiteProfile(const std::string &name)
{
    static const DvfsTable dvfs = DvfsTable::classic3();
    static std::map<std::string, WorkloadProfile> profiles;
    auto it = profiles.find(name);
    if (it == profiles.end())
        it = profiles
                 .emplace(name, Profiler(dvfs).profileWorkload(
                                    workload(name), 0.01))
                 .first;
    return it->second;
}

class ReplayKernelTest : public ::testing::TestWithParam<std::string>
{
};

TEST_P(ReplayKernelTest, ColumnKernelMatchesAosReferenceBitwise)
{
    const WorkloadProfile &p = suiteProfile(GetParam());
    const std::size_t n_modes = p.modes.size();
    // Longest whole-profile replay: the slowest mode, dilated.
    double whole_us = 0.0;
    for (const ModeProfile &mp : p.modes)
        whole_us = std::max(
            whole_us, static_cast<double>(mp.totalTimePs()) * 1e-6);

    std::vector<Schedule> schedules;
    for (std::size_t m = 0; m < n_modes; m++)
        schedules.push_back({"fixed mode", static_cast<int>(m), 1.0,
                             120.0, false});
    schedules.push_back({"random modes", -1, 1.0, 120.0, false});
    schedules.push_back({"sub-chunk steps", -1, 0.05, 3.0, false});
    for (std::size_t m = 0; m < n_modes; m++)
        schedules.push_back({"whole profile", static_cast<int>(m), 0.0,
                             0.0, true});

    // 0 is unshifted; the others wrap, 0.999 right before the end.
    const double shifts[] = {0.0, 0.37, 0.5, 0.999};
    const double dilations[] = {1.0, 1.0 + 1.0 / 3.0, 2.5};

    std::uint64_t seed = 1;
    std::size_t steps = 0;
    for (const Schedule &s : schedules) {
        for (double shift : shifts) {
            for (double dil : dilations) {
                SCOPED_TRACE(std::string(s.name) + ", mode " +
                             std::to_string(s.mode) + ", shift " +
                             std::to_string(shift) + ", dilation " +
                             std::to_string(dil));
                ProfileCursor got(p);
                AosCursor want(p);
                if (shift > 0.0) {
                    got.seekFraction(shift);
                    want.seekFraction(shift);
                }
                Rng rng(seed++);
                // A few steps past the end check the finished state.
                int after_end = 3;
                std::size_t k = 0;
                for (; after_end > 0; k++) {
                    ASSERT_LT(k, 1'000'000u) << "replay never finished";
                    auto m = static_cast<PowerMode>(
                        s.mode >= 0 ? static_cast<std::size_t>(s.mode)
                                    : rng.next32() % n_modes);
                    MicroSec dt = s.wholeProfile
                        ? whole_us * dil * 1.01
                        : rng.uniform(s.minUs, s.maxUs);
                    auto peek_m = static_cast<PowerMode>(
                        rng.next32() % n_modes);
                    ASSERT_EQ(deltaMismatch(got.peek(dt, peek_m, dil),
                                            want.peek(dt, peek_m, dil)),
                              "")
                        << "peek at step " << k;
                    ASSERT_EQ(deltaMismatch(got.advance(dt, m, dil),
                                            want.advance(dt, m, dil)),
                              "")
                        << "advance at step " << k;
                    ASSERT_TRUE(sameBits(got.instructionsDone(),
                                         want.instructionsDone()))
                        << "instructionsDone at step " << k;
                    ASSERT_EQ(got.finished(), want.finished())
                        << "step " << k;
                    if (want.finished())
                        after_end--;
                    steps++;
                }
                // A whole-profile step finishes in its first call.
                if (s.wholeProfile) {
                    EXPECT_EQ(k, 3u);
                }
            }
        }
    }
    EXPECT_GT(steps, 1000u);
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
    Suite, ReplayKernelTest, ::testing::ValuesIn(suiteNames()),
    [](const ::testing::TestParamInfo<std::string> &i) {
        return i.param;
    });

} // namespace
} // namespace gpm
