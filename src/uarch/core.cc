#include "core.hh"

namespace gpm
{

namespace
{

std::uint64_t
ns2ps(double ns)
{
    return static_cast<std::uint64_t>(ns * 1e3 + 0.5);
}

double
ps2ns(std::uint64_t ps)
{
    return static_cast<double>(ps) * 1e-3;
}

std::uint64_t
periodOf(Hertz f)
{
    GPM_ASSERT(f > 0.0);
    return static_cast<std::uint64_t>(psPerSecond / f + 0.5);
}

} // namespace

OpResolver::OpResolver(const CoreConfig &cfg, MemorySystem &mem_)
    : mem(mem_), bpred(cfg.bpredEntries)
{
}

std::uint64_t
OpResolver::fetch(const MicroOp &op, double time_ns)
{
    act.fetched++;
    act.dispatched++;
    act.issued++;
    act.committed++;
    switch (op.cls) {
      case OpClass::IntAlu:
      case OpClass::IntMul:
        act.fxuOps++;
        break;
      case OpClass::FpAlu:
      case OpClass::FpMul:
      case OpClass::FpDiv:
        act.fpuOps++;
        break;
      case OpClass::Branch:
        act.branches++;
        break;
      case OpClass::Load:
      case OpClass::Store:
        act.lsuOps++;
        act.l1dAccesses++;
        break;
      default:
        panic("OpResolver: bad op class %d", static_cast<int>(op.cls));
    }

    std::uint64_t block = op.pc / mem.blockBytes();
    if (block == curFetchBlock)
        return 0;
    curFetchBlock = block;
    auto r = mem.instFetch(op.pc, time_ns);
    act.l1iAccesses++;
    if (r.l1Hit)
        return 0;
    act.l2Accesses++;
    if (r.offChip)
        act.l2Misses++;
    return ns2ps(r.beyondL1Ns);
}

DataOutcome
OpResolver::data(const MicroOp &op, double time_ns)
{
    auto r = mem.dataAccess(op.addr, op.cls == OpClass::Store, time_ns);
    if (r.l1Hit)
        return {};
    act.l2Accesses++;
    if (r.offChip)
        act.l2Misses++;
    return {false, ns2ps(r.beyondL1Ns)};
}

bool
OpResolver::mispredicted(const MicroOp &op)
{
    if (bpred.predictAndUpdate(op.pc, op.taken))
        return false;
    // Wrong-path fetch activity (power only).
    act.fetched += 6;
    return true;
}

CoreTiming::CoreTiming(const CoreConfig &cfg_, Hertz freq_)
    : cfg(cfg_), freq(freq_), period(periodOf(freq_)),
      fetchRing(cfg_.fetchWidth), dispRing(cfg_.dispatchWidth),
      commitWidthRing(cfg_.dispatchWidth), windowRing(cfg_.windowSize),
      rsRings{TimeRing(cfg_.rsMem), TimeRing(cfg_.rsFix),
              TimeRing(cfg_.rsFp)},
      regRings{TimeRing(cfg_.physGpr - cfg_.archGpr),
               TimeRing(cfg_.physFpr - cfg_.archFpr)},
      mshrRing(cfg_.mshrs)
{
    GPM_ASSERT(cfg.windowSize == completeHist.size());
    fuFree[FuLsu].assign(cfg.numLsu, 0);
    fuFree[FuFxu].assign(cfg.numFxu, 0);
    fuFree[FuFpu].assign(cfg.numFpu, 0);
    fuFree[FuBru].assign(cfg.numBru, 0);
}

void
CoreTiming::setFrequency(Hertz f)
{
    period = periodOf(f);
    freq = f;
}

void
CoreTiming::stallUntilPs(std::uint64_t t_ps)
{
    if (t_ps <= lastCommit)
        return;
    redirectPs = std::max(redirectPs, t_ps);
    lastCommit = t_ps;
    lastDispatch = std::max(lastDispatch, t_ps);
}

OooCore::OooCore(const CoreConfig &cfg, MemorySystem &mem,
                 OpSource &src_, Hertz freq)
    : src(src_), ops(cfg, mem), timing(cfg, freq)
{
}

bool
OooCore::step()
{
    MicroOp op;
    if (!src.next(op)) {
        exhausted = true;
        return false;
    }
    // Accesses go out at the times the timing reaches them: a shared
    // L2 arbitrates by request time.
    struct Live
    {
        OpResolver &ops;
        const MicroOp &op;
        std::uint64_t
        fetch(std::uint64_t t)
        {
            return ops.fetch(op, ps2ns(t));
        }
        DataOutcome
        data(std::uint64_t t)
        {
            return ops.data(op, ps2ns(t));
        }
        bool mispredicted() { return ops.mispredicted(op); }
    };
    timing.step(op, Live{ops, op});
    totalInsts++;
    return true;
}

CoreRunResult
OooCore::finish(std::uint64_t n, std::uint64_t start_ps)
{
    CoreRunResult res;
    res.instructions = n;
    res.elapsedPs = timing.nowPs() - start_ps;
    ops.act.cycles = res.elapsedPs / timing.periodPs();
    res.activity = ops.act;
    res.streamEnded = exhausted;
    return res;
}

CoreRunResult
OooCore::run(std::uint64_t max_insts)
{
    ops.act.reset();
    const std::uint64_t start = timing.nowPs();
    std::uint64_t n = 0;
    while (n < max_insts && step())
        n++;
    return finish(n, start);
}

CoreRunResult
OooCore::runUntilPs(std::uint64_t t_ps)
{
    ops.act.reset();
    const std::uint64_t start = timing.nowPs();
    std::uint64_t n = 0;
    while (timing.nowPs() < t_ps && step())
        n++;
    return finish(n, start);
}

} // namespace gpm
