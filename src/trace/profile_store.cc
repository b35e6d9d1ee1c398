#include "trace/profile_store.hh"

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <sys/stat.h>
#include <unistd.h>

#include "util/binio.hh"
#include "util/fault.hh"
#include "util/logging.hh"

namespace gpm
{

namespace
{

/** Entry payload layout (wrapped in the binio frame): name length
 *  (LE u32) + name bytes, mode count (LE u32), then per mode
 *  chunkInsts (LE u64), lastChunkInsts (LE u64), chunk count
 *  (LE u32) and the raw ChunkRecord array. ModeProfile's in-memory
 *  columns are interleaved into records on save and split on load.
 *  The magic doubles as the format version — bump the trailing digit
 *  on layout changes. */
constexpr char kMagic[8] = {'G', 'P', 'M', 'P',
                            'R', 'O', 'F', '1'};
static_assert(sizeof(ChunkRecord) == 24,
              "ChunkRecord is the on-disk record: no padding");

std::string
serializeProfile(const WorkloadProfile &p)
{
    std::size_t bytes = 8 + p.name.size();
    for (const ModeProfile &mp : p.modes)
        bytes += 20 + mp.numChunks() * sizeof(ChunkRecord);
    std::string out;
    out.reserve(bytes);
    binio::putLe(out, p.name.size(), 4);
    out += p.name;
    binio::putLe(out, p.modes.size(), 4);
    for (const ModeProfile &mp : p.modes) {
        binio::putLe(out, mp.chunkInsts, 8);
        binio::putLe(out, mp.lastChunkInsts, 8);
        binio::putLe(out, mp.numChunks(), 4);
        for (std::size_t i = 0; i < mp.numChunks(); i++) {
            const ChunkRecord c = mp.chunk(i);
            out.append(reinterpret_cast<const char *>(&c), sizeof c);
        }
    }
    return out;
}

bool
parseProfile(const std::string &in, WorkloadProfile &out)
{
    std::size_t off = 0;
    auto need = [&](std::size_t n) { return in.size() - off >= n; };
    auto ru32 = [&](std::uint32_t &v) {
        if (!need(4))
            return false;
        v = static_cast<std::uint32_t>(
            binio::getLe(in.data() + off, 4));
        off += 4;
        return true;
    };
    auto ru64 = [&](std::uint64_t &v) {
        if (!need(8))
            return false;
        v = binio::getLe(in.data() + off, 8);
        off += 8;
        return true;
    };

    WorkloadProfile p;
    std::uint32_t name_len = 0;
    if (!ru32(name_len) || name_len > 256 || !need(name_len))
        return false;
    p.name.assign(in, off, name_len);
    off += name_len;
    std::uint32_t n_modes = 0;
    if (!ru32(n_modes) || n_modes > 64)
        return false;
    for (std::uint32_t m = 0; m < n_modes; m++) {
        ModeProfile mp;
        std::uint32_t n_chunks = 0;
        if (!ru64(mp.chunkInsts) || !ru64(mp.lastChunkInsts) ||
            !ru32(n_chunks) || n_chunks > 100'000'000 ||
            !need(static_cast<std::size_t>(n_chunks) *
                  sizeof(ChunkRecord)))
            return false;
        mp.reserve(n_chunks);
        for (std::uint32_t i = 0; i < n_chunks; i++) {
            ChunkRecord c;
            std::memcpy(&c, in.data() + off, sizeof c);
            off += sizeof c;
            if (c.timePs >= ModeProfile::maxTimePs)
                return false;
            mp.append(c);
        }
        p.modes.push_back(std::move(mp));
    }
    if (off != in.size()) // trailing garbage
        return false;
    out = std::move(p);
    return true;
}

} // namespace

ProfileStore::ProfileStore(std::string dir_,
                           BreakerOptions breakerOpts)
    : dir(std::move(dir_)), breaker(breakerOpts)
{
    if (::mkdir(dir.c_str(), 0755) != 0 && errno != EEXIST)
        warn("profile store: cannot create %s: %s", dir.c_str(),
             std::strerror(errno));
}

std::string
ProfileStore::fileNameFor(const std::string &name, std::uint64_t fp)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), ".%016llx.gpmp",
                  static_cast<unsigned long long>(fp));
    return name + buf;
}

std::string
ProfileStore::pathFor(const std::string &name,
                      std::uint64_t fp) const
{
    return dir + "/" + fileNameFor(name, fp);
}

void
ProfileStore::quarantine(const std::string &path)
{
    {
        std::lock_guard<std::mutex> lock(mtx);
        counters.quarantined++;
    }
    std::string aside = path + ".corrupt";
    if (::rename(path.c_str(), aside.c_str()) != 0) {
        warn("profile store: cannot quarantine %s: %s",
             path.c_str(), std::strerror(errno));
        ::unlink(path.c_str());
    } else {
        warn("profile store: quarantined corrupt entry %s",
             aside.c_str());
    }
}

bool
ProfileStore::load(const std::string &name, std::uint64_t fp,
                   WorkloadProfile &out)
{
    // Breaker open: skip the sick disk entirely — the caller
    // rebuilds the profile from the trace model instead.
    if (!breaker.allow()) {
        std::lock_guard<std::mutex> lock(mtx);
        counters.breakerRefusals++;
        counters.misses++;
        return false;
    }
    // A stalled read is the failure mode breakers exist for: pay
    // the injected delay once, count it against the window.
    if (fault::armed() &&
        fault::maybeDelay(fault::Point::ProfileReadStall)) {
        breaker.recordFailure();
        std::lock_guard<std::mutex> lock(mtx);
        counters.misses++;
        return false;
    }
    std::string path = pathFor(name, fp);
    std::string raw;
    if (!binio::readWholeFile(path, raw)) {
        // A plain absence is a healthy answer, not an I/O fault.
        breaker.recordSuccess();
        std::lock_guard<std::mutex> lock(mtx);
        counters.misses++;
        return false;
    }

    std::string payload;
    bool corrupt = !binio::unframe(kMagic, raw, payload);
    if (!corrupt && fault::armed() &&
        fault::fire(fault::Point::ProfileReadCorrupt))
        corrupt = true;
    WorkloadProfile p;
    // The name is content-addressed into the path, but the payload
    // carries it too: a mismatch means a renamed/clobbered file and
    // counts as corruption.
    if (!corrupt)
        corrupt = !parseProfile(payload, p) || p.name != name;
    if (corrupt) {
        breaker.recordFailure();
        quarantine(path);
        std::lock_guard<std::mutex> lock(mtx);
        counters.misses++;
        return false;
    }

    breaker.recordSuccess();
    out = std::move(p);
    std::lock_guard<std::mutex> lock(mtx);
    counters.hits++;
    return true;
}

bool
ProfileStore::save(const std::string &name, std::uint64_t fp,
                   const WorkloadProfile &p)
{
    // Writing to a disk the breaker holds open would stall the
    // builder the same way reads did; the profile simply stays
    // memory-resident (rebuilt next cold start, like any failed
    // save). Half-open is fine: the probe is a read.
    if (breaker.state() == CircuitBreaker::State::Open) {
        std::lock_guard<std::mutex> lock(mtx);
        counters.breakerRefusals++;
        return false;
    }
    if (fault::armed() &&
        fault::fire(fault::Point::ProfileWriteFail)) {
        std::lock_guard<std::mutex> lock(mtx);
        counters.writeFailures++;
        return false;
    }
    std::string blob = binio::frame(kMagic, serializeProfile(p));
    if (!binio::writeFileAtomic(pathFor(name, fp), blob)) {
        warn("profile store: cannot commit %s: %s",
             fileNameFor(name, fp).c_str(), std::strerror(errno));
        std::lock_guard<std::mutex> lock(mtx);
        counters.writeFailures++;
        return false;
    }
    return true;
}

ProfileStoreStats
ProfileStore::stats() const
{
    std::lock_guard<std::mutex> lock(mtx);
    ProfileStoreStats s = counters;
    s.breakerOpens = breaker.opens();
    s.breakerState = breaker.stateName();
    return s;
}

} // namespace gpm
