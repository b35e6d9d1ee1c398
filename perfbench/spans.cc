#include "spans.hh"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <memory>
#include <mutex>
#include <unordered_map>

namespace gpmbench
{

namespace
{

std::atomic<bool> gEnabled{false};
std::atomic<std::uint64_t> gNextId{1};

/** Buffers outlive the threads that filled them: the registry owns
 *  them, each thread only appends to its own. */
std::mutex gRegistryMtx;
std::vector<std::shared_ptr<std::vector<Span>>> gRegistry;

std::vector<Span> &
localBuffer()
{
    thread_local std::shared_ptr<std::vector<Span>> buf = [] {
        auto b = std::make_shared<std::vector<Span>>();
        b->reserve(1 << 14);
        std::lock_guard<std::mutex> g(gRegistryMtx);
        gRegistry.push_back(b);
        return b;
    }();
    return *buf;
}

const Clock::time_point gEpoch = Clock::now();

} // namespace

std::int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now() - gEpoch)
        .count();
}

void
Tracer::enable(bool on)
{
    gEnabled.store(on, std::memory_order_relaxed);
}

bool
Tracer::enabled()
{
    return gEnabled.load(std::memory_order_relaxed);
}

std::uint64_t
Tracer::reserveId()
{
    return enabled() ? gNextId.fetch_add(1, std::memory_order_relaxed)
                     : 0;
}

void
Tracer::recordAs(std::uint64_t id, const char *name,
                 std::int64_t start, std::int64_t end,
                 std::uint64_t parent, std::uint64_t request)
{
    if (!enabled() || id == 0)
        return;
    localBuffer().push_back(
        Span{name, id, parent, request, start, end});
}

std::uint64_t
Tracer::record(const char *name, std::int64_t start, std::int64_t end,
               std::uint64_t parent, std::uint64_t request)
{
    std::uint64_t id = reserveId();
    recordAs(id, name, start, end, parent, request);
    return id;
}

std::vector<Span>
Tracer::collect()
{
    std::lock_guard<std::mutex> g(gRegistryMtx);
    std::vector<Span> all;
    for (const auto &b : gRegistry)
        all.insert(all.end(), b->begin(), b->end());
    std::sort(all.begin(), all.end(),
              [](const Span &a, const Span &b) { return a.id < b.id; });
    return all;
}

bool
Tracer::write(const std::string &path)
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    for (const Span &s : collect())
        std::fprintf(f,
                     "{\"name\":\"%s\",\"id\":%llu,\"parent\":%llu,"
                     "\"request\":%llu,\"start_ns\":%lld,"
                     "\"end_ns\":%lld}\n",
                     s.name, static_cast<unsigned long long>(s.id),
                     static_cast<unsigned long long>(s.parent),
                     static_cast<unsigned long long>(s.request),
                     static_cast<long long>(s.startNs),
                     static_cast<long long>(s.endNs));
    return std::fclose(f) == 0;
}

std::map<std::string, double>
Tracer::selfTimeMs(const std::vector<Span> &spans)
{
    // Children per parent, as intervals; the covered part of a
    // parent is the union of its children's intervals.
    std::unordered_map<std::uint64_t,
                       std::vector<std::pair<std::int64_t,
                                             std::int64_t>>>
        kids;
    for (const Span &s : spans)
        if (s.parent != 0)
            kids[s.parent].emplace_back(s.startNs, s.endNs);

    std::map<std::string, double> self;
    for (const Span &s : spans) {
        std::int64_t covered = 0;
        if (auto it = kids.find(s.id); it != kids.end()) {
            auto iv = it->second;
            std::sort(iv.begin(), iv.end());
            std::int64_t lo = 0, hi = -1;
            for (auto [a, b] : iv) {
                a = std::max(a, s.startNs);
                b = std::min(b, s.endNs);
                if (b <= a)
                    continue;
                if (a > hi) {
                    if (hi > lo)
                        covered += hi - lo;
                    lo = a;
                    hi = b;
                } else {
                    hi = std::max(hi, b);
                }
            }
            if (hi > lo)
                covered += hi - lo;
        }
        std::string name = s.name;
        std::string layer = name.substr(0, name.find('.'));
        self[layer] +=
            static_cast<double>(s.endNs - s.startNs - covered) / 1e6;
    }
    return self;
}

ScopedSpan::ScopedSpan(const char *name, std::uint64_t parent,
                       std::uint64_t request)
    : name_(name), id_(Tracer::reserveId()), parent_(parent),
      request_(request), start_(id_ ? nowNs() : 0)
{
}

ScopedSpan::~ScopedSpan()
{
    if (id_)
        Tracer::recordAs(id_, name_, start_, nowNs(), parent_,
                         request_);
}

} // namespace gpmbench
