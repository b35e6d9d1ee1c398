#include "loadgen.hh"

#include <algorithm>
#include <arpa/inet.h>
#include <cerrno>
#include <cstring>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <thread>
#include <unistd.h>
#include <unordered_map>

#include "service/json.hh"
#include "spans.hh"

namespace gpmbench
{

namespace
{

constexpr std::int64_t kSecNs = 1'000'000'000;
/** How long a phase waits for its last responses. */
constexpr std::int64_t kDrainNs = 3 * kSecNs;

int
connectLoopback(std::uint16_t port)
{
    int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd < 0)
        return -1;
    sockaddr_in a{};
    a.sin_family = AF_INET;
    a.sin_port = htons(port);
    a.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(fd, reinterpret_cast<sockaddr *>(&a), sizeof(a)) !=
        0) {
        ::close(fd);
        return -1;
    }
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    return fd;
}

bool
sendAll(int fd, const std::string &s)
{
    std::size_t off = 0;
    while (off < s.size()) {
        ssize_t n = ::send(fd, s.data() + off, s.size() - off,
                           MSG_NOSIGNAL);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            return false;
        }
        off += static_cast<std::size_t>(n);
    }
    return true;
}

/** Read what is available; false on EOF or error. */
bool
readSome(int fd, std::string &buf, bool block)
{
    char chunk[65536];
    for (;;) {
        ssize_t n = ::recv(fd, chunk, sizeof(chunk),
                           block ? 0 : MSG_DONTWAIT);
        if (n > 0) {
            buf.append(chunk, static_cast<std::size_t>(n));
            if (static_cast<std::size_t>(n) < sizeof(chunk))
                return true;
            block = false;
            continue;
        }
        if (n == 0)
            return false;
        if (errno == EINTR)
            continue;
        return errno == EAGAIN || errno == EWOULDBLOCK;
    }
}

struct Pending
{
    std::int64_t schedNs = 0;
    std::vector<std::uint32_t> keys;
    std::vector<char> answered;
    std::size_t left = 0;
};

/**
 * One connection's state for a phase. Open loop feeds it a fixed
 * schedule; closed loop refills up to the depth after each reply.
 */
class ConnWorker
{
  public:
    ConnWorker(int fd, const Expected &e, PhaseResult &out)
        : fd(fd), expected(e), out(out)
    {
    }

    bool send(std::int64_t sched, Draw &&d)
    {
        std::uint64_t id = nextId++;
        std::string line = "{\"id\":" + std::to_string(id) + "," +
                           d.body + "}\n";
        std::int64_t t = nowNs();
        out.lagNs.push_back(t - sched);
        out.attempted += d.keys.size();
        Pending p;
        p.schedNs = sched;
        p.left = d.keys.size();
        p.answered.assign(d.keys.size(), 0);
        p.keys = std::move(d.keys);
        pending.emplace(id, std::move(p));
        if (!alive)
            return false;
        if (!sendAll(fd, line)) {
            alive = false;
            return false;
        }
        return true;
    }

    /** Consume complete lines; returns scenarios finished. */
    std::size_t consume(std::int64_t now)
    {
        std::size_t finished = 0;
        std::size_t start = 0;
        for (;;) {
            std::size_t nl = buf.find('\n', start);
            if (nl == std::string::npos)
                break;
            line.assign(buf, start, nl - start);
            start = nl + 1;
            finished += handle(now);
        }
        buf.erase(0, start);
        return finished;
    }

    /** Everything still unanswered fails with @p code. */
    void abandon(const char *code)
    {
        for (auto &[id, p] : pending) {
            out.failed += p.left;
            out.failures[code] += p.left;
        }
        pending.clear();
    }

    /** Requests (not scenarios) still waiting for a reply. */
    std::size_t inFlight() const { return pending.size(); }

    int fd;
    bool alive = true;
    std::string buf;

  private:
    std::size_t handle(std::int64_t now)
    {
        Reply r;
        if (!parseReply(line, r)) {
            out.failures["unparsable"]++;
            return 0;
        }
        auto it = pending.find(r.id);
        if (it == pending.end()) {
            out.failures["unmatched"]++;
            return 0;
        }
        Pending &p = it->second;
        std::size_t done = 0;
        if (!r.hasIndex && p.keys.size() > 1) {
            // A batch-level error line answers every scenario.
            done = p.left;
            out.failed += p.left;
            out.failures[r.ok ? "unindexed" : r.code] += p.left;
            pending.erase(it);
            return done;
        }
        std::size_t ix = r.hasIndex ? r.index : 0;
        if (ix >= p.keys.size() || p.answered[ix]) {
            out.failures["unmatched"]++;
            return 0;
        }
        p.answered[ix] = 1;
        p.left--;
        done = 1;
        std::uint32_t key = p.keys[ix];
        if (!r.ok) {
            out.failed++;
            out.failures[r.code]++;
        } else if (key < expected.size() &&
                   r.payload != expected[key]) {
            out.failed++;
            out.failures["mismatch"]++;
        } else {
            if (key >= expected.size())
                out.coldPayloads.emplace_back(key,
                                              std::move(r.payload));
            if (r.degraded)
                out.degraded++;
            out.samples.push_back(Sample{p.schedNs, now, r.cached});
            Tracer::record("gen.request", p.schedNs, now, 0, r.id);
        }
        if (p.left == 0)
            pending.erase(it);
        return done;
    }

    const Expected &expected;
    PhaseResult &out;
    std::uint64_t nextId = 1;
    std::string line;
    std::unordered_map<std::uint64_t, Pending> pending;
};

/** Wait up to @p untilNs for input; read it. False on EOF/error. */
bool
waitAndRead(ConnWorker &w, std::int64_t untilNs)
{
    std::int64_t wait = std::max<std::int64_t>(0, untilNs - nowNs());
    timespec ts{static_cast<time_t>(wait / kSecNs),
                static_cast<long>(wait % kSecNs)};
    pollfd p{w.fd, POLLIN, 0};
    int n = ::ppoll(&p, 1, &ts, nullptr);
    if (n > 0)
        return readSome(w.fd, w.buf, false);
    return n >= 0 || errno == EINTR;
}

void
openLoopConn(std::uint16_t port, std::vector<std::int64_t> sched,
             std::vector<Draw> draws, std::int64_t endNs,
             const Expected &expected, PhaseResult &out)
{
    int fd = connectLoopback(port);
    ConnWorker w(fd, expected, out);
    if (fd < 0) {
        for (auto &d : draws) {
            out.attempted += d.keys.size();
            out.failed += d.keys.size();
            out.failures["transport"] += d.keys.size();
        }
        return;
    }
    std::size_t next = 0;
    const std::int64_t giveUp = endNs + kDrainNs;
    for (;;) {
        std::int64_t now = nowNs();
        while (next < sched.size() && sched[next] <= now) {
            w.send(sched[next], std::move(draws[next]));
            next++;
        }
        if (!w.alive)
            break;
        if (next == sched.size() && w.inFlight() == 0)
            break;
        if (now >= giveUp)
            break;
        std::int64_t until =
            next < sched.size() ? sched[next] : giveUp;
        if (!waitAndRead(w, until)) {
            w.alive = false;
            break;
        }
        w.consume(nowNs());
    }
    // Scenarios never sent because the connection died count too.
    for (; next < sched.size(); next++) {
        out.attempted += draws[next].keys.size();
        out.failed += draws[next].keys.size();
        out.failures["transport"] += draws[next].keys.size();
    }
    w.abandon(w.alive ? "timeout" : "transport");
    ::close(fd);
}

void
closedLoopConn(std::uint16_t port, int depth, std::int64_t endNs,
               std::uint64_t seed, const DrawFn &draw,
               const Expected &expected, PhaseResult &out)
{
    int fd = connectLoopback(port);
    ConnWorker w(fd, expected, out);
    if (fd < 0) {
        out.attempted++;
        out.failed++;
        out.failures["transport"]++;
        return;
    }
    std::mt19937_64 rng(seed);
    const std::int64_t giveUp = endNs + kDrainNs;
    for (;;) {
        std::int64_t now = nowNs();
        while (now < endNs &&
               w.inFlight() < static_cast<std::size_t>(depth) &&
               w.alive)
            w.send(now, draw(rng));
        if (!w.alive || w.inFlight() == 0 || now >= giveUp)
            break;
        if (!waitAndRead(w, std::min(giveUp, now + kSecNs / 100))) {
            w.alive = false;
            break;
        }
        w.consume(nowNs());
    }
    w.abandon(w.alive ? "timeout" : "transport");
    ::close(fd);
}

} // namespace

void
PhaseResult::merge(PhaseResult &&o)
{
    samples.insert(samples.end(), o.samples.begin(), o.samples.end());
    lagNs.insert(lagNs.end(), o.lagNs.begin(), o.lagNs.end());
    attempted += o.attempted;
    failed += o.failed;
    degraded += o.degraded;
    for (auto &[k, n] : o.failures)
        failures[k] += n;
    for (auto &c : o.coldPayloads)
        coldPayloads.push_back(std::move(c));
}

bool
parseReply(const std::string &line, Reply &out)
{
    // The daemons splice the payload in verbatim as the last field:
    // {ENVELOPE,"result":PAYLOAD}. The envelope goes through
    // json::parse; the payload is kept as raw bytes, so the check
    // against serializeResults() is a byte comparison.
    static const std::string kResult = ",\"result\":";
    std::string envelope = line;
    const std::size_t r = line.find(kResult);
    if (r != std::string::npos) {
        if (line.back() != '}')
            return false;
        envelope = line.substr(0, r) + "}";
        const std::size_t body = r + kResult.size();
        out.payload.assign(line, body, line.size() - 1 - body);
    }
    auto v = gpm::json::parse(envelope);
    if (!v.ok() || !v.value().isObject())
        return false;
    const auto &o = v.value();
    const auto *id = o.find("id");
    const auto *ok = o.find("ok");
    if (!id || !id->isNumber() || !ok || !ok->isBool())
        return false;
    out.id = static_cast<std::uint64_t>(id->asNumber());
    out.ok = ok->asBool();
    if (const auto *ix = o.find("index"); ix && ix->isNumber()) {
        out.hasIndex = true;
        out.index = static_cast<std::size_t>(ix->asNumber());
    }
    if (!out.ok) {
        const auto *err = o.find("error");
        const auto *code = err ? err->find("code") : nullptr;
        out.code = code && code->isString() ? code->asString()
                                            : "unknown";
        return true;
    }
    const auto *cached = o.find("cached");
    out.cached = cached && cached->isBool() && cached->asBool();
    out.degraded = o.find("degraded") != nullptr;
    return true;
}

PhaseResult
runOpenLoop(std::uint16_t port, int conns, double rate, double seconds,
            std::uint64_t seed, const DrawFn &draw,
            const Expected &expected)
{
    // The whole schedule and every request are fixed before the
    // phase starts: Poisson arrivals at @p rate, dealt round-robin.
    std::mt19937_64 rng(seed);
    std::exponential_distribution<double> gap(rate);
    std::vector<std::vector<std::int64_t>> sched(conns);
    std::vector<std::vector<Draw>> draws(conns);
    double t = 0.0;
    for (std::size_t i = 0;; i++) {
        t += gap(rng);
        if (t >= seconds)
            break;
        sched[i % conns].push_back(static_cast<std::int64_t>(t * 1e9));
        draws[i % conns].push_back(draw(rng));
    }
    const std::int64_t t0 = nowNs() + 20'000'000; // connect first
    for (auto &s : sched)
        for (auto &x : s)
            x += t0;
    std::vector<PhaseResult> parts(conns);
    std::vector<std::thread> threads;
    const std::int64_t endNs =
        t0 + static_cast<std::int64_t>(seconds * 1e9);
    for (int c = 0; c < conns; c++)
        threads.emplace_back(openLoopConn, port, std::move(sched[c]),
                             std::move(draws[c]), endNs,
                             std::cref(expected), std::ref(parts[c]));
    for (auto &th : threads)
        th.join();
    PhaseResult all;
    for (auto &p : parts)
        all.merge(std::move(p));
    all.startNs = t0;
    all.endNs = endNs;
    return all;
}

PhaseResult
runClosedLoop(std::uint16_t port, int conns, int depth, double seconds,
              std::uint64_t seed, const DrawFn &draw,
              const Expected &expected)
{
    std::vector<PhaseResult> parts(conns);
    std::vector<std::thread> threads;
    const std::int64_t t0 = nowNs();
    const std::int64_t endNs =
        t0 + static_cast<std::int64_t>(seconds * 1e9);
    for (int c = 0; c < conns; c++)
        threads.emplace_back(closedLoopConn, port, depth, endNs,
                             seed * 1000003u + c, std::cref(draw),
                             std::cref(expected), std::ref(parts[c]));
    for (auto &th : threads)
        th.join();
    PhaseResult all;
    for (auto &p : parts)
        all.merge(std::move(p));
    all.startNs = t0;
    all.endNs = endNs;
    return all;
}

LineClient::LineClient(std::uint16_t port) : fd(connectLoopback(port))
{
}

LineClient::~LineClient()
{
    if (fd >= 0)
        ::close(fd);
}

std::string
LineClient::call(const std::string &line)
{
    if (fd < 0 || !sendAll(fd, line + "\n"))
        return "";
    return readLine();
}

std::string
LineClient::readLine()
{
    for (;;) {
        std::size_t nl = buf.find('\n');
        if (nl != std::string::npos) {
            std::string out = buf.substr(0, nl);
            buf.erase(0, nl + 1);
            return out;
        }
        if (!readSome(fd, buf, true))
            return "";
    }
}

std::size_t
LineClient::pipeline(const std::vector<std::string> &lines,
                     std::size_t window)
{
    std::size_t sent = 0, answered = 0, ok = 0;
    while (answered < lines.size() && fd >= 0) {
        while (sent < lines.size() && sent - answered < window)
            if (!sendAll(fd, lines[sent++] + "\n"))
                return ok;
        std::string resp = readLine();
        if (resp.empty())
            return ok;
        answered++;
        Reply r;
        ok += parseReply(resp, r) && r.ok;
    }
    return ok;
}

} // namespace gpmbench
