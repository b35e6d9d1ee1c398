#include "router/router.hh"

#include <cctype>
#include <cerrno>
#include <sys/socket.h>
#include <unordered_map>

#include "service/prom.hh"
#include "util/logging.hh"

namespace gpm
{

using json::Value;

// ---------------------------------------------------------------
// Internal structures
// ---------------------------------------------------------------

/** One forward unit: a single submit, or one shard of a client
 *  batch, in flight against one backend. Owned by the backend's
 *  inflight map; whoever removes it from the map owns answering
 *  (or re-dispatching) its items — responses are exactly-once. */
struct GpmRouter::Pending
{
    std::shared_ptr<ReactorConn> conn;
    /** The client's id, as JSON text, spliced into responses. */
    std::string idDump;
    /** Client request was submit_batch: forwarded as a sub-batch,
     *  responses carry remapped indices. */
    bool batch = false;
    std::vector<RouterItem> items;
    /** Items not yet answered. */
    std::size_t remaining = 0;
    /** Which pooled connection carried it (for orphan sweeps). */
    std::size_t channel = 0;
    std::uint64_t gen = 0;
    /** Dispatch attempts so far (re-route cap). */
    int attempts = 0;
};

/** One pooled connection to a backend. The stream is written
 *  under mtx (serializing request lines); a dedicated reader
 *  thread owns the receive side and the close. */
struct GpmRouter::Channel
{
    std::mutex mtx;
    std::condition_variable cv;
    TcpStream stream;
    /** Bumped per (re)connect so a sweep only claims pendings
     *  written to the connection that actually died. */
    std::uint64_t gen = 0;
    /** Request lines registered on this generation but not yet
     *  written: a reactor pass's lines, sent at its end. */
    std::string out;
    std::thread reader;
};

struct GpmRouter::Backend
{
    std::string host;
    std::uint16_t port;
    std::string name;
    CircuitBreaker breaker;
    std::vector<std::unique_ptr<Channel>> channels;
    std::atomic<std::uint64_t> rr{0};

    std::mutex mtx;
    std::unordered_map<std::uint64_t, std::shared_ptr<Pending>>
        inflight;

    std::atomic<std::uint64_t> routed{0};
    std::atomic<std::uint64_t> rehashes{0};
    std::atomic<std::uint64_t> inflightCount{0};

    Backend(const RouterEndpoint &ep, const BreakerOptions &bo,
            std::size_t conns)
        : host(ep.host), port(ep.port), name(ep.name()),
          breaker(bo)
    {
        for (std::size_t i = 0; i < conns; i++)
            channels.push_back(std::make_unique<Channel>());
    }
};

namespace
{

/** Cap on one backend response line. The client-side
 *  --max-line-bytes limits requests; a gpmd result (a batch or a
 *  many-core sweep) is routinely longer than a request and comes
 *  from a trusted peer, so it gets this fixed, generous bound. */
constexpr std::size_t kMaxBackendLineBytes = std::size_t{64} << 20;

/** One scenario's error line: the client id spliced in as JSON
 *  text, plus "index" and "hash" when it answers a batch entry. */
std::string
itemErrorLine(const std::string &idDump, bool batch,
              const RouterItem &it, const std::string &errDump)
{
    std::string out = "{\"id\":" + idDump + ",\"ok\":false";
    if (batch)
        out += ",\"index\":" + std::to_string(it.origIndex) +
               ",\"hash\":\"" + hashHex(it.hash) + "\"";
    return out + ",\"error\":" + errDump + "}";
}

} // namespace

// ---------------------------------------------------------------
// Lifecycle
// ---------------------------------------------------------------

namespace
{
std::vector<std::string>
endpointNames(const std::vector<RouterEndpoint> &eps)
{
    std::vector<std::string> names;
    names.reserve(eps.size());
    for (const auto &ep : eps)
        names.push_back(ep.name());
    return names;
}
} // namespace

GpmRouter::GpmRouter(std::vector<RouterEndpoint> endpoints,
                     TcpListener listener_, RouterOptions opts_,
                     ReactorOptions transport_)
    : NdjsonFrontend(std::move(listener_), transport_),
      ring(endpointNames(endpoints)), opts(opts_),
      startTime(std::chrono::steady_clock::now())
{
    if (endpoints.empty())
        fatal("gpm-router: no backends configured");
    if (opts.backendConns == 0)
        opts.backendConns = 1;
    for (const auto &ep : endpoints) {
        // Distinct breaker jitter per backend so a fleet-wide
        // outage does not re-probe in lockstep.
        BreakerOptions bo = opts.breaker;
        bo.seed += backends.size() + 1;
        backends.push_back(std::make_unique<Backend>(
            ep, bo, opts.backendConns));
    }

    for (std::size_t b = 0; b < backends.size(); b++)
        for (std::size_t c = 0; c < backends[b]->channels.size();
             c++)
            backends[b]->channels[c]->reader = std::thread(
                [this, b, c] { readerLoop(b, c); });
    prober = std::thread([this] { proberLoop(); });
}

GpmRouter::~GpmRouter() { stopAndDrain(); }

thread_local std::vector<GpmRouter::Channel *>
    GpmRouter::unflushedChannels;

void
GpmRouter::drainWork()
{
    // Let in-flight scenarios complete: backends are still being
    // read, responses still flow to clients. Bounded so a wedged
    // backend cannot stall shutdown forever.
    {
        std::unique_lock<std::mutex> lock(drainMtx);
        drainCv.wait_for(lock, std::chrono::seconds(30), [&] {
            return unanswered.load(std::memory_order_acquire) == 0;
        });
    }
    stopping.store(true, std::memory_order_release);
    {
        std::lock_guard<std::mutex> lock(proberMtx);
        proberCv.notify_all();
    }
    for (auto &b : backends)
        for (auto &ch : b->channels) {
            std::lock_guard<std::mutex> lock(ch->mtx);
            ch->stream.shutdownBoth();
            ch->cv.notify_all();
        }
    if (prober.joinable())
        prober.join();
    for (auto &b : backends)
        for (auto &ch : b->channels)
            if (ch->reader.joinable())
                ch->reader.join();
    for (auto &b : backends)
        for (auto &ch : b->channels) {
            std::lock_guard<std::mutex> lock(ch->mtx);
            ch->stream.close();
        }
}

void
GpmRouter::oneAnswered(std::size_t n)
{
    if (unanswered.fetch_sub(n, std::memory_order_acq_rel) == n) {
        std::lock_guard<std::mutex> lock(drainMtx);
        drainCv.notify_all();
    }
}

// ---------------------------------------------------------------
// Routing
// ---------------------------------------------------------------

std::vector<char>
GpmRouter::eligibleMask() const
{
    std::vector<char> mask(backends.size(), 0);
    bool any = false;
    for (std::size_t i = 0; i < backends.size(); i++) {
        if (backends[i]->breaker.state() ==
            CircuitBreaker::State::Closed) {
            mask[i] = 1;
            any = true;
        }
    }
    if (!any) {
        // Whole fleet non-closed: let traffic through to half-open
        // backends rather than shedding everything (their outcomes
        // close or re-open the breaker either way).
        for (std::size_t i = 0; i < backends.size(); i++)
            if (backends[i]->breaker.state() ==
                CircuitBreaker::State::HalfOpen)
                mask[i] = 1;
    }
    return mask;
}

void
GpmRouter::shedItems(const std::shared_ptr<ReactorConn> &conn,
                     const std::string &idDump, bool batch,
                     const std::vector<RouterItem> &items)
{
    shedNoBackend += items.size();
    std::string errDump =
        errorObject("busy", "no live backend replica",
                    opts.breaker.cooldownMs)
            .dump();
    for (const auto &it : items) {
        sendLine(conn, itemErrorLine(idDump, batch, it, errDump));
        conn->decPending();
        oneAnswered();
    }
}

bool
GpmRouter::sendUnit(std::size_t bIdx,
                    const std::shared_ptr<Pending> &p, bool coalesce)
{
    Backend &b = *backends[bIdx];
    std::uint64_t s = seq.fetch_add(1, std::memory_order_relaxed);
    std::string wire = "{\"id\":\"r" + std::to_string(s) + "\"";
    if (p->batch) {
        wire += ",\"verb\":\"submit_batch\",\"scenarios\":[";
        for (std::size_t i = 0; i < p->items.size(); i++) {
            if (i)
                wire += ',';
            wire += p->items[i].scenario;
        }
        wire += "]}\n";
    } else {
        wire += ",\"verb\":\"submit\",\"scenario\":" +
                p->items[0].scenario + "}\n";
    }

    std::size_t cIdx = b.rr.fetch_add(1, std::memory_order_relaxed) %
                       b.channels.size();
    Channel &ch = *b.channels[cIdx];
    std::lock_guard<std::mutex> wlock(ch.mtx);
    if (!ch.stream.valid()) {
        auto conn = TcpStream::connectTo(
            b.host, b.port, opts.backendConnectTimeoutMs);
        if (!conn.ok()) {
            b.breaker.recordFailure();
            backendFailures++;
            return false;
        }
        ch.stream = std::move(conn.value());
        ch.stream.setWriteTimeoutMs(opts.backendWriteTimeoutMs);
        ch.gen++;
        ch.cv.notify_all();
        b.breaker.recordSuccess();
    }
    p->channel = cIdx;
    p->gen = ch.gen;
    p->remaining = p->items.size();
    {
        // Register before the write: the response may race the
        // send() return. Lock order is always channel -> backend.
        std::lock_guard<std::mutex> block(b.mtx);
        b.inflight[s] = p;
    }
    if (ch.out.empty() && coalesce)
        unflushedChannels.push_back(&ch);
    ch.out += wire;
    if (!coalesce && !flushLocked(ch)) {
        // The reader's orphan sweep claims whatever else was
        // buffered on this generation; we answer for this pending
        // by failing here.
        {
            std::lock_guard<std::mutex> block(b.mtx);
            b.inflight.erase(s);
        }
        b.breaker.recordFailure();
        backendFailures++;
        return false;
    }
    b.routed += p->items.size();
    b.inflightCount += p->items.size();
    return true;
}

bool
GpmRouter::flushLocked(Channel &ch)
{
    if (ch.out.empty())
        return true;
    backendWrites++;
    bool ok = ch.stream.writeAll(ch.out);
    ch.out.clear();
    if (!ok) {
        // Leave the close to the reader (it owns the fd): shutdown
        // wakes it into channelDown, whose orphan sweep re-routes
        // every pending registered on this generation.
        ch.stream.shutdownBoth();
    }
    return ok;
}

void
GpmRouter::onBatchEnd()
{
    for (Channel *ch : unflushedChannels) {
        std::lock_guard<std::mutex> lock(ch->mtx);
        flushLocked(*ch);
    }
    unflushedChannels.clear();
}

void
GpmRouter::dispatchItems(
    const std::shared_ptr<ReactorConn> &conn,
    const std::string &idDump, bool batch,
    std::vector<RouterItem> items, int attempts,
    std::size_t exclude, bool coalesce)
{
    if (attempts > opts.maxReroutes) {
        shedItems(conn, idDump, batch, items);
        return;
    }
    std::vector<char> mask = eligibleMask();
    if (exclude != RendezvousRing::npos) {
        // Skip the backend that just failed us — unless it is the
        // only candidate left (it may have just restarted).
        bool others = false;
        for (std::size_t i = 0; i < mask.size(); i++)
            if (mask[i] && i != exclude)
                others = true;
        if (others)
            mask[exclude] = 0;
    }

    std::vector<std::vector<RouterItem>> groups(backends.size());
    std::vector<RouterItem> unroutable;
    for (auto &it : items) {
        std::size_t owner = ring.owner(it.hash, mask);
        if (owner == RendezvousRing::npos) {
            unroutable.push_back(std::move(it));
            continue;
        }
        if (owner != ring.owner(it.hash))
            backends[owner]->rehashes++;
        groups[owner].push_back(std::move(it));
    }
    if (!unroutable.empty())
        shedItems(conn, idDump, batch, unroutable);

    for (std::size_t bIdx = 0; bIdx < groups.size(); bIdx++) {
        if (groups[bIdx].empty())
            continue;
        auto p = std::make_shared<Pending>();
        p->conn = conn;
        p->idDump = idDump;
        p->batch = batch;
        p->items = std::move(groups[bIdx]);
        p->attempts = attempts;
        if (!sendUnit(bIdx, p, coalesce)) {
            rerouted += p->items.size();
            dispatchItems(conn, idDump, batch,
                          std::move(p->items), attempts + 1,
                          bIdx, coalesce);
        }
    }
}

// ---------------------------------------------------------------
// Backend response path
// ---------------------------------------------------------------

void
GpmRouter::onBackendLine(std::size_t bIdx, std::string_view line)
{
    Backend &b = *backends[bIdx];
    b.breaker.recordSuccess();

    // Fast path: our own gpmd builds response heads id-first, so
    // every line starts {"id":"r<seq>". Splice, never re-parse.
    static constexpr std::string_view kPrefix = "{\"id\":\"r";
    if (line.substr(0, kPrefix.size()) != kPrefix) {
        fallbackBackendLine(bIdx, line);
        return;
    }
    std::size_t pos = kPrefix.size();
    std::uint64_t s = 0;
    std::size_t digitsStart = pos;
    while (pos < line.size() &&
           std::isdigit(static_cast<unsigned char>(line[pos]))) {
        s = s * 10 + static_cast<std::uint64_t>(line[pos] - '0');
        pos++;
    }
    if (pos == digitsStart || pos >= line.size() ||
        line[pos] != '"') {
        fallbackBackendLine(bIdx, line);
        return;
    }
    std::size_t afterId = pos + 1;

    enum class Kind
    {
        Single,
        BatchItem,
        BatchError,
        Unmatched
    };
    Kind kind = Kind::Unmatched;
    std::shared_ptr<Pending> p;
    std::size_t origIndex = 0;
    std::size_t idxDigitsStart = 0, idxDigitsEnd = 0;
    std::size_t undone = 0;

    {
        std::lock_guard<std::mutex> lock(b.mtx);
        auto it = b.inflight.find(s);
        if (it == b.inflight.end())
            return; // already rerouted or answered: drop
        p = it->second;
        if (!p->batch) {
            b.inflight.erase(it);
            kind = Kind::Single;
        } else {
            std::string_view rest = line.substr(afterId);
            std::size_t skip = 0;
            if (rest.rfind(",\"ok\":true,", 0) == 0)
                skip = 11;
            else if (rest.rfind(",\"ok\":false,", 0) == 0)
                skip = 12;
            std::string_view after =
                skip ? rest.substr(skip) : std::string_view{};
            if (skip && after.rfind("\"index\":", 0) == 0) {
                idxDigitsStart = afterId + skip + 8;
                std::size_t q = idxDigitsStart;
                std::size_t sub = 0;
                while (q < line.size() &&
                       std::isdigit(static_cast<unsigned char>(
                           line[q]))) {
                    sub = sub * 10 +
                          static_cast<std::size_t>(line[q] - '0');
                    q++;
                }
                idxDigitsEnd = q;
                if (q > idxDigitsStart &&
                    sub < p->items.size() &&
                    !p->items[sub].done) {
                    p->items[sub].done = true;
                    p->remaining--;
                    origIndex = p->items[sub].origIndex;
                    if (p->remaining == 0)
                        b.inflight.erase(it);
                    kind = Kind::BatchItem;
                }
            } else if (skip &&
                       after.rfind("\"error\":", 0) == 0) {
                undone = p->remaining;
                b.inflight.erase(it);
                kind = Kind::BatchError;
            }
        }
    }

    switch (kind) {
    case Kind::Single: {
        std::string out;
        out.reserve(line.size() + p->idDump.size() + 8);
        out += "{\"id\":";
        out += p->idDump;
        out += line.substr(afterId);
        sendLine(p->conn, std::move(out));
        p->conn->decPending();
        b.inflightCount--;
        oneAnswered();
        return;
    }
    case Kind::BatchItem: {
        std::string out;
        out.reserve(line.size() + p->idDump.size() + 16);
        out += "{\"id\":";
        out += p->idDump;
        out += line.substr(afterId, idxDigitsStart - afterId);
        out += std::to_string(origIndex);
        out += line.substr(idxDigitsEnd);
        sendLine(p->conn, std::move(out));
        p->conn->decPending();
        b.inflightCount--;
        oneAnswered();
        return;
    }
    case Kind::BatchError:
        b.inflightCount -= undone;
        emitShardError(p, line);
        return;
    case Kind::Unmatched:
        fallbackBackendLine(bIdx, line);
        return;
    }
}

/**
 * Defensive slow path: a backend response whose head did not match
 * the expected shape. Full-parse, re-do the bookkeeping with JSON
 * operations. With our own gpmd backends this never runs; counted
 * so drift would show in metrics immediately.
 */
void
GpmRouter::fallbackBackendLine(std::size_t bIdx,
                               std::string_view line)
{
    spliceFallbacks++;
    Backend &b = *backends[bIdx];
    auto parsed = json::parse(line);
    if (!parsed.ok() || !parsed.value().isObject()) {
        warn("gpm-router: unparseable line from %s dropped",
             b.name.c_str());
        return;
    }
    Value &root = parsed.value();
    const Value *rid = root.find("id");
    if (!rid || !rid->isString() || rid->asString().empty() ||
        rid->asString()[0] != 'r') {
        warn("gpm-router: uncorrelated line from %s dropped",
             b.name.c_str());
        return;
    }
    std::uint64_t s = std::strtoull(rid->asString().c_str() + 1,
                                    nullptr, 10);

    std::shared_ptr<Pending> p;
    bool isBatchItem = false, isBatchError = false;
    std::size_t origIndex = 0, undone = 0;
    {
        std::lock_guard<std::mutex> lock(b.mtx);
        auto it = b.inflight.find(s);
        if (it == b.inflight.end())
            return;
        p = it->second;
        if (!p->batch) {
            b.inflight.erase(it);
        } else {
            const Value *idx = root.find("index");
            if (idx && idx->isNumber()) {
                std::size_t sub = static_cast<std::size_t>(
                    idx->asNumber());
                if (sub >= p->items.size() ||
                    p->items[sub].done)
                    return;
                p->items[sub].done = true;
                p->remaining--;
                origIndex = p->items[sub].origIndex;
                if (p->remaining == 0)
                    b.inflight.erase(it);
                isBatchItem = true;
            } else {
                undone = p->remaining;
                b.inflight.erase(it);
                isBatchError = true;
            }
        }
    }
    if (isBatchError) {
        b.inflightCount -= undone;
        emitShardError(p, line);
        return;
    }
    auto origId = json::parse(p->idDump);
    root.set("id", origId.ok() ? origId.value() : Value(nullptr));
    if (isBatchItem)
        root.set("index", origIndex);
    sendLine(p->conn, root.dump());
    p->conn->decPending();
    b.inflightCount--;
    oneAnswered();
}

void
GpmRouter::emitShardError(const std::shared_ptr<Pending> &p,
                          std::string_view errorLine)
{
    // Shard-level rejection (busy / rejected_overload / draining):
    // translate into one per-scenario line per un-answered item,
    // original code, message and retryAfterMs preserved so the
    // backend's admission control composes through the router.
    std::string code = "busy";
    std::string message = "backend rejected the shard";
    double retryAfterMs = 0.0;
    auto parsed = json::parse(errorLine);
    if (parsed.ok() && parsed.value().isObject()) {
        if (const Value *err = parsed.value().find("error")) {
            if (const Value *c = err->find("code");
                c && c->isString())
                code = c->asString();
            if (const Value *m = err->find("message");
                m && m->isString())
                message = m->asString();
            if (const Value *r = err->find("retryAfterMs");
                r && r->isNumber())
                retryAfterMs = r->asNumber();
        }
    }
    std::string errDump =
        errorObject(code, message, retryAfterMs).dump();

    std::size_t n = 0;
    for (const auto &it : p->items) {
        if (it.done)
            continue;
        sendLine(p->conn,
                 itemErrorLine(p->idDump, true, it, errDump));
        p->conn->decPending();
        n++;
    }
    oneAnswered(n);
}

// ---------------------------------------------------------------
// Backend reader threads / failure sweeps / prober
// ---------------------------------------------------------------

void
GpmRouter::readerLoop(std::size_t bIdx, std::size_t cIdx)
{
    Backend &b = *backends[bIdx];
    Channel &ch = *b.channels[cIdx];
    for (;;) {
        int fd;
        std::uint64_t gen;
        {
            std::unique_lock<std::mutex> lock(ch.mtx);
            ch.cv.wait(lock, [&] {
                return stopping.load(std::memory_order_acquire) ||
                       ch.stream.valid();
            });
            if (stopping.load(std::memory_order_acquire))
                return;
            fd = ch.stream.fd();
            gen = ch.gen;
        }
        LineScanner scanner;
        bool alive = true;
        while (alive) {
            char *dst = scanner.writePtr(4096);
            ssize_t n =
                ::recv(fd, dst, scanner.writeCapacity(), 0);
            if (n <= 0) {
                if (n < 0 && errno == EINTR)
                    continue;
                break;
            }
            scanner.commit(static_cast<std::size_t>(n));
            std::string_view line;
            for (;;) {
                auto st = scanner.next(line, kMaxBackendLineBytes);
                if (st == LineScanner::Scan::Line) {
                    onBackendLine(bIdx, line);
                } else if (st == LineScanner::Scan::NeedMore) {
                    break;
                } else {
                    warn("gpm-router: over-long line from %s; "
                         "dropping connection",
                         b.name.c_str());
                    alive = false;
                    break;
                }
            }
        }
        channelDown(bIdx, cIdx, gen);
    }
}

void
GpmRouter::channelDown(std::size_t bIdx, std::size_t cIdx,
                       std::uint64_t gen)
{
    Backend &b = *backends[bIdx];
    Channel &ch = *b.channels[cIdx];
    {
        std::lock_guard<std::mutex> lock(ch.mtx);
        if (ch.gen != gen || !ch.stream.valid())
            return; // already replaced
        ch.stream.close();
        // Unsent lines belong to this generation's pendings, which
        // the sweep below re-routes.
        ch.out.clear();
    }
    b.breaker.recordFailure();
    backendFailures++;

    // Orphan sweep: claim every pending written to the dead
    // connection and re-resolve its un-answered scenarios onto
    // live replicas. Content-addressed results make this safe: a
    // re-routed miss recomputes byte-identically and write-throughs
    // the shared cache dir.
    std::vector<std::shared_ptr<Pending>> orphans;
    {
        std::lock_guard<std::mutex> lock(b.mtx);
        for (auto it = b.inflight.begin();
             it != b.inflight.end();) {
            if (it->second->channel == cIdx &&
                it->second->gen == gen) {
                orphans.push_back(it->second);
                it = b.inflight.erase(it);
            } else {
                ++it;
            }
        }
    }
    for (auto &p : orphans) {
        std::vector<RouterItem> left;
        for (auto &it : p->items)
            if (!it.done)
                left.push_back(std::move(it));
        b.inflightCount -= left.size();
        if (left.empty())
            continue;
        rerouted += left.size();
        if (stopping.load(std::memory_order_acquire)) {
            shedItems(p->conn, p->idDump, p->batch, left);
            continue;
        }
        dispatchItems(p->conn, p->idDump, p->batch,
                      std::move(left), p->attempts + 1, bIdx,
                      /*coalesce=*/false);
    }
}

void
GpmRouter::proberLoop()
{
    for (;;) {
        {
            std::unique_lock<std::mutex> lock(proberMtx);
            proberCv.wait_for(
                lock,
                std::chrono::milliseconds(
                    opts.probeIntervalMs > 0 ? opts.probeIntervalMs
                                             : 50),
                [&] {
                    return stopping.load(
                        std::memory_order_acquire);
                });
        }
        if (stopping.load(std::memory_order_acquire))
            return;
        for (auto &bp : backends) {
            Backend &b = *bp;
            if (b.breaker.state() ==
                CircuitBreaker::State::Closed)
                continue;
            // allow() gates the probe on the breaker's jittered
            // cooldown and admits at most one probe per window.
            if (!b.breaker.allow())
                continue;
            probes++;
            if (probeBackend(b)) {
                b.breaker.recordSuccess();
                inform("gpm-router: backend %s is back",
                       b.name.c_str());
            } else {
                b.breaker.recordFailure();
            }
        }
    }
}

bool
GpmRouter::probeBackend(Backend &b)
{
    auto conn =
        TcpStream::connectTo(b.host, b.port, opts.probeTimeoutMs);
    if (!conn.ok())
        return false;
    TcpStream &s = conn.value();
    s.setReadTimeoutMs(opts.probeTimeoutMs);
    s.setWriteTimeoutMs(opts.probeTimeoutMs);
    std::string resp;
    return s.writeAll("{\"id\":\"probe\",\"verb\":\"ping\"}\n") &&
           s.readLine(resp, 1024) == TcpStream::ReadStatus::Line &&
           resp.find("\"pong\":true") != std::string::npos;
}

// ---------------------------------------------------------------
// Client-facing protocol
// ---------------------------------------------------------------

std::string
GpmRouter::metricsBody()
{
    return renderRouterPrometheus(stats(), pool->stats());
}

void
GpmRouter::submit(const std::shared_ptr<ReactorConn> &conn,
                  const Value &id, const Value &scenario,
                  ScenarioSpec spec)
{
    routedSubmits++;
    routedScenarios++;
    std::vector<RouterItem> items(1);
    items[0].scenario = scenario.dump();
    items[0].hash = spec.hash();
    conn->addPending(1);
    unanswered++;
    dispatchItems(conn, id.dump(), /*batch=*/false,
                  std::move(items), 0, RendezvousRing::npos,
                  /*coalesce=*/true);
}

void
GpmRouter::submitBatch(const std::shared_ptr<ReactorConn> &conn,
                       const Value &id, const Value::Array &scenarios,
                       std::vector<ScenarioSpec> specs)
{
    std::vector<RouterItem> items;
    items.reserve(scenarios.size());
    for (std::size_t i = 0; i < scenarios.size(); i++) {
        RouterItem it;
        it.scenario = scenarios[i].dump();
        it.hash = specs[i].hash();
        it.origIndex = i;
        items.push_back(std::move(it));
    }
    // Batch contract parity with gpmd: when nothing can serve the
    // batch, answer ONE batch-level error line (no "index").
    std::vector<char> mask = eligibleMask();
    bool any = false;
    for (char m : mask)
        any = any || m;
    if (!any) {
        shedNoBackend += items.size();
        sendLine(conn, errorResponse(id, "busy",
                                     "no live backend replica",
                                     opts.breaker.cooldownMs));
        return;
    }
    routedBatches++;
    routedScenarios += items.size();
    conn->addPending(items.size());
    unanswered += items.size();
    dispatchItems(conn, id.dump(), /*batch=*/true, std::move(items),
                  0, RendezvousRing::npos, /*coalesce=*/true);
}

Value
GpmRouter::statsResult()
{
    RouterStats s = stats();
    Value result = Value::object();
    result.set("uptimeSec", s.uptimeSec);
    result.set("requests", s.requests);
    result.set("connections", s.connections);
    result.set("backendsTotal", s.backendsTotal);
    result.set("backendsLive", s.backendsLive);
    result.set("inflight", s.inflight);
    result.set("routedSubmits", s.routedSubmits);
    result.set("routedBatches", s.routedBatches);
    result.set("routedScenarios", s.routedScenarios);
    result.set("rerouted", s.rerouted);
    result.set("shedNoBackend", s.shedNoBackend);
    result.set("spliceFallbacks", s.spliceFallbacks);
    result.set("backendFailures", s.backendFailures);
    result.set("backendWrites", s.backendWrites);
    result.set("probes", s.probes);
    Value arr = Value::array();
    for (const auto &bs : s.backends) {
        Value o = Value::object();
        o.set("name", bs.name);
        o.set("state", bs.breakerState);
        o.set("opens", bs.breakerOpens);
        o.set("routed", bs.routed);
        o.set("rehashes", bs.rehashes);
        o.set("inflight", bs.inflight);
        o.set("live", bs.live);
        arr.push(std::move(o));
    }
    result.set("backends", std::move(arr));
    return result;
}

// ---------------------------------------------------------------
// Stats / metrics
// ---------------------------------------------------------------

RouterStats
GpmRouter::stats() const
{
    RouterStats s;
    s.uptimeSec =
        std::chrono::duration<double>(
            std::chrono::steady_clock::now() - startTime)
            .count();
    s.requests = requests.load(std::memory_order_relaxed);
    s.connections = pool->stats().accepted;
    s.routedSubmits = routedSubmits.load(std::memory_order_relaxed);
    s.routedBatches = routedBatches.load(std::memory_order_relaxed);
    s.routedScenarios =
        routedScenarios.load(std::memory_order_relaxed);
    s.rerouted = rerouted.load(std::memory_order_relaxed);
    s.shedNoBackend =
        shedNoBackend.load(std::memory_order_relaxed);
    s.spliceFallbacks =
        spliceFallbacks.load(std::memory_order_relaxed);
    s.backendFailures =
        backendFailures.load(std::memory_order_relaxed);
    s.backendWrites = backendWrites.load(std::memory_order_relaxed);
    s.probes = probes.load(std::memory_order_relaxed);
    s.inflight = unanswered.load(std::memory_order_relaxed);
    s.backendsTotal = backends.size();
    for (const auto &bp : backends) {
        RouterBackendStats bs;
        bs.name = bp->name;
        bs.breakerState = bp->breaker.stateName();
        bs.breakerOpens = bp->breaker.opens();
        bs.routed = bp->routed.load(std::memory_order_relaxed);
        bs.rehashes =
            bp->rehashes.load(std::memory_order_relaxed);
        bs.inflight =
            bp->inflightCount.load(std::memory_order_relaxed);
        bs.live = bp->breaker.state() ==
                  CircuitBreaker::State::Closed;
        if (bs.live)
            s.backendsLive++;
        s.backends.push_back(std::move(bs));
    }
    return s;
}

std::string
renderRouterPrometheus(const RouterStats &s,
                       const ReactorStats &r)
{
    std::string out;
    out.reserve(4096);
    promBuildInfo(out);
    promCounter(out, "gpm_router_requests_total",
                "Request lines handled", s.requests);
    promCounter(out, "gpm_router_connections_total",
                "Client connections accepted", s.connections);
    promCounter(out, "gpm_router_routed_submits_total",
                "submit requests routed", s.routedSubmits);
    promCounter(out, "gpm_router_routed_batches_total",
                "submit_batch requests routed", s.routedBatches);
    promCounter(out, "gpm_router_routed_scenarios_total",
                "Scenarios routed to backends",
                s.routedScenarios);
    promCounter(out, "gpm_router_rerouted_total",
                "Scenarios re-dispatched after a backend "
                "transport failure",
                s.rerouted);
    promCounter(out, "gpm_router_shed_no_backend_total",
                "Scenarios answered busy with no live backend",
                s.shedNoBackend);
    promCounter(out, "gpm_router_splice_fallbacks_total",
                "Responses that took the full-parse path",
                s.spliceFallbacks);
    promCounter(out, "gpm_router_backend_failures_total",
                "Backend transport failures observed",
                s.backendFailures);
    promCounter(out, "gpm_router_backend_writes_total",
                "Request-line writes to backend sockets (routed "
                "scenarios per write is the coalescing factor)",
                s.backendWrites);
    promCounter(out, "gpm_router_probes_total",
                "Health probes sent to non-closed backends",
                s.probes);
    promCounter(out, "gpm_router_bytes_in_total",
                "Bytes received on client sockets", r.bytesIn);
    promCounter(out, "gpm_router_bytes_out_total",
                "Bytes written to client sockets", r.bytesOut);
    promGauge(out, "gpm_router_inflight",
              "Scenarios accepted but not yet answered",
              static_cast<double>(s.inflight));
    promGauge(out, "gpm_router_backends",
              "Configured backends",
              static_cast<double>(s.backendsTotal));
    promGauge(out, "gpm_router_backends_live",
              "Backends with a closed circuit breaker",
              static_cast<double>(s.backendsLive));
    promGauge(out, "gpm_router_open_connections",
              "Client sockets currently open",
              static_cast<double>(r.openConnections));
    promGauge(out, "gpm_router_uptime_seconds", "Router uptime",
              s.uptimeSec);

    char buf[256];
    out += "# HELP gpm_router_backend_routed_total Scenarios "
           "dispatched per backend\n"
           "# TYPE gpm_router_backend_routed_total counter\n";
    for (const auto &b : s.backends) {
        std::snprintf(
            buf, sizeof(buf),
            "gpm_router_backend_routed_total{backend=\"%s\"} "
            "%llu\n",
            b.name.c_str(),
            static_cast<unsigned long long>(b.routed));
        out += buf;
    }
    out += "# HELP gpm_router_backend_rehashes_total Scenarios "
           "placed off their all-alive ring owner\n"
           "# TYPE gpm_router_backend_rehashes_total counter\n";
    for (const auto &b : s.backends) {
        std::snprintf(
            buf, sizeof(buf),
            "gpm_router_backend_rehashes_total{backend=\"%s\"} "
            "%llu\n",
            b.name.c_str(),
            static_cast<unsigned long long>(b.rehashes));
        out += buf;
    }
    out += "# HELP gpm_router_backend_inflight Scenarios awaiting "
           "each backend's response\n"
           "# TYPE gpm_router_backend_inflight gauge\n";
    for (const auto &b : s.backends) {
        std::snprintf(
            buf, sizeof(buf),
            "gpm_router_backend_inflight{backend=\"%s\"} %llu\n",
            b.name.c_str(),
            static_cast<unsigned long long>(b.inflight));
        out += buf;
    }
    out += "# HELP gpm_router_breaker_opens_total Breaker open "
           "events per backend\n"
           "# TYPE gpm_router_breaker_opens_total counter\n";
    for (const auto &b : s.backends) {
        std::snprintf(
            buf, sizeof(buf),
            "gpm_router_breaker_opens_total{backend=\"%s\"} "
            "%llu\n",
            b.name.c_str(),
            static_cast<unsigned long long>(b.breakerOpens));
        out += buf;
    }
    out += "# HELP gpm_router_breaker_state Per-backend breaker "
           "state (exactly one state sample per backend is 1)\n"
           "# TYPE gpm_router_breaker_state gauge\n";
    static const char *const kStates[] = {"closed", "open",
                                          "half-open"};
    for (const auto &b : s.backends) {
        for (const char *st : kStates) {
            std::snprintf(buf, sizeof(buf),
                          "gpm_router_breaker_state{backend=\"%s\""
                          ",state=\"%s\"} %d\n",
                          b.name.c_str(), st,
                          b.breakerState == st ? 1 : 0);
            out += buf;
        }
    }
    return out;
}

} // namespace gpm
