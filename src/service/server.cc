#include "service/server.hh"

#include "service/prom.hh"
#include "util/fault.hh"

namespace gpm
{

using json::Value;

GpmServer::GpmServer(ScenarioService &svc_, TcpListener listener_,
                     ReactorOptions transport_)
    : NdjsonFrontend(std::move(listener_), transport_), svc(svc_)
{
}

GpmServer::~GpmServer() { stopAndDrain(); }

void
GpmServer::drainWork()
{
    // Dispatched scenario work completes first: the workers invoke
    // the connections' completion callbacks, enqueueing every
    // pending response before any socket goes away.
    svc.drain();
}

namespace
{

/**
 * A submit response line (@p index null) or one submit_batch
 * per-scenario line (carrying "index", the position in the request
 * array, and the canonical "hash", so clients can match out-of-order
 * completions). The payload is already serialized JSON, spliced in
 * verbatim so cached and computed results are byte-identical.
 */
std::string
resultLine(const Value &id, const std::size_t *index,
           const ScenarioService::Response &r)
{
    if (!r.ok && !index)
        return errorResponse(id, r.errorCode, r.errorMessage,
                             r.retryAfterMs);
    Value head = Value::object();
    head.set("id", id);
    head.set("ok", r.ok);
    if (index) {
        head.set("index", *index);
        head.set("hash", hashHex(r.hash));
    }
    if (!r.ok) {
        head.set("error", errorObject(r.errorCode, r.errorMessage,
                                      r.retryAfterMs));
        return head.dump();
    }
    head.set("cached", r.cacheHit);
    if (!r.degradedTo.empty()) {
        Value d = Value::object();
        d.set("from", r.degradedFrom);
        d.set("to", r.degradedTo);
        d.set("reason", r.degradedReason);
        head.set("degraded", std::move(d));
    }
    std::string out = head.dump();
    out.pop_back(); // strip '}'
    return out + ",\"result\":" + r.payload + "}";
}

} // namespace

std::string
GpmServer::metricsBody()
{
    ServerCounters c;
    c.connections = pool->stats().accepted;
    c.requests = requests.load(std::memory_order_relaxed);
    c.reactorThreads = transport.threads;
    return renderPrometheus(svc.stats(), pool->stats(), c);
}

Value
GpmServer::statsResult()
{
    ServiceStats s = svc.stats();
    ReactorStats r = pool->stats();
    Value result = Value::object();
    result.set("uptimeSec", s.uptimeSec);
    result.set("served", s.served);
    result.set("cacheHits", s.cacheHits);
    result.set("cacheMisses", s.cacheMisses);
    result.set("cacheHitRate", s.cacheHitRate);
    result.set("cacheSize", s.cacheSize);
    result.set("queueDepth", s.queueDepth);
    result.set("inFlight", s.inFlight);
    result.set("rejectedBusy", s.rejectedBusy);
    result.set("invalid", s.invalid);
    result.set("shedDeadline", s.shedDeadline);
    result.set("workerCrashes", s.workerCrashes);
    result.set("workersAlive", s.workersAlive);
    result.set("batchRequests", s.batchRequests);
    result.set("diskHits", s.diskHits);
    result.set("diskEvictions", s.diskEvictions);
    result.set("diskQuarantined", s.diskQuarantined);
    result.set("diskEntries", s.diskEntries);
    result.set("diskBytes", s.diskBytes);
    result.set("cancelledMidSweep", s.cancelledMidSweep);
    result.set("clusterRequests", s.clusterRequests);
    result.set("clusterEpochs", s.clusterEpochs);
    result.set("chipSims", s.chipSims);
    result.set("profileBuilds", s.profileBuilds);
    result.set("profileDiskHits", s.profileDiskHits);
    result.set("profileBuildMs", s.profileBuildMs);
    result.set("profileReady", s.profileReady);
    result.set("profileQuarantined", s.profileQuarantined);
    result.set("shedOverload", s.shedOverload);
    result.set("degradedRequests", s.degradedRequests);
    result.set("breakerOpens",
               s.diskBreakerOpens + s.profileBreakerOpens);
    result.set("breakerRefusals",
               s.diskBreakerRefusals +
                   s.profileBreakerRefusals);
    result.set("breakerStateDisk",
               std::string(s.diskBreakerState));
    result.set("breakerStateProfile",
               std::string(s.profileBreakerState));
    result.set("connections", r.accepted);
    result.set("requests", requests.load());
    result.set("idleReaped", r.idleReaped);
    result.set("lineTooLong", r.lineTooLong);
    result.set("openConnections", r.openConnections);
    result.set("epollWakeups", r.epollWakeups);
    result.set("bytesIn", r.bytesIn);
    result.set("bytesOut", r.bytesOut);
    result.set("ringHighWater", r.ringHighWater);
    result.set("acceptSheds", r.emfileSheds);
    result.set("faultsArmed", fault::armed());
    return result;
}

void
GpmServer::submit(const std::shared_ptr<ReactorConn> &conn,
                  const Value &id, const Value &, ScenarioSpec spec)
{
    // Dispatch and return to reading: the response line is enqueued
    // whenever the service completes it (immediately for cache hits
    // and rejections).
    conn->addPending(1);
    svc.submitAsync(
        spec,
        [conn, id](ScenarioService::Response &&r) {
            sendLine(conn, resultLine(id, nullptr, r));
            conn->decPending();
        },
        conn->clientId());
}

void
GpmServer::submitBatch(const std::shared_ptr<ReactorConn> &conn,
                       const Value &id, const Value::Array &,
                       std::vector<ScenarioSpec> specs)
{
    // Count the whole batch as pending before dispatch: hit
    // callbacks fire synchronously inside submitBatch.
    conn->addPending(specs.size());
    auto outcome = svc.submitBatch(
        specs,
        [conn, id](std::size_t index, ScenarioService::Response &&r) {
            sendLine(conn, resultLine(id, &index, r));
            conn->decPending();
        },
        conn->clientId());
    if (!outcome.admitted) {
        // No per-scenario callback fired or ever will: answer with
        // one batch-level error line (no "index").
        conn->decPending(specs.size());
        sendLine(conn, errorResponse(id, outcome.errorCode,
                                     outcome.errorMessage,
                                     outcome.retryAfterMs));
    }
}

} // namespace gpm
