/**
 * @file
 * gpmctl — command-line client for gpmd.
 *
 *   gpmctl [options] ping | stats | shutdown
 *   gpmctl [options] submit --combo mcf,crafty --policy MaxBIPS \
 *       --budget 0.8
 *   gpmctl [options] submit --cluster-chip COMBO:POLICY[:COUNT] \
 *       [--cluster-chip ...] --policy MaxBIPS-DP --budget 0.75
 *   gpmctl [options] submit --json '<scenario object>'
 *   gpmctl [options] submit-batch @FILE.ndjson
 *
 * `gpmctl --help` lists every flag with its default and range.
 *
 * Cluster submits describe a rack: each --cluster-chip adds COUNT
 * chips (default 1) running COMBO (a combination key like "2way1",
 * a single benchmark, or a comma list) under the inner policy
 * POLICY; --policy then names the facility-level arbitration
 * kernel. See docs/SERVICE.md for the scenario schema.
 *
 * submit-batch reads one scenario object per line from FILE, sends
 * them as a single submit_batch request, and prints one result line
 * per scenario on stdout in input order (the server answers in
 * completion order; gpmctl reorders by "index"). Exit 0 only when
 * every scenario succeeded. Retries (below) re-send the whole
 * batch, never a subset, and nothing is printed until the full
 * response set arrived — a mid-stream retry cannot duplicate
 * output. --max-inflight N caps how many scenarios one request
 * keeps in flight: a larger file is sent as consecutive windows of
 * N, each retried as a unit, results still printed in input order
 * with every line's "index" shifted back to its input-file
 * position. This keeps one gpmctl from monopolizing the server's
 * per-client queue share.
 *
 * Retries (--retries, --retry-base-ms, --deadline, --timeout-ms,
 * --seed; see docs/ROBUSTNESS.md) fire on connect failure,
 * transport failure/timeout, and transient "busy" /
 * "rejected_overload" / "internal_error" responses, with seeded
 * exponential backoff and jitter, all bounded by --deadline. A
 * --deadline by itself funds retries past the --retries count (so
 * a connection refused while the daemon is still starting keeps
 * backing off until the budget runs out, instead of dying on the
 * first attempt). A rejection carrying "retryAfterMs" raises the
 * next delay to at least that hint — the server knows its own
 * drain rate.
 *
 * Prints the server's one-line JSON response on stdout. Exit codes:
 * 0 = ok:true, 2 = server returned an error, 1 = usage or
 * transport failure (including deadline exhaustion).
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "service/json.hh"
#include "service/net.hh"
#include "trace/workload.hh"
#include "util/backoff.hh"
#include "util/flags.hh"

namespace
{

using gpm::json::Value;

std::vector<std::string>
splitCommas(const std::string &s)
{
    std::vector<std::string> out;
    std::size_t start = 0;
    while (start <= s.size()) {
        std::size_t comma = s.find(',', start);
        if (comma == std::string::npos) {
            out.push_back(s.substr(start));
            break;
        }
        out.push_back(s.substr(start, comma - start));
        start = comma + 1;
    }
    return out;
}

[[noreturn]] void
die(const std::string &msg)
{
    std::fprintf(stderr, "gpmctl: %s\n", msg.c_str());
    std::exit(1);
}

/** A --cluster-chip COMBO's JSON form: a comma list becomes an
 *  explicit array, a known combination key passes through as a
 *  string for the server to resolve, and a bare benchmark name
 *  becomes a one-element array. */
Value
chipComboJson(const std::string &combo)
{
    std::vector<std::string> names = splitCommas(combo);
    if (names.size() == 1 && gpm::findCombination(names[0]))
        return Value(names[0]);
    Value arr = Value::array();
    for (const auto &n : names)
        arr.push(n);
    return arr;
}

/** Parse one --cluster-chip COMBO:POLICY[:COUNT] into a chip
 *  object. */
Value
parseChipArg(const std::string &arg)
{
    std::size_t p1 = arg.find(':');
    if (p1 == std::string::npos || p1 == 0)
        die("--cluster-chip needs COMBO:POLICY[:COUNT], got '" +
            arg + "'");
    std::size_t p2 = arg.find(':', p1 + 1);
    std::string combo = arg.substr(0, p1);
    std::string chip_policy = arg.substr(
        p1 + 1, p2 == std::string::npos ? std::string::npos
                                        : p2 - p1 - 1);
    if (chip_policy.empty())
        die("--cluster-chip needs COMBO:POLICY[:COUNT], got '" +
            arg + "'");
    Value chip = Value::object();
    chip.set("combo", chipComboJson(combo));
    chip.set("policy", chip_policy);
    if (p2 != std::string::npos) {
        long count = std::atol(arg.c_str() + p2 + 1);
        if (count < 1)
            die("--cluster-chip COUNT must be >= 1 in '" + arg +
                "'");
        chip.set("count", static_cast<double>(count));
    }
    return chip;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string host = "127.0.0.1";
    std::uint16_t port = 7421;
    std::string command;

    // Scenario pieces for `submit`.
    std::string combo_arg, combo_key, policy, budget_arg,
        budgets_arg;
    std::string static_fit, json_arg, batch_file;
    std::optional<double> explore_us, delta_us, sensor_noise,
        request_deadline_ms, cluster_epoch_us;
    std::optional<long> cluster_epochs, cluster_levels;
    bool contention = false;
    std::vector<std::string> cluster_chips;

    // Retry policy.
    long retries = 0;
    double retry_base_ms = 50.0;
    double deadline_ms = 0.0;
    double timeout_ms = 0.0;
    unsigned long long seed = 1;
    long max_inflight = 0; // 0 = the whole batch in one request

    constexpr double kInf = std::numeric_limits<double>::max();
    constexpr long kLongMax = std::numeric_limits<long>::max();
    gpm::FlagSet flags(
        "gpmctl",
        "usage: gpmctl [options] "
        "<ping|stats|shutdown|submit|submit-batch> [@FILE.ndjson]");
    flags.add("--host", &host, "H[,H2[:P2],...]",
              "daemon or router address; a comma-separated "
              "HOST[:PORT] list rotates retries through the "
              "endpoints (entries without :PORT use --port)");
    flags.add("--port", &port, std::uint16_t{1}, std::uint16_t{65535},
              "TCP port");
    flags.add("--retries", &retries, 0L, 1000000L,
              "additional attempts after the first");
    flags.add("--retry-base-ms", &retry_base_ms, 0.0, kInf,
              "backoff scale");
    flags.add("--deadline", &deadline_ms, 0.0, kInf,
              "overall wall-clock budget across all attempts [ms], "
              "which also funds retries past --retries; 0 = none");
    flags.add("--timeout-ms", &timeout_ms, 0.0, kInf,
              "per-attempt response timeout; 0 = none");
    flags.add("--seed", &seed, 0ULL,
              std::numeric_limits<unsigned long long>::max(),
              "backoff jitter seed (same seed, same delays)");
    flags.add("--max-inflight", &max_inflight, 0L, kLongMax,
              "submit-batch: scenarios per request; 0 = all");
    flags.add("--combo", &combo_arg, "A,B", "submit: benchmark list");
    flags.add("--combo-key", &combo_key, "KEY",
              "submit: Table 2 combination key (e.g. 2way1)");
    flags.add("--policy", &policy, "NAME", "submit: policy name");
    flags.add("--budget", &budget_arg, "F",
              "submit: power budget fraction");
    flags.add("--budgets", &budgets_arg, "F1,F2,...",
              "submit: budget sweep");
    flags.add("--static-fit", &static_fit, "peak|average",
              "submit: static-planner fit");
    flags.add("--explore-us", &explore_us, 0.0, kInf,
              "submit: exploration interval");
    flags.add("--delta-us", &delta_us, 0.0, kInf,
              "submit: simulation step");
    flags.addSwitch("--contention", &contention, true,
                    "submit: model shared-L2/memory contention");
    flags.add("--sensor-noise", &sensor_noise, 0.0, kInf,
              "submit: sensor noise");
    flags.add("--deadline-ms", &request_deadline_ms, 0.0, kInf,
              "submit: server-side request deadline");
    flags.add("--json", &json_arg, "SCENARIO",
              "submit: the scenario object verbatim");
    flags.addCustom("--cluster-chip", "COMBO:POLICY[:COUNT]",
                    "submit: add COUNT chips running COMBO under "
                    "POLICY (repeatable)",
                    [&](const std::string &v) {
                        cluster_chips.push_back(v);
                        return std::string();
                    });
    flags.add("--epochs", &cluster_epochs, 1L, kLongMax,
              "cluster submit: epochs");
    flags.add("--epoch-us", &cluster_epoch_us, 0.0, kInf,
              "cluster submit: epoch length");
    flags.add("--levels", &cluster_levels, 1L, kLongMax,
              "cluster submit: facility budget levels");
    flags.positional([&](const std::string &a) {
        if (command.empty())
            command = a;
        else if (command == "submit-batch" && batch_file.empty() &&
                 a[0] == '@')
            batch_file = a.substr(1);
        else
            return "unexpected argument '" + a + "'";
        return std::string();
    });
    flags.parse(argc, argv);

    if (command != "ping" && command != "stats" &&
        command != "shutdown" && command != "submit" &&
        command != "submit-batch") {
        std::fputs(flags.usage().c_str(), stderr);
        return 1;
    }

    // Endpoint rotation (--host a,b,c): each retryable failure
    // moves to the next endpoint, so a dead daemon or a router
    // answering only open-breaker refusals is routed around
    // client-side while the usual retry budget funds the attempts.
    // Parsed after the flags, so --host and --port order does not
    // matter.
    auto parsed_eps = gpm::parseEndpoints(host, port);
    if (!parsed_eps.ok())
        die("--host: " + parsed_eps.error());
    std::vector<gpm::Endpoint> endpoints =
        std::move(parsed_eps.value());
    if (endpoints.empty())
        die("--host named no endpoints");
    std::size_t ep_idx = 0;

    Value request = Value::object();
    request.set("id", "gpmctl");
    request.set("verb", command == "submit-batch" ? "submit_batch"
                                                  : command);

    if (command == "submit") {
        Value scenario = Value::object();
        if (!json_arg.empty()) {
            auto parsed = gpm::json::parse(json_arg);
            if (!parsed.ok())
                die("--json: " + parsed.error().message +
                    " at offset " +
                    std::to_string(parsed.error().offset));
            scenario = parsed.value();
        } else {
            if ((combo_arg.empty() && combo_key.empty() &&
                 cluster_chips.empty()) ||
                policy.empty() ||
                (budget_arg.empty() && budgets_arg.empty()))
                die("submit needs --combo/--combo-key/"
                    "--cluster-chip, --policy and "
                    "--budget/--budgets (or --json)");
            if (!cluster_chips.empty()) {
                if (!combo_arg.empty() || !combo_key.empty())
                    die("--cluster-chip excludes --combo/"
                        "--combo-key");
                Value chips = Value::array();
                for (const auto &arg : cluster_chips)
                    chips.push(parseChipArg(arg));
                Value cluster = Value::object();
                cluster.set("chips", std::move(chips));
                if (cluster_epochs)
                    cluster.set("epochs",
                                static_cast<double>(*cluster_epochs));
                if (cluster_epoch_us.value_or(0.0) > 0.0)
                    cluster.set("epochUs", *cluster_epoch_us);
                if (cluster_levels)
                    cluster.set("levels",
                                static_cast<double>(*cluster_levels));
                scenario.set("cluster", std::move(cluster));
            } else if (!combo_key.empty()) {
                // Table 2 keys like "2way1" pass through as a
                // string for the server to resolve.
                scenario.set("combo", combo_key);
            } else {
                Value combo = Value::array();
                for (const auto &name : splitCommas(combo_arg))
                    combo.push(name);
                scenario.set("combo", std::move(combo));
            }
            scenario.set("policy", policy);
            if (!budget_arg.empty())
                scenario.set("budget", std::atof(budget_arg.c_str()));
            if (!budgets_arg.empty()) {
                Value budgets = Value::array();
                for (const auto &b : splitCommas(budgets_arg))
                    budgets.push(std::atof(b.c_str()));
                scenario.set("budgets", std::move(budgets));
            }
            if (!static_fit.empty())
                scenario.set("staticFit", static_fit);
            if (request_deadline_ms)
                scenario.set("deadlineMs", *request_deadline_ms);
            Value sim = Value::object();
            if (explore_us.value_or(0.0) > 0.0)
                sim.set("exploreUs", *explore_us);
            if (delta_us.value_or(0.0) > 0.0)
                sim.set("deltaSimUs", *delta_us);
            if (sensor_noise)
                sim.set("sensorNoise", *sensor_noise);
            if (contention)
                sim.set("contention", true);
            if (!sim.asObject().empty())
                scenario.set("sim", std::move(sim));
        }
        request.set("scenario", std::move(scenario));
    }

    std::vector<Value> batch_scenarios;
    std::size_t batch_count = 0;
    if (command == "submit-batch") {
        if (batch_file.empty())
            die("submit-batch needs an @FILE.ndjson argument");
        std::FILE *f = std::fopen(batch_file.c_str(), "rb");
        if (!f)
            die("cannot open '" + batch_file + "'");
        std::string text;
        char chunk[1 << 14];
        std::size_t got;
        while ((got = std::fread(chunk, 1, sizeof(chunk), f)) > 0)
            text.append(chunk, got);
        bool read_ok = !std::ferror(f);
        std::fclose(f);
        if (!read_ok)
            die("cannot read '" + batch_file + "'");
        // One scenario object per non-blank line; reject the whole
        // file on the first malformed line rather than sending a
        // batch the server will reject anyway.
        std::size_t line_no = 0, pos = 0;
        while (pos < text.size()) {
            std::size_t nl = text.find('\n', pos);
            std::string ln = text.substr(
                pos, nl == std::string::npos ? std::string::npos
                                             : nl - pos);
            pos = nl == std::string::npos ? text.size() : nl + 1;
            line_no++;
            if (!ln.empty() && ln.back() == '\r')
                ln.pop_back();
            if (ln.find_first_not_of(" \t") == std::string::npos)
                continue;
            auto parsed = gpm::json::parse(ln);
            if (!parsed.ok())
                die(batch_file + ":" + std::to_string(line_no) +
                    ": " + parsed.error().message);
            batch_scenarios.push_back(std::move(parsed.value()));
            batch_count++;
        }
        if (batch_count == 0)
            die("'" + batch_file + "' holds no scenarios");
    }

    const auto start = std::chrono::steady_clock::now();
    auto elapsed_ms = [&] {
        return std::chrono::duration<double, std::milli>(
                   std::chrono::steady_clock::now() - start)
            .count();
    };
    gpm::BackoffSchedule backoff(retry_base_ms,
                                 /*cap_ms=*/2000.0, seed);
    auto transientCode = [](const std::string &code) {
        return code == "busy" || code == "rejected_overload" ||
            code == "internal_error";
    };
    // A transient failure is retried while either budget is open:
    // the --retries attempt count, or wall-clock left on
    // --deadline. The deadline alone funds retries so that e.g. a
    // connection refused during daemon startup rides the seeded
    // backoff instead of being permanently fatal.
    auto canRetry = [&](long attempt) {
        return attempt < retries ||
            (deadline_ms > 0.0 && elapsed_ms() < deadline_ms);
    };
    /** The server's retryAfterMs hint from an "error" object
     *  (0 = none). */
    auto retryHintOf = [](const Value *err) {
        const Value *h = err ? err->find("retryAfterMs") : nullptr;
        return h && h->isNumber() ? h->asNumber() : 0.0;
    };

    // One request's full send/retry cycle. For submit_batch
    // requests @p expect is the scenario count (responses are
    // buffered, sorted by index and printed together); 0 means a
    // single-response verb. Returns the exit code; transport
    // failures past the retry budget die(1) from inside.
    auto runWire = [&](const std::string &wire,
                       std::size_t expect,
                       std::size_t index_base) -> int {
        for (long attempt = 0;; attempt++) {
            double remaining_ms = deadline_ms > 0.0
                ? deadline_ms - elapsed_ms()
                : -1.0;
            if (deadline_ms > 0.0 && remaining_ms <= 0.0)
                die("deadline of " + std::to_string(deadline_ms) +
                    " ms exhausted after " +
                    std::to_string(attempt) + " attempt(s)");

            std::string failure;
            std::string response;
            bool got_response = false;
            double retry_floor_ms = 0.0;

            const gpm::Endpoint &ep =
                endpoints[ep_idx % endpoints.size()];
            auto conn = gpm::TcpStream::connectTo(ep.host, ep.port);
            if (!conn.ok()) {
                failure = conn.error();
            } else {
                gpm::TcpStream stream = std::move(conn.value());
                // Bound each attempt by --timeout-ms and what is
                // left of the overall --deadline, whichever is
                // tighter.
                double t = timeout_ms;
                if (remaining_ms > 0.0 &&
                    (t <= 0.0 || remaining_ms < t))
                    t = remaining_ms;
                if (t > 0.0) {
                    int ms = t < 1.0 ? 1 : static_cast<int>(t);
                    stream.setReadTimeoutMs(ms);
                    stream.setWriteTimeoutMs(ms);
                }
                if (!stream.writeAll(wire)) {
                    failure = "failed to send request";
                } else if (expect > 0) {
                    // Buffer the full response set before printing
                    // anything: a retry re-sends the whole batch,
                    // so partial output from a failed attempt would
                    // be duplicated.
                    std::vector<std::pair<std::size_t, std::string>>
                        results;
                    std::string batch_error;
                    while (results.size() < expect &&
                           failure.empty() && batch_error.empty()) {
                        std::string ln;
                        switch (stream.readLine(ln)) {
                        case gpm::TcpStream::ReadStatus::Line: {
                            auto parsed = gpm::json::parse(ln);
                            if (!parsed.ok()) {
                                failure =
                                    "unparseable response line";
                                break;
                            }
                            const Value *idx =
                                parsed.value().find("index");
                            if (!idx || !idx->isNumber()) {
                                // Batch-level line: the
                                // one-and-only response (admission
                                // error).
                                batch_error = ln;
                                break;
                            }
                            results.emplace_back(
                                static_cast<std::size_t>(
                                    idx->asNumber()),
                                ln);
                            break;
                        }
                        case gpm::TcpStream::ReadStatus::Timeout:
                            failure = "timed out waiting for "
                                      "batch responses";
                            break;
                        default:
                            failure = "connection closed mid-batch";
                        }
                    }
                    if (!batch_error.empty()) {
                        auto parsed = gpm::json::parse(batch_error);
                        const Value *err =
                            parsed.value().find("error");
                        std::string code;
                        if (err && err->find("code") &&
                            err->find("code")->isString())
                            code = err->find("code")->asString();
                        if (!transientCode(code) ||
                            !canRetry(attempt)) {
                            std::printf("%s\n",
                                        batch_error.c_str());
                            return 2;
                        }
                        retry_floor_ms = retryHintOf(err);
                        failure =
                            "server rejected the batch with '" +
                            code + "'";
                    } else if (failure.empty()) {
                        // Full set received: print in input order,
                        // exit non-zero if any scenario failed.
                        std::sort(results.begin(), results.end(),
                                  [](const auto &a, const auto &b) {
                                      return a.first < b.first;
                                  });
                        int rc = 0;
                        for (const auto &r : results) {
                            auto parsed =
                                gpm::json::parse(r.second);
                            const Value *ok = parsed.ok()
                                ? parsed.value().find("ok")
                                : nullptr;
                            if (!(ok && ok->isBool() &&
                                  ok->asBool()))
                                rc = 2;
                            // The daemon indexes within *its*
                            // request; shift windowed responses
                            // back to input-file positions so
                            // callers can match lines by index.
                            if (index_base > 0 && parsed.ok()) {
                                parsed.value().set(
                                    "index",
                                    Value(index_base + r.first));
                                std::printf(
                                    "%s\n",
                                    parsed.value().dump().c_str());
                            } else {
                                std::printf("%s\n",
                                            r.second.c_str());
                            }
                        }
                        return rc;
                    }
                } else {
                    switch (stream.readLine(response)) {
                    case gpm::TcpStream::ReadStatus::Line:
                        got_response = true;
                        break;
                    case gpm::TcpStream::ReadStatus::Timeout:
                        failure =
                            "timed out waiting for a response";
                        break;
                    default:
                        failure = "connection closed before a "
                                  "response arrived";
                    }
                }
            }

            if (got_response) {
                auto parsed = gpm::json::parse(response);
                if (!parsed.ok())
                    die("unparseable response");
                // Transient server-side outcomes are retried;
                // anything else (including validation errors) is
                // final.
                const Value *err = parsed.value().find("error");
                std::string code;
                if (err && err->find("code") &&
                    err->find("code")->isString())
                    code = err->find("code")->asString();
                if (!transientCode(code) || !canRetry(attempt)) {
                    std::printf("%s\n", response.c_str());
                    const Value *ok = parsed.value().find("ok");
                    bool is_ok =
                        ok && ok->isBool() && ok->asBool();
                    // After the raw JSON line (which scripts
                    // grep), pretty-print every counter the server
                    // reported — generically and KEY-SORTED, so
                    // new counters show up without a client
                    // release and smoke greps see a stable order.
                    // Bare strings print unquoted (breaker states
                    // read as open/half-open/closed, not
                    // "\"open\"").
                    if (command == "stats" && is_ok) {
                        const Value *res =
                            parsed.value().find("result");
                        if (res && res->isObject()) {
                            std::vector<std::pair<std::string,
                                                  std::string>>
                                rows;
                            for (const auto &[key, val] :
                                 res->asObject())
                                rows.emplace_back(
                                    key,
                                    val.isString()
                                        ? val.asString()
                                        : val.dump());
                            std::sort(rows.begin(), rows.end());
                            for (const auto &[key, val] : rows)
                                std::fprintf(stderr,
                                             "gpmctl: %s: %s\n",
                                             key.c_str(),
                                             val.c_str());
                        }
                    }
                    return is_ok ? 0 : 2;
                }
                retry_floor_ms = retryHintOf(err);
                failure = "server reported '" + code + "'";
            } else if (!canRetry(attempt)) {
                die(failure);
            }

            // Any retried failure — transport or a transient
            // refusal — rotates to the next endpoint so the retry
            // budget is spent across the fleet, not on one dead
            // replica.
            if (endpoints.size() > 1) {
                ep_idx++;
                const gpm::Endpoint &next =
                    endpoints[ep_idx % endpoints.size()];
                failure += "; rotating to " + next.host + ":" +
                    std::to_string(next.port);
            }

            // The server's retryAfterMs hint is a floor under the
            // exponential backoff: never poke an overloaded daemon
            // sooner than it asked.
            double delay =
                std::max(backoff.nextMs(), retry_floor_ms);
            if (deadline_ms > 0.0) {
                double left = deadline_ms - elapsed_ms();
                if (left <= 0.0)
                    die("deadline of " +
                        std::to_string(deadline_ms) +
                        " ms exhausted after " +
                        std::to_string(attempt + 1) +
                        " attempt(s)");
                if (delay > left)
                    delay = left;
            }
            if (attempt < retries)
                std::fprintf(stderr,
                             "gpmctl: %s; retrying in %.0f ms "
                             "(attempt %ld of %ld)\n",
                             failure.c_str(), delay, attempt + 1,
                             retries + 1);
            else
                // Past the attempt budget, the --deadline is what
                // funds this retry.
                std::fprintf(stderr,
                             "gpmctl: %s; retrying in %.0f ms "
                             "(attempt %ld, %.0f ms of deadline "
                             "left)\n",
                             failure.c_str(), delay, attempt + 1,
                             deadline_ms - elapsed_ms());
            std::this_thread::sleep_for(
                std::chrono::duration<double, std::milli>(delay));
        }
    };

    if (command != "submit-batch")
        return runWire(request.dump() + "\n", 0, 0);

    // Window the batch under --max-inflight: consecutive
    // submit_batch requests of at most N scenarios each, every
    // window retried as a unit. Sequential windows plus per-window
    // input-order printing preserves overall input order, and each
    // window's daemon-relative indices are shifted back to
    // input-file positions before printing.
    std::size_t window = max_inflight > 0
        ? static_cast<std::size_t>(max_inflight)
        : batch_count;
    int rc = 0;
    for (std::size_t off = 0; off < batch_count; off += window) {
        std::size_t n = std::min(window, batch_count - off);
        Value scenarios = Value::array();
        for (std::size_t i = 0; i < n; i++)
            scenarios.push(batch_scenarios[off + i]);
        Value req = Value::object();
        req.set("id", "gpmctl");
        req.set("verb", "submit_batch");
        req.set("scenarios", std::move(scenarios));
        int wrc = runWire(req.dump() + "\n", n, off);
        if (wrc != 0)
            rc = wrc;
    }
    return rc;
}
