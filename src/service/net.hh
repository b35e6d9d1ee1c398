/**
 * @file
 * Thin POSIX TCP wrappers for the scenario service: a listener with
 * ephemeral-port support and a buffered line-oriented stream — just
 * enough socket surface for an NDJSON request/response protocol,
 * kept apart from the protocol logic (server.hh) so tests can drive
 * either side over loopback.
 *
 * Both types own their fd (move-only, closed on destruction).
 * shutdownListener()/shutdownBoth() only call ::shutdown(), which
 * is async-signal-safe — gpmd's SIGINT/SIGTERM handler uses that to
 * unblock the accept loop without touching non-reentrant state.
 *
 * Deadlines: a TcpStream carries optional poll()-based read/write
 * timeouts. The read timeout bounds the wait for the *next* byte
 * (so it measures peer idleness, not total line latency); the write
 * timeout bounds each wait for the socket to accept more bytes (a
 * send the socket can take at once costs no poll). A stream with
 * both at 0 (the default) blocks forever. connectTo() can bound the
 * connect as well.
 */

#ifndef GPM_SERVICE_NET_HH
#define GPM_SERVICE_NET_HH

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "service/line_scanner.hh"
#include "util/expected.hh"

namespace gpm
{

/** One HOST:PORT address. */
struct Endpoint
{
    std::string host;
    std::uint16_t port = 0;

    std::string name() const
    {
        return host + ":" + std::to_string(port);
    }
};

/**
 * Parse a comma-separated HOST[:PORT] list (gpm-router --backends,
 * gpmctl --host); empty entries are skipped. With @p defaultPort,
 * an entry without a numeric :PORT suffix takes it; without, every
 * entry must be HOST:PORT. A port outside 1..65535 is an error
 * either way.
 */
Expected<std::vector<Endpoint>, std::string>
parseEndpoints(std::string_view list,
               std::optional<std::uint16_t> defaultPort);

class TcpListener
{
  public:
    TcpListener() = default;
    ~TcpListener() { close(); }
    TcpListener(TcpListener &&o) noexcept;
    TcpListener &operator=(TcpListener &&o) noexcept;
    TcpListener(const TcpListener &) = delete;
    TcpListener &operator=(const TcpListener &) = delete;

    /**
     * Bind + listen on @p host:@p port (IPv4 dotted quad; port 0
     * picks an ephemeral port — read the outcome from port()).
     */
    static Expected<TcpListener, std::string>
    listenOn(const std::string &host, std::uint16_t port,
             int backlog = 64);

    bool valid() const { return fd_ >= 0; }
    int fd() const { return fd_; }
    std::uint16_t port() const { return port_; }

    /**
     * Block for the next connection; returns the connected fd, or
     * -1 once the listener has been shut down or closed.
     */
    int acceptFd();

    /** Unblock acceptFd() (async-signal-safe). */
    void shutdownListener();

    void close();

  private:
    int fd_ = -1;
    std::uint16_t port_ = 0;
};

class TcpStream
{
  public:
    TcpStream() = default;
    /** Adopt a connected fd (from acceptFd()). */
    explicit TcpStream(int fd) : fd_(fd) {}
    ~TcpStream() { close(); }
    TcpStream(TcpStream &&o) noexcept;
    TcpStream &operator=(TcpStream &&o) noexcept;
    TcpStream(const TcpStream &) = delete;
    TcpStream &operator=(const TcpStream &) = delete;

    /**
     * Connect to @p host:@p port (IPv4 dotted quad), TCP_NODELAY
     * set. @p timeoutMs > 0 bounds the connect itself, so one
     * unreachable peer cannot stall the caller; 0 waits as long as
     * the kernel does.
     */
    static Expected<TcpStream, std::string>
    connectTo(const std::string &host, std::uint16_t port,
              int timeoutMs = 0);

    bool valid() const { return fd_ >= 0; }
    /** The owned fd (-1 once closed), for callers that receive on
     *  it from their own thread while another writes through
     *  writeAll(). */
    int fd() const { return fd_; }

    /** Why readLine() stopped — EOF, timeouts and framing overruns
     *  are distinct outcomes, not one conflated `false`. */
    enum class ReadStatus
    {
        Line,    ///< a complete line was read
        Eof,     ///< orderly close before a full line arrived
        Timeout, ///< read timeout expired waiting for bytes
        TooLong, ///< line exceeded max_len (buffer discarded; the
                 ///< connection can no longer be framed)
        Error,   ///< recv() failed
    };

    /** Bound the wait for each received byte; 0 = wait forever. */
    void setReadTimeoutMs(int ms) { readTimeoutMs = ms; }
    /** Bound each wait for send() readiness; 0 = wait forever. */
    void setWriteTimeoutMs(int ms) { writeTimeoutMs = ms; }

    /**
     * Read up to the next '\n' (consumed, not returned; a trailing
     * '\r' is stripped). Lines longer than @p max_len yield
     * TooLong, and the receive buffer is discarded — line framing
     * is lost, so the caller should answer once and close. Buffered
     * data never grows past max_len plus one receive chunk.
     */
    ReadStatus readLine(std::string &line,
                        std::size_t max_len = 1 << 20);

    /** Write all of @p data (SIGPIPE suppressed). False on error
     *  or write timeout. */
    bool writeAll(std::string_view data);

    /** Half-close both directions (async-signal-safe). */
    void shutdownBoth();

    void close();

  private:
    int fd_ = -1;
    int readTimeoutMs = 0;
    int writeTimeoutMs = 0;
    LineScanner rdbuf;
};

} // namespace gpm

#endif // GPM_SERVICE_NET_HH
