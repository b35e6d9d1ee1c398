#include "service/net.hh"

#include <arpa/inet.h>
#include <cerrno>
#include <cstring>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>
#include <utility>

namespace gpm
{

static std::string
errnoString(const char *what)
{
    return std::string(what) + ": " + std::strerror(errno);
}

Expected<std::vector<Endpoint>, std::string>
parseEndpoints(std::string_view list,
               std::optional<std::uint16_t> defaultPort)
{
    using Result = Expected<std::vector<Endpoint>, std::string>;
    std::vector<Endpoint> eps;
    while (!list.empty()) {
        std::size_t comma = list.find(',');
        std::string tok(list.substr(0, comma));
        list = comma == std::string_view::npos
                   ? std::string_view()
                   : list.substr(comma + 1);
        if (tok.empty())
            continue;
        std::size_t colon = tok.rfind(':');
        bool hasPort = colon != std::string::npos && colon != 0 &&
                       colon + 1 < tok.size();
        bool numeric =
            hasPort && tok.find_first_not_of("0123456789",
                                             colon + 1) ==
                           std::string::npos;
        if (defaultPort && !numeric) {
            eps.push_back({tok, *defaultPort});
            continue;
        }
        if (!hasPort)
            return Result::failure("endpoint '" + tok +
                                   "' is not HOST:PORT");
        // Digits only, at most 5 of them, so no overflow below.
        long port = numeric && tok.size() - colon - 1 <= 5
                        ? std::stol(tok.substr(colon + 1))
                        : 0;
        if (port <= 0 || port > 65535)
            return Result::failure("endpoint '" + tok +
                                   "' has a bad port");
        eps.push_back({tok.substr(0, colon),
                       static_cast<std::uint16_t>(port)});
    }
    return eps;
}

TcpListener::TcpListener(TcpListener &&o) noexcept
    : fd_(std::exchange(o.fd_, -1)), port_(std::exchange(o.port_, 0))
{
}

TcpListener &
TcpListener::operator=(TcpListener &&o) noexcept
{
    if (this != &o) {
        close();
        fd_ = std::exchange(o.fd_, -1);
        port_ = std::exchange(o.port_, 0);
    }
    return *this;
}

Expected<TcpListener, std::string>
TcpListener::listenOn(const std::string &host, std::uint16_t port,
                      int backlog)
{
    using Fail = Expected<TcpListener, std::string>;

    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    if (inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1)
        return Fail::failure("invalid IPv4 address '" + host + "'");

    int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd < 0)
        return Fail::failure(errnoString("socket"));

    int one = 1;
    ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

    if (::bind(fd, reinterpret_cast<sockaddr *>(&addr),
               sizeof(addr)) < 0) {
        std::string e = errnoString("bind");
        ::close(fd);
        return Fail::failure(std::move(e));
    }
    if (::listen(fd, backlog) < 0) {
        std::string e = errnoString("listen");
        ::close(fd);
        return Fail::failure(std::move(e));
    }

    sockaddr_in bound{};
    socklen_t len = sizeof(bound);
    if (::getsockname(fd, reinterpret_cast<sockaddr *>(&bound),
                      &len) < 0) {
        std::string e = errnoString("getsockname");
        ::close(fd);
        return Fail::failure(std::move(e));
    }

    TcpListener l;
    l.fd_ = fd;
    l.port_ = ntohs(bound.sin_port);
    return l;
}

int
TcpListener::acceptFd()
{
    for (;;) {
        int cfd = ::accept(fd_, nullptr, nullptr);
        if (cfd >= 0)
            return cfd;
        if (errno == EINTR || errno == ECONNABORTED)
            continue;
        return -1; // shut down, closed, or a real error
    }
}

void
TcpListener::shutdownListener()
{
    if (fd_ >= 0)
        ::shutdown(fd_, SHUT_RDWR);
}

void
TcpListener::close()
{
    if (fd_ >= 0) {
        ::close(fd_);
        fd_ = -1;
    }
}

TcpStream::TcpStream(TcpStream &&o) noexcept
    : fd_(std::exchange(o.fd_, -1)),
      readTimeoutMs(std::exchange(o.readTimeoutMs, 0)),
      writeTimeoutMs(std::exchange(o.writeTimeoutMs, 0)),
      rdbuf(std::exchange(o.rdbuf, LineScanner()))
{
}

TcpStream &
TcpStream::operator=(TcpStream &&o) noexcept
{
    if (this != &o) {
        close();
        fd_ = std::exchange(o.fd_, -1);
        readTimeoutMs = std::exchange(o.readTimeoutMs, 0);
        writeTimeoutMs = std::exchange(o.writeTimeoutMs, 0);
        rdbuf = std::exchange(o.rdbuf, LineScanner());
    }
    return *this;
}

namespace
{

/** Wait for @p events on @p fd: >0 ready, 0 timeout, <0 error. */
int
pollFor(int fd, short events, int timeout_ms)
{
    pollfd p{};
    p.fd = fd;
    p.events = events;
    for (;;) {
        int r = ::poll(&p, 1, timeout_ms);
        if (r < 0 && errno == EINTR)
            continue;
        return r;
    }
}

} // namespace

Expected<TcpStream, std::string>
TcpStream::connectTo(const std::string &host, std::uint16_t port,
                     int timeoutMs)
{
    using Fail = Expected<TcpStream, std::string>;

    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    if (inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1)
        return Fail::failure("invalid IPv4 address '" + host + "'");

    // A bounded connect runs non-blocking under poll(); the stream
    // itself is blocking either way.
    int nonblock = timeoutMs > 0 ? SOCK_NONBLOCK : 0;
    int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC | nonblock,
                      0);
    if (fd < 0)
        return Fail::failure(errnoString("socket"));
    TcpStream s(fd);

    if (::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                  sizeof(addr)) < 0) {
        if (!nonblock || errno != EINPROGRESS)
            return Fail::failure(errnoString("connect"));
        int r = pollFor(fd, POLLOUT, timeoutMs);
        if (r == 0)
            return Fail::failure("connect: timed out");
        if (r < 0)
            return Fail::failure(errnoString("poll"));
        int err = 0;
        socklen_t len = sizeof(err);
        if (::getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &len) < 0)
            return Fail::failure(errnoString("getsockopt"));
        if (err != 0)
            return Fail::failure(std::string("connect: ") +
                                 std::strerror(err));
    }
    if (nonblock)
        ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL, 0) & ~O_NONBLOCK);
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    return s;
}

TcpStream::ReadStatus
TcpStream::readLine(std::string &line, std::size_t max_len)
{
    constexpr std::size_t kChunk = 4096;
    for (;;) {
        std::string_view view;
        switch (rdbuf.next(view, max_len)) {
        case LineScanner::Scan::Line:
            line.assign(view);
            return ReadStatus::Line;
        case LineScanner::Scan::Overflow:
            // Framing overrun: discard the buffer (capping its
            // growth at max_len + one chunk) — the stream cannot
            // be resynchronized to line boundaries.
            rdbuf.reset();
            return ReadStatus::TooLong;
        case LineScanner::Scan::NeedMore:
            break;
        }

        if (readTimeoutMs > 0) {
            int r = pollFor(fd_, POLLIN, readTimeoutMs);
            if (r == 0)
                return ReadStatus::Timeout;
            if (r < 0)
                return ReadStatus::Error;
        }
        ssize_t n = ::recv(fd_, rdbuf.writePtr(kChunk), kChunk, 0);
        if (n > 0) {
            rdbuf.commit(static_cast<std::size_t>(n));
            continue;
        }
        if (n < 0 && errno == EINTR)
            continue;
        // Any partial line is dropped.
        return n == 0 ? ReadStatus::Eof : ReadStatus::Error;
    }
}

bool
TcpStream::writeAll(std::string_view data)
{
    // With a timeout, try the send first and poll only when the
    // socket is full.
    int flags = MSG_NOSIGNAL | (writeTimeoutMs > 0 ? MSG_DONTWAIT : 0);
    while (!data.empty()) {
        ssize_t n = ::send(fd_, data.data(), data.size(), flags);
        if (n > 0) {
            data.remove_prefix(static_cast<std::size_t>(n));
            continue;
        }
        if (n < 0 && errno == EINTR)
            continue;
        if (n < 0 && (flags & MSG_DONTWAIT) &&
            (errno == EAGAIN || errno == EWOULDBLOCK) &&
            pollFor(fd_, POLLOUT, writeTimeoutMs) > 0)
            continue;
        return false; // error, or no progress within the timeout
    }
    return true;
}

void
TcpStream::shutdownBoth()
{
    if (fd_ >= 0)
        ::shutdown(fd_, SHUT_RDWR);
}

void
TcpStream::close()
{
    if (fd_ >= 0) {
        ::close(fd_);
        fd_ = -1;
    }
}

} // namespace gpm
