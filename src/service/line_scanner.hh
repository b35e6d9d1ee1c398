/**
 * @file
 * LineScanner — the reactor's zero-copy NDJSON framing buffer.
 *
 * One growable contiguous byte buffer per connection: recv() lands
 * directly in writePtr()/commit() tail space, and next() scans for
 * '\n' *in place*, handing out std::string_view slices of the
 * buffer — no per-line std::string is materialized until a request
 * is actually admitted (the JSON parser reads the view directly).
 *
 * Layout is [head, tail) live bytes inside a vector; consuming a
 * line just advances head, and the buffer is compacted (one
 * memmove) only when the tail runs out of room — so a deeply
 * pipelined connection never pays the old rdbuf erase(0, n) shift
 * per line, and a quiet one never pays anything.
 *
 * A returned view is valid until the next writePtr()/commit()/
 * reset() call: the reactor fully drains the scan loop before it
 * reads again, which is exactly that window.
 *
 * Framing contract (shared by the reactor, the router's backend
 * readers and TcpStream::readLine):
 *  - '\n' terminates a line and is consumed, never returned;
 *  - one trailing '\r' is stripped (CRLF tolerance);
 *  - a line longer than the maxLine passed to next() yields
 *    Overflow; the caller answers once and closes, then calls
 *    reset() — framing cannot be recovered past an overrun. Since
 *    the reactor reads in chunks and scans after every commit, the
 *    buffer never grows past maxLine plus one receive chunk.
 */

#ifndef GPM_SERVICE_LINE_SCANNER_HH
#define GPM_SERVICE_LINE_SCANNER_HH

#include <cstddef>
#include <cstring>
#include <string_view>
#include <vector>

namespace gpm
{

class LineScanner
{
  public:
    explicit LineScanner(std::size_t initial_capacity = 4096)
        : buf(initial_capacity)
    {
    }

    enum class Scan
    {
        Line,     ///< a complete line is in `line`
        NeedMore, ///< no '\n' buffered yet
        Overflow, ///< the partial line exceeds maxLine
    };

    /**
     * Writable tail space of at least @p min bytes (compacting or
     * growing as needed). Call commit(n) after receiving n bytes
     * into it. Invalidates previously returned views.
     */
    char *
    writePtr(std::size_t min)
    {
        if (buf.size() - tail < min)
            makeRoom(min);
        return buf.data() + tail;
    }

    /** Bytes available at writePtr() without another makeRoom. */
    std::size_t
    writeCapacity() const
    {
        return buf.size() - tail;
    }

    /** Record @p n bytes received into writePtr(). */
    void
    commit(std::size_t n)
    {
        tail += n;
        if (tail - head > highWaterMark)
            highWaterMark = tail - head;
    }

    /**
     * Scan for the next complete line. On Scan::Line, @p line views
     * this buffer (valid until writePtr/commit/reset) with the
     * terminating '\n' — and one trailing '\r' — stripped.
     */
    Scan
    next(std::string_view &line, std::size_t maxLine)
    {
        // Resume scanning where the last NeedMore left off: bytes
        // in [head, scanned) are known '\n'-free.
        const char *base = buf.data();
        const char *nl = static_cast<const char *>(
            std::memchr(base + scanned, '\n', tail - scanned));
        if (!nl) {
            scanned = tail;
            return tail - head > maxLine ? Scan::Overflow
                                         : Scan::NeedMore;
        }
        std::size_t end = static_cast<std::size_t>(nl - base);
        if (end - head > maxLine) {
            // The line is complete but over the cap: same outcome
            // as a never-ending one.
            return Scan::Overflow;
        }
        std::size_t len = end - head;
        if (len > 0 && base[head + len - 1] == '\r')
            len--;
        line = std::string_view(base + head, len);
        head = end + 1;
        scanned = head;
        return Scan::Line;
    }

    /** Unconsumed bytes currently buffered. */
    std::size_t
    buffered() const
    {
        return tail - head;
    }

    /** Largest buffered() ever observed (ring high-water). */
    std::size_t
    highWater() const
    {
        return highWaterMark;
    }

    /** Discard everything (after an overflow) and release the
     *  oversized allocation. */
    void
    reset()
    {
        head = tail = scanned = 0;
        buf.clear();
        buf.shrink_to_fit();
        buf.resize(4096);
    }

  private:
    void
    makeRoom(std::size_t min)
    {
        std::size_t live = tail - head;
        if (head > 0) {
            // Compact: one memmove reclaims every consumed byte.
            std::memmove(buf.data(), buf.data() + head, live);
            scanned -= head;
            tail = live;
            head = 0;
        }
        if (buf.size() - tail < min) {
            std::size_t want = tail + min;
            std::size_t cap = buf.size() ? buf.size() : 4096;
            while (cap < want)
                cap *= 2;
            buf.resize(cap);
        }
    }

    std::vector<char> buf;
    std::size_t head = 0;    ///< first live byte
    std::size_t tail = 0;    ///< one past the last live byte
    std::size_t scanned = 0; ///< bytes [head, scanned) are '\n'-free
    std::size_t highWaterMark = 0;
};

} // namespace gpm

#endif // GPM_SERVICE_LINE_SCANNER_HH
