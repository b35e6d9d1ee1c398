/**
 * @file
 * FlagSet — the table-driven command-line parser of gpmd,
 * gpm-router and gpmctl.
 *
 * Each entry holds a flag name, the variable it writes, the allowed
 * range of a numeric value and a help line; --help is rendered from
 * the table (defaults read from the targets at add() time), so the
 * usage text cannot drift from what is parsed. A numeric value must
 * be a complete number of the target's type inside the range:
 * "70000" for a port, "abc", "" or "1e3" for an integer, "-1" for a
 * count are rejected with a message naming the flag, never wrapped
 * or read as 0.
 */

#ifndef GPM_UTIL_FLAGS_HH
#define GPM_UTIL_FLAGS_HH

#include <cctype>
#include <cerrno>
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <limits>
#include <optional>
#include <string>
#include <type_traits>
#include <vector>

#include "util/logging.hh"

namespace gpm
{

class FlagSet
{
  public:
    /** Applies one flag value; "" on success, else why not. */
    using Apply = std::function<std::string(const std::string &)>;

    /** @p synopsis is the first line of usage(). */
    FlagSet(std::string program, std::string synopsis)
        : program(std::move(program)), synopsis(std::move(synopsis))
    {
    }

    /** A string flag. */
    void add(const std::string &name, std::string *target,
             const std::string &metavar, const std::string &help);

    /** A numeric flag restricted to [lo, hi]. */
    template <typename T>
    void
    add(const std::string &name, T *target, T lo, T hi,
        const std::string &help)
    {
        addCustom(name, metavar<T>(),
                  help + rangeNote(lo, hi, target),
                  [=](const std::string &v) {
                      return parseNumber(v, lo, hi, *target);
                  });
    }

    /** A numeric flag whose target stays unset unless given. */
    template <typename T>
    void
    add(const std::string &name, std::optional<T> *target, T lo,
        T hi, const std::string &help)
    {
        addCustom(name, metavar<T>(),
                  help + rangeNote<T>(lo, hi, nullptr),
                  [=](const std::string &v) {
                      T x{};
                      std::string err = parseNumber(v, lo, hi, x);
                      if (err.empty())
                          *target = x;
                      return err;
                  });
    }

    /** A valueless flag that sets *@p target to @p value. */
    void addSwitch(const std::string &name, bool *target, bool value,
                   const std::string &help);

    /** A flag with a custom action; an empty @p metavar means it
     *  takes no value. */
    void
    addCustom(const std::string &name, const std::string &metavar,
              const std::string &help, Apply apply)
    {
        entries.push_back({name, metavar, help, std::move(apply)});
    }

    /** Accept non-flag arguments through @p apply; without one they
     *  are an error. */
    void positional(Apply apply) { onPositional = std::move(apply); }

    /** Parse argv[1..argc): "" on success, else a message naming
     *  the offending flag or argument. --help / -h stop the parse
     *  and set helpRequested(). */
    std::string tryParse(int argc, const char *const *argv);

    /** tryParse(); on error exit 1 via fatal(), on --help print
     *  usage() to stdout and exit 0. */
    void parse(int argc, char **argv);

    bool helpRequested() const { return help; }

    /**
     * Environment variable @p var read with a flag's parse and range
     * check: @p fallback when unset or empty, else its value; a value
     * that is not a number in [lo, hi] exits 1 via fatal() with a
     * message naming @p var.
     */
    template <typename T>
    static T
    envNumber(const char *var, T lo, T hi, T fallback)
    {
        const char *s = std::getenv(var);
        if (!s || !*s)
            return fallback;
        T v = fallback;
        std::string err = parseNumber(s, lo, hi, v);
        if (!err.empty())
            fatal("%s: %s", var, err.c_str());
        return v;
    }

    /** The synopsis plus one aligned, word-wrapped entry per flag. */
    std::string usage() const;

  private:
    template <typename T>
    static std::string
    formatNumber(T v)
    {
        if constexpr (std::is_floating_point_v<T>) {
            char buf[32];
            std::snprintf(buf, sizeof(buf), "%g",
                          static_cast<double>(v));
            return buf;
        } else {
            return std::to_string(+v);
        }
    }

    /** Parse all of @p text as a T in [lo, hi] into @p out
     *  (untouched on error); "" on success, else why not. */
    template <typename T>
    static std::string
    parseNumber(const std::string &text, T lo, T hi, T &out)
    {
        // from_chars has no bool; read 0/1 through unsigned.
        using P =
            std::conditional_t<std::is_same_v<T, bool>, unsigned, T>;
        P v{};
        const char *end = text.data() + text.size();
        const char *stop = text.data();
        bool overflow = false;
        if constexpr (std::is_floating_point_v<T>) {
            // strtod rather than from_chars<double>: the latter
            // faults in ~200 KB of libstdc++ tables per daemon.
            char *e = nullptr;
            errno = 0;
            v = static_cast<P>(std::strtod(text.c_str(), &e));
            stop = e;
            overflow = errno == ERANGE;
        } else {
            auto r = std::from_chars(text.data(), end, v);
            stop = r.ec == std::errc::invalid_argument ? text.data()
                                                       : r.ptr;
            overflow = r.ec == std::errc::result_out_of_range;
        }
        // strtod also skips leading blanks; a value must not.
        if (text.empty() || stop != end ||
            std::isspace(static_cast<unsigned char>(text[0])))
            return "'" + text + "' is not a number";
        // NaN fails both comparisons, so it is out of every range.
        if (overflow ||
            !(v >= static_cast<P>(lo) && v <= static_cast<P>(hi)))
            return "'" + text + "' is out of range [" +
                   formatNumber(lo) + ", " + formatNumber(hi) +
                   "]";
        out = static_cast<T>(v);
        return "";
    }

    struct Entry
    {
        std::string name, metavar, help;
        Apply apply;
    };

    template <typename T>
    static const char *
    metavar()
    {
        return std::is_floating_point_v<T> ? "X" : "N";
    }

    /** " (default D; LO..HI)"; HI is left off at the maximum of an
     *  int-or-wider type (an open range), D when @p def is null. */
    template <typename T>
    static std::string
    rangeNote(T lo, T hi, const T *def)
    {
        std::string r = " (";
        if (def)
            r += "default " + formatNumber(*def) + "; ";
        r += formatNumber(lo) + "..";
        if (hi != std::numeric_limits<T>::max() ||
            sizeof(T) < sizeof(int))
            r += formatNumber(hi);
        return r + ")";
    }

    std::string program;
    std::string synopsis;
    std::vector<Entry> entries;
    Apply onPositional;
    bool help = false;
};

} // namespace gpm

#endif // GPM_UTIL_FLAGS_HH
