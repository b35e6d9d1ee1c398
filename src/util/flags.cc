#include "util/flags.hh"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <sstream>

#include "util/logging.hh"

namespace gpm
{

void
FlagSet::add(const std::string &name, std::string *target,
             const std::string &metavar, const std::string &help)
{
    addCustom(name, metavar,
              target->empty() ? help
                              : help + " (default " + *target + ")",
              [target](const std::string &v) {
                  *target = v;
                  return std::string();
              });
}

void
FlagSet::addSwitch(const std::string &name, bool *target,
                   bool value, const std::string &help)
{
    addCustom(name, "", help, [target, value](const std::string &) {
        *target = value;
        return std::string();
    });
}

std::string
FlagSet::tryParse(int argc, const char *const *argv)
{
    for (int i = 1; i < argc; i++) {
        std::string a = argv[i];
        if (a == "--help" || a == "-h") {
            help = true;
            return "";
        }
        if (a.empty() || a[0] != '-') {
            if (!onPositional)
                return "unexpected argument '" + a + "'";
            if (std::string err = onPositional(a); !err.empty())
                return err;
            continue;
        }
        auto e = std::find_if(
            entries.begin(), entries.end(),
            [&](const Entry &c) { return c.name == a; });
        if (e == entries.end())
            return "unknown option '" + a + "' (try --help)";
        std::string value;
        if (!e->metavar.empty()) {
            if (i + 1 >= argc)
                return a + " needs a value";
            value = argv[++i];
        }
        if (std::string err = e->apply(value); !err.empty())
            return a + ": " + err;
    }
    return "";
}

void
FlagSet::parse(int argc, char **argv)
{
    std::string err = tryParse(argc, argv);
    if (!err.empty())
        fatal("%s: %s", program.c_str(), err.c_str());
    if (help) {
        std::fputs(usage().c_str(), stdout);
        std::exit(0);
    }
}

std::string
FlagSet::usage() const
{
    // Help text starts at kCol (on the next line when the flag is
    // wider) and wraps at kWidth.
    constexpr std::size_t kCol = 26, kWidth = 76;
    std::string out = synopsis + "\n";
    for (const auto &e : entries) {
        std::string line = "  " + e.name;
        if (!e.metavar.empty())
            line += " " + e.metavar;
        if (line.size() + 1 >= kCol) {
            out += line + "\n";
            line.clear();
        }
        line.resize(kCol, ' ');
        std::istringstream words(e.help);
        for (std::string w; words >> w;) {
            if (line.size() > kCol &&
                line.size() + 1 + w.size() > kWidth) {
                out += line + "\n";
                line.assign(kCol, ' ');
            }
            if (line.size() > kCol)
                line += ' ';
            line += w;
        }
        out += line + "\n";
    }
    return out;
}

} // namespace gpm
