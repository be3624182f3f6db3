#include "util/str.hh"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cstdlib>

namespace ddsim {

std::string_view
trim(std::string_view s)
{
    size_t b = 0;
    while (b < s.size() && std::isspace(static_cast<unsigned char>(s[b])))
        ++b;
    size_t e = s.size();
    while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1])))
        --e;
    return s.substr(b, e - b);
}

std::vector<std::string>
split(std::string_view s, char delim)
{
    std::vector<std::string> out;
    size_t start = 0;
    for (size_t i = 0; i <= s.size(); ++i) {
        if (i == s.size() || s[i] == delim) {
            out.emplace_back(s.substr(start, i - start));
            start = i + 1;
        }
    }
    return out;
}

std::vector<std::string>
splitWs(std::string_view s)
{
    std::vector<std::string> out;
    size_t i = 0;
    while (i < s.size()) {
        while (i < s.size() &&
               std::isspace(static_cast<unsigned char>(s[i])))
            ++i;
        size_t start = i;
        while (i < s.size() &&
               !std::isspace(static_cast<unsigned char>(s[i])))
            ++i;
        if (i > start)
            out.emplace_back(s.substr(start, i - start));
    }
    return out;
}

bool
startsWith(std::string_view s, std::string_view prefix)
{
    return s.size() >= prefix.size() &&
           s.substr(0, prefix.size()) == prefix;
}

std::string
toLower(std::string_view s)
{
    std::string out(s);
    for (char &c : out)
        c = static_cast<char>(
            std::tolower(static_cast<unsigned char>(c)));
    return out;
}

std::size_t
editDistance(std::string_view a, std::string_view b)
{
    std::vector<std::size_t> row(b.size() + 1);
    for (std::size_t j = 0; j <= b.size(); ++j)
        row[j] = j;
    for (std::size_t i = 1; i <= a.size(); ++i) {
        std::size_t diag = row[0];
        row[0] = i;
        for (std::size_t j = 1; j <= b.size(); ++j) {
            std::size_t next = std::min(
                {row[j] + 1, row[j - 1] + 1,
                 diag + (a[i - 1] == b[j - 1] ? 0 : 1)});
            diag = row[j];
            row[j] = next;
        }
    }
    return row[b.size()];
}

bool
parseInt(std::string_view s, std::int64_t &out)
{
    s = trim(s);
    if (s.empty())
        return false;
    std::string tmp(s);
    errno = 0;
    char *end = nullptr;
    long long v = std::strtoll(tmp.c_str(), &end, 0);
    if (errno != 0 || end != tmp.c_str() + tmp.size())
        return false;
    out = v;
    return true;
}

bool
parseDouble(std::string_view s, double &out)
{
    s = trim(s);
    if (s.empty())
        return false;
    std::string tmp(s);
    errno = 0;
    char *end = nullptr;
    double v = std::strtod(tmp.c_str(), &end);
    if (errno != 0 || end != tmp.c_str() + tmp.size())
        return false;
    out = v;
    return true;
}

bool
parseSize(std::string_view s, std::uint64_t &out)
{
    s = trim(s);
    if (s.empty())
        return false;
    std::uint64_t mult = 1;
    char last = s.back();
    if (last == 'K' || last == 'k') {
        mult = 1024;
        s.remove_suffix(1);
    } else if (last == 'M' || last == 'm') {
        mult = 1024 * 1024;
        s.remove_suffix(1);
    }
    std::int64_t v = 0;
    if (!parseInt(s, v) || v < 0)
        return false;
    out = static_cast<std::uint64_t>(v) * mult;
    return true;
}

} // namespace ddsim
