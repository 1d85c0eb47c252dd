#include "keyval.hh"

#include <cctype>
#include <sstream>

#include "logging.hh"
#include "parse.hh"

namespace acs {

namespace {

std::string
trim(const std::string &s)
{
    std::size_t b = 0, e = s.size();
    while (b < e && std::isspace(static_cast<unsigned char>(s[b])))
        ++b;
    while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1])))
        --e;
    return s.substr(b, e - b);
}

} // anonymous namespace

KeyVal
KeyVal::parse(const std::string &text)
{
    KeyVal kv;
    std::istringstream in(text);
    std::string line;
    int line_no = 0;
    while (std::getline(in, line)) {
        ++line_no;
        const std::size_t hash = line.find('#');
        if (hash != std::string::npos)
            line = line.substr(0, hash);
        const std::string stripped = trim(line);
        if (stripped.empty())
            continue;
        const std::size_t eq = stripped.find('=');
        fatalIf(eq == std::string::npos,
                "keyval: line " + std::to_string(line_no) +
                " has no '=': " + stripped);
        const std::string key = trim(stripped.substr(0, eq));
        const std::string value = trim(stripped.substr(eq + 1));
        fatalIf(key.empty(), "keyval: empty key at line " +
                std::to_string(line_no));
        kv.set(key, value);
    }
    return kv;
}

std::string
KeyVal::serialize() const
{
    std::ostringstream out;
    for (const auto &[key, value] : values_)
        out << key << " = " << value << "\n";
    return out.str();
}

void
KeyVal::set(const std::string &key, const std::string &value)
{
    fatalIf(key.empty(), "keyval: key must be non-empty");
    fatalIf(value.find('\n') != std::string::npos,
            "keyval: value must be single-line: " + key);
    values_[key] = value;
}

void
KeyVal::setDouble(const std::string &key, double value)
{
    std::ostringstream oss;
    oss.precision(17);
    oss << value;
    set(key, oss.str());
}

void
KeyVal::setInt(const std::string &key, long value)
{
    set(key, std::to_string(value));
}

void
KeyVal::setBool(const std::string &key, bool value)
{
    set(key, value ? "true" : "false");
}

bool
KeyVal::has(const std::string &key) const
{
    return values_.count(key) > 0;
}

std::string
KeyVal::getString(const std::string &key) const
{
    const auto it = values_.find(key);
    fatalIf(it == values_.end(), "keyval: missing key '" + key + "'");
    return it->second;
}

double
KeyVal::getDouble(const std::string &key) const
{
    return parseNumber<double>(getString(key), "keyval: '" + key + "'");
}

long
KeyVal::getInt(const std::string &key) const
{
    return parseNumber<long>(getString(key), "keyval: '" + key + "'");
}

bool
KeyVal::getBool(const std::string &key) const
{
    const std::string raw = getString(key);
    if (raw == "true" || raw == "1")
        return true;
    if (raw == "false" || raw == "0")
        return false;
    fatal("keyval: '" + key + "' is not a boolean: " + raw);
}

double
KeyVal::getDouble(const std::string &key, double fallback) const
{
    return has(key) ? getDouble(key) : fallback;
}

long
KeyVal::getInt(const std::string &key, long fallback) const
{
    return has(key) ? getInt(key) : fallback;
}

} // namespace acs
