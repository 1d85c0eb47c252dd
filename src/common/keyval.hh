/**
 * @file
 * Minimal key=value configuration text format.
 *
 * One `key = value` pair per line; `#` starts a comment; blank lines
 * ignored. Used to serialize HardwareConfig so tools can load design
 * points from files without external dependencies.
 */

#ifndef ACS_COMMON_KEYVAL_HH
#define ACS_COMMON_KEYVAL_HH

#include <map>
#include <string>

namespace acs {

/**
 * An ordered key -> string-value map with typed accessors.
 *
 * Accessors are strict: a missing key or an unparsable value is a
 * fatal (user) error naming the key.
 */
class KeyVal
{
  public:
    KeyVal() = default;

    /** Parse the text format (fatal on malformed lines). */
    static KeyVal parse(const std::string &text);

    /** Serialize back to the text format (keys sorted). */
    std::string serialize() const;

    /** Set a key (any printable value without newlines). */
    void set(const std::string &key, const std::string &value);
    void setDouble(const std::string &key, double value);
    void setInt(const std::string &key, long value);
    void setBool(const std::string &key, bool value);

    /** True when @p key is present. */
    bool has(const std::string &key) const;

    /**
     * Typed getters: fatal when missing or unparsable. Numbers go
     * through parseNumber(): the whole value must parse, fit the type
     * and, for doubles, be finite.
     */
    std::string getString(const std::string &key) const;
    double getDouble(const std::string &key) const;
    long getInt(const std::string &key) const;
    bool getBool(const std::string &key) const;

    /** Typed getters with defaults for absent keys. */
    double getDouble(const std::string &key, double fallback) const;
    long getInt(const std::string &key, long fallback) const;

    /** Number of keys. */
    std::size_t size() const { return values_.size(); }

  private:
    std::map<std::string, std::string> values_;
};

} // namespace acs

#endif // ACS_COMMON_KEYVAL_HH
