/**
 * @file
 * Minimal JSON value model and recursive-descent parser for the
 * observability layer: RunManifest round-trips, trace-event
 * validation (src/obs/check.h), and the obs_check tool all read
 * JSON this library wrote itself.
 *
 * Scope is deliberately small — UTF-8 pass-through, no comments, no
 * trailing commas — because every consumer parses documents produced
 * by this codebase. Parse errors are BDS_FATAL: a manifest or trace
 * that does not parse is a user-visible defect, not a recoverable
 * condition.
 */

#ifndef BDS_OBS_JSON_H
#define BDS_OBS_JSON_H

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace bds {

/** One JSON value: null, bool, number, string, array or object. */
class JsonValue
{
  public:
    /** The JSON type tags. */
    enum class Kind { Null, Bool, Number, String, Array, Object };

    JsonValue() = default;

    /** The value's type. */
    Kind kind() const { return kind_; }

    bool isNull() const { return kind_ == Kind::Null; }
    bool isBool() const { return kind_ == Kind::Bool; }
    bool isNumber() const { return kind_ == Kind::Number; }
    bool isString() const { return kind_ == Kind::String; }
    bool isArray() const { return kind_ == Kind::Array; }
    bool isObject() const { return kind_ == Kind::Object; }

    /** The boolean payload; fatal when not a bool. */
    bool asBool() const;

    /** The numeric payload; fatal when not a number. */
    double asNumber() const;

    /** asNumber() rounded and checked to be a non-negative integer. */
    std::uint64_t asUint() const;

    /** The string payload; fatal when not a string. */
    const std::string &asString() const;

    /** The array elements; fatal when not an array. */
    const std::vector<JsonValue> &asArray() const;

    /** The object members (sorted by key); fatal when not an object. */
    const std::map<std::string, JsonValue> &asObject() const;

    /** True when an object has `key`. */
    bool has(const std::string &key) const;

    /** Object member access; fatal when absent or not an object. */
    const JsonValue &at(const std::string &key) const;

    static JsonValue makeNull();
    static JsonValue makeBool(bool b);
    static JsonValue makeNumber(double n);
    static JsonValue makeString(std::string s);
    static JsonValue makeArray(std::vector<JsonValue> a);
    static JsonValue makeObject(std::map<std::string, JsonValue> o);

  private:
    Kind kind_ = Kind::Null;
    bool bool_ = false;
    double num_ = 0.0;
    std::string str_;
    std::vector<JsonValue> arr_;
    std::map<std::string, JsonValue> obj_;
};

/**
 * Deepest array/object nesting parseJson() accepts. Manifests and
 * trace lines nest a few levels; the bound keeps the recursive
 * parser's stack use fixed whatever bytes it is fed.
 */
constexpr std::size_t kMaxJsonDepth = 256;

/**
 * Parse one JSON document from `text`. Trailing non-whitespace after
 * the document is fatal, as is any syntax error or nesting deeper
 * than kMaxJsonDepth.
 */
JsonValue parseJson(const std::string &text);

/** JSON-escape a string (quotes, backslashes, control characters). */
std::string jsonEscape(const std::string &s);

/** Render a double the way the manifest writer does (shortest trip). */
std::string jsonNumber(double v);

} // namespace bds

#endif // BDS_OBS_JSON_H
