#include "obs/json.h"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "common/log.h"

namespace bds {

bool
JsonValue::asBool() const
{
    if (kind_ != Kind::Bool)
        BDS_FATAL("JSON value is not a bool");
    return bool_;
}

double
JsonValue::asNumber() const
{
    if (kind_ != Kind::Number)
        BDS_FATAL("JSON value is not a number");
    return num_;
}

std::uint64_t
JsonValue::asUint() const
{
    double n = asNumber();
    if (n < 0.0 || n != std::floor(n))
        BDS_FATAL("JSON number " << n
                  << " is not a non-negative integer");
    return static_cast<std::uint64_t>(n);
}

const std::string &
JsonValue::asString() const
{
    if (kind_ != Kind::String)
        BDS_FATAL("JSON value is not a string");
    return str_;
}

const std::vector<JsonValue> &
JsonValue::asArray() const
{
    if (kind_ != Kind::Array)
        BDS_FATAL("JSON value is not an array");
    return arr_;
}

const std::map<std::string, JsonValue> &
JsonValue::asObject() const
{
    if (kind_ != Kind::Object)
        BDS_FATAL("JSON value is not an object");
    return obj_;
}

bool
JsonValue::has(const std::string &key) const
{
    return kind_ == Kind::Object && obj_.count(key) != 0;
}

const JsonValue &
JsonValue::at(const std::string &key) const
{
    const auto &obj = asObject();
    auto it = obj.find(key);
    if (it == obj.end())
        BDS_FATAL("JSON object has no member '" << key << "'");
    return it->second;
}

JsonValue
JsonValue::makeNull()
{
    return JsonValue();
}

JsonValue
JsonValue::makeBool(bool b)
{
    JsonValue v;
    v.kind_ = Kind::Bool;
    v.bool_ = b;
    return v;
}

JsonValue
JsonValue::makeNumber(double n)
{
    JsonValue v;
    v.kind_ = Kind::Number;
    v.num_ = n;
    return v;
}

JsonValue
JsonValue::makeString(std::string s)
{
    JsonValue v;
    v.kind_ = Kind::String;
    v.str_ = std::move(s);
    return v;
}

JsonValue
JsonValue::makeArray(std::vector<JsonValue> a)
{
    JsonValue v;
    v.kind_ = Kind::Array;
    v.arr_ = std::move(a);
    return v;
}

JsonValue
JsonValue::makeObject(std::map<std::string, JsonValue> o)
{
    JsonValue v;
    v.kind_ = Kind::Object;
    v.obj_ = std::move(o);
    return v;
}

namespace {

/** Cursor over the input text with fatal-on-error primitives. */
class Parser
{
  public:
    explicit Parser(const std::string &text) : text_(text) {}

    JsonValue
    parseDocument()
    {
        JsonValue v = parseValue();
        skipWs();
        if (pos_ != text_.size())
            fail("trailing characters after JSON document");
        return v;
    }

  private:
    [[noreturn]] void
    fail(const std::string &why) const
    {
        BDS_FATAL("JSON parse error at offset " << pos_ << ": " << why);
    }

    void
    skipWs()
    {
        while (pos_ < text_.size()
               && (text_[pos_] == ' ' || text_[pos_] == '\t'
                   || text_[pos_] == '\n' || text_[pos_] == '\r'))
            ++pos_;
    }

    char
    peek()
    {
        if (pos_ >= text_.size())
            fail("unexpected end of input");
        return text_[pos_];
    }

    void
    expect(char c)
    {
        if (peek() != c)
            fail(std::string("expected '") + c + "', got '" + peek()
                 + "'");
        ++pos_;
    }

    bool
    consumeLiteral(const char *lit)
    {
        std::size_t n = std::string(lit).size();
        if (text_.compare(pos_, n, lit) == 0) {
            pos_ += n;
            return true;
        }
        return false;
    }

    JsonValue
    parseValue()
    {
        skipWs();
        char c = peek();
        switch (c) {
          case '{':
          case '[': {
            // Bounded recursion: a deep run of brackets is a typed
            // error, never a stack overflow.
            if (++depth_ > kMaxJsonDepth)
                fail("nesting deeper than "
                     + std::to_string(kMaxJsonDepth) + " levels");
            JsonValue v = c == '{' ? parseObject() : parseArray();
            --depth_;
            return v;
          }
          case '"': return JsonValue::makeString(parseString());
          case 't':
            if (consumeLiteral("true"))
                return JsonValue::makeBool(true);
            fail("bad literal");
          case 'f':
            if (consumeLiteral("false"))
                return JsonValue::makeBool(false);
            fail("bad literal");
          case 'n':
            if (consumeLiteral("null"))
                return JsonValue::makeNull();
            fail("bad literal");
          default:
            return parseNumber();
        }
    }

    std::string
    parseString()
    {
        expect('"');
        std::string out;
        while (true) {
            if (pos_ >= text_.size())
                fail("unterminated string");
            char c = text_[pos_++];
            if (c == '"')
                return out;
            if (c != '\\') {
                out += c;
                continue;
            }
            if (pos_ >= text_.size())
                fail("unterminated escape");
            char esc = text_[pos_++];
            switch (esc) {
              case '"': out += '"'; break;
              case '\\': out += '\\'; break;
              case '/': out += '/'; break;
              case 'b': out += '\b'; break;
              case 'f': out += '\f'; break;
              case 'n': out += '\n'; break;
              case 'r': out += '\r'; break;
              case 't': out += '\t'; break;
              case 'u': {
                if (pos_ + 4 > text_.size())
                    fail("truncated \\u escape");
                unsigned code = 0;
                for (int i = 0; i < 4; ++i) {
                    char h = text_[pos_++];
                    code <<= 4;
                    if (h >= '0' && h <= '9')
                        code += static_cast<unsigned>(h - '0');
                    else if (h >= 'a' && h <= 'f')
                        code += static_cast<unsigned>(h - 'a' + 10);
                    else if (h >= 'A' && h <= 'F')
                        code += static_cast<unsigned>(h - 'A' + 10);
                    else
                        fail("bad \\u escape digit");
                }
                // Our own writer only escapes ASCII controls, so a
                // plain one-byte decode covers everything we emit.
                if (code > 0x7f)
                    fail("non-ASCII \\u escape unsupported");
                out += static_cast<char>(code);
                break;
              }
              default:
                fail("unknown escape");
            }
        }
    }

    JsonValue
    parseNumber()
    {
        std::size_t start = pos_;
        if (peek() == '-')
            ++pos_;
        while (pos_ < text_.size()
               && (std::isdigit(static_cast<unsigned char>(text_[pos_]))
                   || text_[pos_] == '.' || text_[pos_] == 'e'
                   || text_[pos_] == 'E' || text_[pos_] == '+'
                   || text_[pos_] == '-'))
            ++pos_;
        if (pos_ == start)
            fail("expected a number");
        std::string tok = text_.substr(start, pos_ - start);
        char *end = nullptr;
        double v = std::strtod(tok.c_str(), &end);
        if (end != tok.c_str() + tok.size())
            fail("malformed number '" + tok + "'");
        return JsonValue::makeNumber(v);
    }

    JsonValue
    parseArray()
    {
        expect('[');
        std::vector<JsonValue> out;
        skipWs();
        if (peek() == ']') {
            ++pos_;
            return JsonValue::makeArray(std::move(out));
        }
        while (true) {
            out.push_back(parseValue());
            skipWs();
            char c = peek();
            if (c == ',') {
                ++pos_;
                continue;
            }
            if (c == ']') {
                ++pos_;
                return JsonValue::makeArray(std::move(out));
            }
            fail("expected ',' or ']' in array");
        }
    }

    JsonValue
    parseObject()
    {
        expect('{');
        std::map<std::string, JsonValue> out;
        skipWs();
        if (peek() == '}') {
            ++pos_;
            return JsonValue::makeObject(std::move(out));
        }
        while (true) {
            skipWs();
            std::string key = parseString();
            skipWs();
            expect(':');
            out[key] = parseValue();
            skipWs();
            char c = peek();
            if (c == ',') {
                ++pos_;
                continue;
            }
            if (c == '}') {
                ++pos_;
                return JsonValue::makeObject(std::move(out));
            }
            fail("expected ',' or '}' in object");
        }
    }

    const std::string &text_;
    std::size_t pos_ = 0;
    std::size_t depth_ = 0; ///< open arrays/objects around pos_
};

} // namespace

JsonValue
parseJson(const std::string &text)
{
    Parser p(text);
    return p.parseDocument();
}

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\r': out += "\\r"; break;
          case '\t': out += "\\t"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x",
                              static_cast<unsigned>(
                                  static_cast<unsigned char>(c)));
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

std::string
jsonNumber(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

} // namespace bds
