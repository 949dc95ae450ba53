#include "util/json.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <stdexcept>

namespace qa {

char* json_quote_to(char* out, std::string_view s) {
  static constexpr char kHex[] = "0123456789abcdef";
  *out++ = '"';
  for (const char c : s) {
    switch (c) {
      case '"': *out++ = '\\'; *out++ = '"'; break;
      case '\\': *out++ = '\\'; *out++ = '\\'; break;
      case '\n': *out++ = '\\'; *out++ = 'n'; break;
      case '\r': *out++ = '\\'; *out++ = 'r'; break;
      case '\t': *out++ = '\\'; *out++ = 't'; break;
      default: {
        const auto u = static_cast<unsigned char>(c);
        if (u < 0x20) {
          out = std::copy_n("\\u00", 4, out);
          *out++ = kHex[u >> 4];
          *out++ = kHex[u & 0xF];
        } else {
          *out++ = c;
        }
      }
    }
  }
  *out++ = '"';
  return out;
}

std::string json_quote(std::string_view s) {
  std::string out(json_quote_max_size(s.size()), '\0');
  out.resize(static_cast<size_t>(json_quote_to(out.data(), s) - out.data()));
  return out;
}

char* json_number_to(char* out, double v) {
  if (!std::isfinite(v)) return std::copy_n("null", 4, out);
  char* const limit = out + kJsonNumberMaxSize;
  // Integers below 1e12 print as themselves under 12 significant digits;
  // -0.0 keeps its sign through the general path ("-0").
  if (std::fabs(v) < 1e12 && v == std::trunc(v) &&
      !(v == 0 && std::signbit(v))) {
    return std::to_chars(out, limit, static_cast<int64_t>(v)).ptr;
  }
  // to_chars with a precision prints exactly what printf("%.<p>g") does;
  // keep the 12-digit form when it reads back as the same double.
  char* end =
      std::to_chars(out, limit, v, std::chars_format::general, 12).ptr;
  double back = 0;
  const auto parsed = std::from_chars(out, end, back);
  if (parsed.ec == std::errc() && parsed.ptr == end && back == v) return end;
  return std::to_chars(out, limit, v, std::chars_format::general, 17).ptr;
}

char* json_number_to(char* out, int64_t v) {
  return std::to_chars(out, out + kJsonNumberMaxSize, v).ptr;
}

std::string json_number(double v) {
  char buf[kJsonNumberMaxSize];
  return std::string(buf, json_number_to(buf, v));
}

std::string json_number(int64_t v) { return std::to_string(v); }
std::string json_number(uint64_t v) { return std::to_string(v); }

void write_text_file(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) throw std::runtime_error("cannot create file: " + path);
  out << content;
  out.close();
  if (!out) throw std::runtime_error("write failed: " + path);
}

// ---- Parsing ---------------------------------------------------------------

const JsonValue* JsonValue::find(std::string_view key) const {
  for (const auto& [k, v] : object) {
    if (k == key) return &v;
  }
  return nullptr;
}

namespace {

// Recursive-descent parser over a string_view with one-token lookahead
// (the current byte). Depth-limited so corrupt input cannot blow the
// stack.
class JsonParser {
 public:
  explicit JsonParser(std::string_view text) : text_(text) {}

  bool parse(JsonValue* out, std::string* error) {
    skip_ws();
    if (!parse_value(out, 0)) {
      *error = error_ + " at offset " + std::to_string(pos_);
      return false;
    }
    skip_ws();
    if (pos_ != text_.size()) {
      *error = "trailing content at offset " + std::to_string(pos_);
      return false;
    }
    return true;
  }

 private:
  static constexpr int kMaxDepth = 64;

  bool fail(const std::string& why) {
    if (error_.empty()) error_ = why;
    return false;
  }

  void skip_ws() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  bool eof() const { return pos_ >= text_.size(); }
  char peek() const { return text_[pos_]; }

  bool consume_literal(std::string_view lit) {
    if (text_.substr(pos_, lit.size()) != lit) return fail("bad literal");
    pos_ += lit.size();
    return true;
  }

  bool parse_value(JsonValue* out, int depth) {
    if (depth > kMaxDepth) return fail("nesting too deep");
    if (eof()) return fail("unexpected end of input");
    switch (peek()) {
      case '{': return parse_object(out, depth);
      case '[': return parse_array(out, depth);
      case '"':
        out->type = JsonValue::Type::kString;
        return parse_string(&out->str);
      case 't':
        out->type = JsonValue::Type::kBool;
        out->boolean = true;
        return consume_literal("true");
      case 'f':
        out->type = JsonValue::Type::kBool;
        out->boolean = false;
        return consume_literal("false");
      case 'n':
        out->type = JsonValue::Type::kNull;
        return consume_literal("null");
      default: return parse_number(out);
    }
  }

  bool parse_object(JsonValue* out, int depth) {
    out->type = JsonValue::Type::kObject;
    ++pos_;  // '{'
    skip_ws();
    if (!eof() && peek() == '}') {
      ++pos_;
      return true;
    }
    while (true) {
      skip_ws();
      if (eof() || peek() != '"') return fail("expected member key");
      std::string key;
      if (!parse_string(&key)) return false;
      skip_ws();
      if (eof() || peek() != ':') return fail("expected ':'");
      ++pos_;
      skip_ws();
      JsonValue member;
      if (!parse_value(&member, depth + 1)) return false;
      out->object.emplace_back(std::move(key), std::move(member));
      skip_ws();
      if (eof()) return fail("unterminated object");
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      if (peek() == '}') {
        ++pos_;
        return true;
      }
      return fail("expected ',' or '}'");
    }
  }

  bool parse_array(JsonValue* out, int depth) {
    out->type = JsonValue::Type::kArray;
    ++pos_;  // '['
    skip_ws();
    if (!eof() && peek() == ']') {
      ++pos_;
      return true;
    }
    while (true) {
      skip_ws();
      JsonValue element;
      if (!parse_value(&element, depth + 1)) return false;
      out->array.push_back(std::move(element));
      skip_ws();
      if (eof()) return fail("unterminated array");
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      if (peek() == ']') {
        ++pos_;
        return true;
      }
      return fail("expected ',' or ']'");
    }
  }

  static void append_utf8(std::string* out, uint32_t cp) {
    if (cp < 0x80) {
      out->push_back(static_cast<char>(cp));
    } else if (cp < 0x800) {
      out->push_back(static_cast<char>(0xC0 | (cp >> 6)));
      out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    } else if (cp < 0x10000) {
      out->push_back(static_cast<char>(0xE0 | (cp >> 12)));
      out->push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    } else {
      out->push_back(static_cast<char>(0xF0 | (cp >> 18)));
      out->push_back(static_cast<char>(0x80 | ((cp >> 12) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    }
  }

  bool parse_hex4(uint32_t* out) {
    if (pos_ + 4 > text_.size()) return fail("truncated \\u escape");
    uint32_t v = 0;
    for (int i = 0; i < 4; ++i) {
      const char c = text_[pos_ + static_cast<size_t>(i)];
      v <<= 4;
      if (c >= '0' && c <= '9') {
        v |= static_cast<uint32_t>(c - '0');
      } else if (c >= 'a' && c <= 'f') {
        v |= static_cast<uint32_t>(c - 'a' + 10);
      } else if (c >= 'A' && c <= 'F') {
        v |= static_cast<uint32_t>(c - 'A' + 10);
      } else {
        return fail("bad \\u escape digit");
      }
    }
    pos_ += 4;
    *out = v;
    return true;
  }

  bool parse_string(std::string* out) {
    ++pos_;  // opening quote
    out->clear();
    while (true) {
      if (eof()) return fail("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return true;
      if (static_cast<unsigned char>(c) < 0x20) {
        return fail("raw control character in string");
      }
      if (c != '\\') {
        out->push_back(c);
        continue;
      }
      if (eof()) return fail("truncated escape");
      const char esc = text_[pos_++];
      switch (esc) {
        case '"': out->push_back('"'); break;
        case '\\': out->push_back('\\'); break;
        case '/': out->push_back('/'); break;
        case 'b': out->push_back('\b'); break;
        case 'f': out->push_back('\f'); break;
        case 'n': out->push_back('\n'); break;
        case 'r': out->push_back('\r'); break;
        case 't': out->push_back('\t'); break;
        case 'u': {
          uint32_t cp = 0;
          if (!parse_hex4(&cp)) return false;
          if (cp >= 0xD800 && cp <= 0xDBFF) {
            // High surrogate: a low surrogate must follow for a valid
            // astral-plane code point.
            if (text_.substr(pos_, 2) != "\\u") {
              return fail("lone high surrogate");
            }
            pos_ += 2;
            uint32_t lo = 0;
            if (!parse_hex4(&lo)) return false;
            if (lo < 0xDC00 || lo > 0xDFFF) return fail("bad low surrogate");
            cp = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
          } else if (cp >= 0xDC00 && cp <= 0xDFFF) {
            return fail("lone low surrogate");
          }
          append_utf8(out, cp);
          break;
        }
        default: return fail("unknown escape");
      }
    }
  }

  bool parse_number(JsonValue* out) {
    const size_t start = pos_;
    if (!eof() && peek() == '-') ++pos_;
    while (!eof() && ((peek() >= '0' && peek() <= '9') || peek() == '.' ||
                      peek() == 'e' || peek() == 'E' || peek() == '+' ||
                      peek() == '-')) {
      ++pos_;
    }
    if (pos_ == start) return fail("expected value");
    const std::string token(text_.substr(start, pos_ - start));
    char* end = nullptr;
    const double v = std::strtod(token.c_str(), &end);
    if (end == nullptr || *end != '\0' || end == token.c_str()) {
      return fail("malformed number");
    }
    out->type = JsonValue::Type::kNumber;
    out->number = v;
    return true;
  }

  std::string_view text_;
  size_t pos_ = 0;
  std::string error_;
};

}  // namespace

bool json_parse(std::string_view text, JsonValue* out, std::string* error) {
  JsonValue value;
  std::string err;
  if (!JsonParser(text).parse(&value, &err)) {
    if (error != nullptr) *error = err;
    return false;
  }
  *out = std::move(value);
  return true;
}

}  // namespace qa
