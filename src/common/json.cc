#include "common/json.h"

#include <cctype>
#include <cmath>
#include <cstdio>

#include "common/check.h"

namespace taxorec {

std::string JsonEscape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (unsigned char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (c < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += static_cast<char>(c);
        }
    }
  }
  return out;
}

void JsonWriter::BeforeValue() {
  if (after_key_) {
    after_key_ = false;
    return;
  }
  if (!first_.empty()) {
    if (!first_.back()) out_ += ',';
    first_.back() = false;
  }
}

JsonWriter& JsonWriter::BeginObject() {
  BeforeValue();
  out_ += '{';
  first_.push_back(true);
  return *this;
}

JsonWriter& JsonWriter::EndObject() {
  TAXOREC_CHECK(!first_.empty() && !after_key_);
  first_.pop_back();
  out_ += '}';
  return *this;
}

JsonWriter& JsonWriter::BeginArray() {
  BeforeValue();
  out_ += '[';
  first_.push_back(true);
  return *this;
}

JsonWriter& JsonWriter::EndArray() {
  TAXOREC_CHECK(!first_.empty() && !after_key_);
  first_.pop_back();
  out_ += ']';
  return *this;
}

JsonWriter& JsonWriter::Key(std::string_view key) {
  TAXOREC_CHECK(!first_.empty() && !after_key_);
  if (!first_.back()) out_ += ',';
  first_.back() = false;
  out_ += '"';
  out_ += JsonEscape(key);
  out_ += "\":";
  after_key_ = true;
  return *this;
}

JsonWriter& JsonWriter::String(std::string_view value) {
  BeforeValue();
  out_ += '"';
  out_ += JsonEscape(value);
  out_ += '"';
  return *this;
}

JsonWriter& JsonWriter::Double(double value) {
  if (!std::isfinite(value)) {
    return String(std::isnan(value) ? "NaN"
                                    : (value > 0 ? "Infinity" : "-Infinity"));
  }
  BeforeValue();
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  out_ += buf;
  return *this;
}

JsonWriter& JsonWriter::Int(int64_t value) {
  BeforeValue();
  out_ += std::to_string(value);
  return *this;
}

JsonWriter& JsonWriter::Uint(uint64_t value) {
  BeforeValue();
  out_ += std::to_string(value);
  return *this;
}

JsonWriter& JsonWriter::Bool(bool value) {
  BeforeValue();
  out_ += value ? "true" : "false";
  return *this;
}

std::string JsonWriter::TakeString() {
  TAXOREC_CHECK_MSG(first_.empty() && !after_key_,
                    "JsonWriter finished with open containers");
  std::string result = std::move(out_);
  out_.clear();
  return result;
}

namespace {

/// Recursive-descent JSON scanner; validates syntax without building a DOM.
class JsonScanner {
 public:
  explicit JsonScanner(std::string_view s) : s_(s) {}

  bool Validate(std::string* error) {
    SkipWs();
    if (!Value()) {
      Fail(error);
      return false;
    }
    SkipWs();
    if (pos_ != s_.size()) {
      msg_ = "trailing data";
      Fail(error);
      return false;
    }
    return true;
  }

  bool String(std::string* out) {
    if (!Consume('"')) return false;
    while (pos_ < s_.size()) {
      const char c = s_[pos_++];
      if (c == '"') return true;
      if (c == '\\') {
        if (pos_ >= s_.size()) return false;
        const char e = s_[pos_++];
        switch (e) {
          case '"':
            if (out) *out += '"';
            break;
          case '\\':
            if (out) *out += '\\';
            break;
          case '/':
            if (out) *out += '/';
            break;
          case 'b':
            if (out) *out += '\b';
            break;
          case 'f':
            if (out) *out += '\f';
            break;
          case 'n':
            if (out) *out += '\n';
            break;
          case 'r':
            if (out) *out += '\r';
            break;
          case 't':
            if (out) *out += '\t';
            break;
          case 'u': {
            if (pos_ + 4 > s_.size()) return false;
            for (int i = 0; i < 4; ++i) {
              if (!std::isxdigit(static_cast<unsigned char>(s_[pos_ + i]))) {
                return false;
              }
            }
            // Escaped control characters round-trip as '?'; the writer only
            // emits \u00xx for controls, which never appear in report keys.
            if (out) *out += '?';
            pos_ += 4;
            break;
          }
          default:
            return false;
        }
      } else if (static_cast<unsigned char>(c) < 0x20) {
        return false;  // raw control character inside a string
      } else if (out) {
        *out += c;
      }
    }
    return false;  // unterminated
  }

  bool Number(std::string* out) {
    const size_t start = pos_;
    if (pos_ < s_.size() && s_[pos_] == '-') ++pos_;
    size_t digits = 0;
    while (pos_ < s_.size() &&
           std::isdigit(static_cast<unsigned char>(s_[pos_]))) {
      ++pos_;
      ++digits;
    }
    if (digits == 0) return false;
    if (pos_ < s_.size() && s_[pos_] == '.') {
      ++pos_;
      if (pos_ >= s_.size() ||
          !std::isdigit(static_cast<unsigned char>(s_[pos_]))) {
        return false;
      }
      while (pos_ < s_.size() &&
             std::isdigit(static_cast<unsigned char>(s_[pos_]))) {
        ++pos_;
      }
    }
    if (pos_ < s_.size() && (s_[pos_] == 'e' || s_[pos_] == 'E')) {
      ++pos_;
      if (pos_ < s_.size() && (s_[pos_] == '+' || s_[pos_] == '-')) ++pos_;
      if (pos_ >= s_.size() ||
          !std::isdigit(static_cast<unsigned char>(s_[pos_]))) {
        return false;
      }
      while (pos_ < s_.size() &&
             std::isdigit(static_cast<unsigned char>(s_[pos_]))) {
        ++pos_;
      }
    }
    if (out) *out = std::string(s_.substr(start, pos_ - start));
    return true;
  }

  bool Literal(std::string_view word, std::string* out) {
    if (s_.substr(pos_, word.size()) != word) return false;
    pos_ += word.size();
    if (out) *out = std::string(word);
    return true;
  }

  /// string | number | true | false | null; no containers. `out` receives
  /// the textual value (strings unescaped).
  bool Scalar(std::string* out) {
    if (pos_ >= s_.size()) return false;
    const char c = s_[pos_];
    if (c == '"') return String(out);
    if (c == '-' || std::isdigit(static_cast<unsigned char>(c))) {
      return Number(out);
    }
    if (c == 't') return Literal("true", out);
    if (c == 'f') return Literal("false", out);
    if (c == 'n') return Literal("null", out);
    return false;
  }

  bool Value() {
    if (pos_ >= s_.size()) return false;
    const char c = s_[pos_];
    if (c == '{') return Object();
    if (c == '[') return Array();
    return Scalar(nullptr);
  }

  bool Object() {
    if (!Consume('{')) return false;
    SkipWs();
    if (Peek('}')) {
      ++pos_;
      return true;
    }
    while (true) {
      SkipWs();
      if (!String(nullptr)) return false;
      SkipWs();
      if (!Consume(':')) return false;
      SkipWs();
      if (!Value()) return false;
      SkipWs();
      if (Peek(',')) {
        ++pos_;
        continue;
      }
      return Consume('}');
    }
  }

  bool Array() {
    if (!Consume('[')) return false;
    SkipWs();
    if (Peek(']')) {
      ++pos_;
      return true;
    }
    while (true) {
      SkipWs();
      if (!Value()) return false;
      SkipWs();
      if (Peek(',')) {
        ++pos_;
        continue;
      }
      return Consume(']');
    }
  }

  /// Value() that also records every scalar under its dotted path.
  bool FlattenValue(const std::string& prefix,
                    std::map<std::string, std::string>* out) {
    SkipWs();
    if (pos_ >= s_.size()) return false;
    const char c = s_[pos_];
    if (c == '{') {
      if (!Consume('{')) return false;
      SkipWs();
      if (Peek('}')) {
        ++pos_;
        return true;
      }
      while (true) {
        SkipWs();
        std::string key;
        if (!String(&key)) return false;
        SkipWs();
        if (!Consume(':')) return false;
        const std::string path = prefix.empty() ? key : prefix + "." + key;
        if (!FlattenValue(path, out)) return false;
        SkipWs();
        if (Peek(',')) {
          ++pos_;
          continue;
        }
        return Consume('}');
      }
    }
    if (c == '[') {
      if (!Consume('[')) return false;
      SkipWs();
      if (Peek(']')) {
        ++pos_;
        return true;
      }
      size_t index = 0;
      while (true) {
        const std::string path = (prefix.empty() ? std::string() : prefix + ".") +
                                 std::to_string(index);
        if (!FlattenValue(path, out)) return false;
        ++index;
        SkipWs();
        if (Peek(',')) {
          ++pos_;
          continue;
        }
        return Consume(']');
      }
    }
    std::string value;
    if (!Scalar(&value)) return false;
    (*out)[prefix] = value;
    return true;
  }

  void SkipWs() {
    while (pos_ < s_.size() &&
           (s_[pos_] == ' ' || s_[pos_] == '\t' || s_[pos_] == '\n' ||
            s_[pos_] == '\r')) {
      ++pos_;
    }
  }
  bool Peek(char c) const { return pos_ < s_.size() && s_[pos_] == c; }
  bool Consume(char c) {
    if (!Peek(c)) return false;
    ++pos_;
    return true;
  }
  void Fail(std::string* error) const {
    if (error != nullptr) {
      *error = (msg_.empty() ? std::string("invalid JSON") : msg_) +
               " at byte " + std::to_string(pos_);
    }
  }

  size_t pos_ = 0;
  std::string_view s_;
  std::string msg_;
};

}  // namespace

bool JsonSyntaxValid(std::string_view json, std::string* error) {
  JsonScanner scanner(json);
  return scanner.Validate(error);
}

bool ParseFlatJsonObject(std::string_view json,
                         std::map<std::string, std::string>* out,
                         std::string* error) {
  out->clear();
  JsonScanner scanner(json);
  const auto fail = [&](const char* what) {
    if (error != nullptr) *error = what;
    return false;
  };
  scanner.SkipWs();
  if (!scanner.Consume('{')) return fail("expected '{'");
  scanner.SkipWs();
  if (scanner.Peek('}')) return true;
  while (true) {
    scanner.SkipWs();
    std::string key, value;
    if (!scanner.String(&key)) return fail("bad key");
    scanner.SkipWs();
    if (!scanner.Consume(':')) return fail("expected ':'");
    scanner.SkipWs();
    if (!scanner.Scalar(&value)) return fail("non-scalar or malformed value");
    (*out)[key] = value;
    scanner.SkipWs();
    if (scanner.Peek(',')) {
      scanner.Consume(',');
      continue;
    }
    if (!scanner.Consume('}')) return fail("expected '}'");
    return true;
  }
}

bool FlattenJson(std::string_view json,
                 std::map<std::string, std::string>* out,
                 std::string* error) {
  out->clear();
  JsonScanner scanner(json);
  if (!scanner.FlattenValue("", out)) {
    scanner.Fail(error);
    return false;
  }
  scanner.SkipWs();
  if (scanner.pos_ != json.size()) {
    if (error != nullptr) *error = "trailing data";
    return false;
  }
  return true;
}

}  // namespace taxorec
