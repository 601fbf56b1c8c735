// Minimal JSON emission and inspection for the observability layer.
//
// JsonWriter is a streaming builder (no DOM) used by the metrics snapshot,
// the Chrome trace exporter, and the per-run telemetry stream. Non-finite
// doubles are emitted as the strings "NaN"/"Infinity"/"-Infinity" so every
// produced document stays syntactically valid JSON. JsonSyntaxValid and
// ParseFlatJsonObject are the matching read-side helpers for tools and
// tests; they handle exactly what the writer produces (no external JSON
// dependency anywhere).
#ifndef TAXOREC_COMMON_JSON_H_
#define TAXOREC_COMMON_JSON_H_

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace taxorec {

/// Escapes `s` for inclusion inside a JSON string literal (no quotes added).
std::string JsonEscape(std::string_view s);

/// Streaming JSON builder with automatic comma placement. Structural
/// misuse (value without key inside an object, unbalanced End*) trips a
/// TAXOREC_CHECK. Typical use:
///   JsonWriter w;
///   w.BeginObject().Key("epoch").Int(3).Key("loss").Double(l).EndObject();
///   std::string line = w.TakeString();
class JsonWriter {
 public:
  JsonWriter& BeginObject();
  JsonWriter& EndObject();
  JsonWriter& BeginArray();
  JsonWriter& EndArray();
  JsonWriter& Key(std::string_view key);
  JsonWriter& String(std::string_view value);
  JsonWriter& Double(double value);  // non-finite -> "NaN"/"Infinity"/...
  JsonWriter& Int(int64_t value);
  JsonWriter& Uint(uint64_t value);
  JsonWriter& Bool(bool value);

  /// Finished document; the writer is reset for reuse.
  std::string TakeString();

 private:
  void BeforeValue();

  std::string out_;
  // One entry per open container: true while awaiting its first element.
  std::vector<bool> first_;
  bool after_key_ = false;
};

/// Full-syntax JSON validity check (objects, arrays, strings, numbers,
/// true/false/null, nesting). On failure returns false and, when `error`
/// is non-null, a short description with the byte offset.
bool JsonSyntaxValid(std::string_view json, std::string* error = nullptr);

/// Parses one flat JSON object — string/number/bool/null values only, no
/// nesting — into key -> textual value (strings unescaped and unquoted,
/// numbers/bools/null kept as their literal text). This is the shape of
/// every telemetry JSONL event. Returns false on syntax errors or nested
/// values.
bool ParseFlatJsonObject(std::string_view json,
                         std::map<std::string, std::string>* out,
                         std::string* error = nullptr);

/// Flattens an arbitrary JSON document into dotted-path -> textual value:
/// object members join with '.', array elements use their decimal index
/// ("spmm.t1_seconds", "profile.0.path"). Scalars keep the textual form of
/// ParseFlatJsonObject; empty containers produce no entries. This is how
/// bench_compare addresses metrics inside BENCH_<name>.json. Returns false
/// (and fills `error`) on malformed input.
bool FlattenJson(std::string_view json,
                 std::map<std::string, std::string>* out,
                 std::string* error = nullptr);

}  // namespace taxorec

#endif  // TAXOREC_COMMON_JSON_H_
