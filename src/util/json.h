// Tiny JSON helpers shared by the observability exporters (chrome_trace,
// metrics_registry, manifest) and their consumers (rundiff, tests).
//
// Emission: quote/number formatting plus a whole-file writer. The `_to`
// forms write the same bytes into a caller's buffer without allocating,
// for hot exporters (the Chrome trace writer). Parsing: a
// minimal recursive-descent reader covering exactly the JSON the exporters
// emit (objects, arrays, strings with escapes, numbers, true/false/null),
// used by qa_diff to canonicalize metrics artifacts and by the exporter
// tests to round-trip adversarial names.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace qa {

// `s` as a double-quoted JSON string with the mandatory escapes
// (backslash, quote, control characters).
std::string json_quote(std::string_view s);

// Upper bound on json_quote(s).size(): every byte may become a six-byte
// \u00XX escape, plus the two quotes.
constexpr size_t json_quote_max_size(size_t n) { return 6 * n + 2; }
// Writes json_quote(s) at `out`, which must have json_quote_max_size(
// s.size()) bytes of room; returns the end of what was written.
char* json_quote_to(char* out, std::string_view s);

// `v` as a JSON number token. Non-finite values (which JSON cannot
// represent) become null. A double prints with 12 significant digits
// when that reads back as exactly `v` (the common, human-friendly case),
// else with the 17 that round-trip any double.
std::string json_number(double v);
std::string json_number(int64_t v);
std::string json_number(uint64_t v);

// Room json_number_to needs: the longest double token, "-" + 17 digits
// + "." + "e-308", is 24 bytes.
inline constexpr size_t kJsonNumberMaxSize = 32;
// Writes json_number(v) at `out` (kJsonNumberMaxSize bytes of room);
// returns the end of what was written.
char* json_number_to(char* out, double v);
char* json_number_to(char* out, int64_t v);

// Writes `content` to `path`, throwing std::runtime_error when the file
// cannot be created — the same contract as CsvWriter, so artifact writers
// fail loudly instead of silently dropping a run's output.
void write_text_file(const std::string& path, const std::string& content);

// ---- Parsing ---------------------------------------------------------------

// One parsed JSON value. A plain tagged struct rather than a variant
// hierarchy: consumers walk small documents (a metrics snapshot, one trace
// line) and care about simplicity, not allocation counts. Object members
// keep document order.
struct JsonValue {
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  Type type = Type::kNull;
  bool boolean = false;
  double number = 0;
  std::string str;
  std::vector<JsonValue> array;
  std::vector<std::pair<std::string, JsonValue>> object;

  bool is_object() const { return type == Type::kObject; }
  bool is_number() const { return type == Type::kNumber; }
  // First member with `key`, or nullptr. Linear: exporter objects are
  // small and ordered.
  const JsonValue* find(std::string_view key) const;
};

// Parses one complete JSON document (trailing whitespace allowed, nothing
// else after the value). Returns false and describes the failure —
// including the byte offset — in *error. Escape sequences in strings are
// decoded (\uXXXX to UTF-8, surrogate pairs included), so a parse of
// json_quote(s) round-trips s exactly.
bool json_parse(std::string_view text, JsonValue* out, std::string* error);

}  // namespace qa
