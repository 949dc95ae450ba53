// Per-run manifest: the provenance record written next to every artifact
// bundle (trace, metrics snapshot, figure CSVs) so a result can be traced
// back to the exact invocation that produced it — seed, flags, scenario
// parameters, build configuration.
//
// Deliberately minimal: ordered key/value pairs serialized as one flat
// JSON object. Values are preformatted JSON tokens internally; the typed
// setters cover the common cases. Insertion order is preserved (a manifest
// reads top-down like the command line that made it); setting an existing
// key overwrites in place.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace qa {

class RunManifest {
 public:
  void set(std::string_view key, std::string_view value);  // JSON string
  void set_number(std::string_view key, double value);
  void set_int(std::string_view key, int64_t value);

  // Records the full command line under "argv" as a JSON string array.
  void set_args(int argc, char** argv);

  std::string to_json() const;
  // Writes to_json() to `path`; throws std::runtime_error on I/O failure.
  void write_json(const std::string& path) const;

  size_t size() const { return entries_.size(); }

 private:
  // `json` must already be a valid JSON value token.
  void set_raw(std::string_view key, std::string json);

  std::vector<std::pair<std::string, std::string>> entries_;
};

}  // namespace qa
