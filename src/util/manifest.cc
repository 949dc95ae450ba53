#include "util/manifest.h"

#include "util/json.h"

namespace qa {

void RunManifest::set_raw(std::string_view key, std::string json) {
  for (auto& [k, v] : entries_) {
    if (k == key) {
      v = std::move(json);
      return;
    }
  }
  entries_.emplace_back(std::string(key), std::move(json));
}

void RunManifest::set(std::string_view key, std::string_view value) {
  set_raw(key, json_quote(value));
}

void RunManifest::set_number(std::string_view key, double value) {
  set_raw(key, json_number(value));
}

void RunManifest::set_int(std::string_view key, int64_t value) {
  set_raw(key, json_number(value));
}

void RunManifest::set_args(int argc, char** argv) {
  std::string arr = "[";
  for (int i = 0; i < argc; ++i) {
    if (i > 0) arr += ", ";
    arr += json_quote(argv[i]);
  }
  arr += "]";
  set_raw("argv", std::move(arr));
}

std::string RunManifest::to_json() const {
  std::string out = "{\n";
  bool first = true;
  for (const auto& [key, json] : entries_) {
    if (!first) out += ",\n";
    first = false;
    out += "  " + json_quote(key) + ": " + json;
  }
  out += "\n}\n";
  return out;
}

void RunManifest::write_json(const std::string& path) const {
  write_text_file(path, to_json());
}

}  // namespace qa
