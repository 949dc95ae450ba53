#include "util/flags.h"

#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>

namespace qa {

Flags::Flags(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      positional_.push_back(std::move(arg));
      continue;
    }
    arg = arg.substr(2);
    const size_t eq = arg.find('=');
    if (eq != std::string::npos) {
      values_[arg.substr(0, eq)] = arg.substr(eq + 1);
      continue;
    }
    // --key value (when the next token is not a flag), else a switch.
    if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      values_[arg] = argv[++i];
    } else {
      values_[arg] = "";
    }
  }
}

bool Flags::has(const std::string& name) const {
  queried_[name] = true;
  queried_["no-" + name] = true;
  return values_.count(name) > 0;
}

std::optional<std::string> Flags::get(const std::string& name) const {
  queried_[name] = true;
  auto it = values_.find(name);
  if (it == values_.end()) return std::nullopt;
  return it->second;
}

std::string Flags::get_or(const std::string& name,
                          const std::string& def) const {
  return get(name).value_or(def);
}

double Flags::get_double(const std::string& name, double def) const {
  const auto v = get(name);
  return v ? parse_number<double>(name, *v) : def;
}

int64_t Flags::get_int(const std::string& name, int64_t def) const {
  const auto v = get(name);
  return v ? parse_number<int64_t>(name, *v) : def;
}

bool Flags::get_bool(const std::string& name, bool def) const {
  queried_[name] = true;
  queried_["no-" + name] = true;
  if (values_.count(name)) {
    const std::string& v = values_.at(name);
    return v.empty() || v == "1" || v == "true" || v == "yes";
  }
  if (values_.count("no-" + name)) return false;
  return def;
}

std::vector<std::string> Flags::unused() const {
  std::vector<std::string> out;
  for (const auto& [name, value] : values_) {
    (void)value;
    if (queried_.count(name) == 0) out.push_back(name);
  }
  return out;
}

void exit_on_unknown_flags(const Flags& flags, void (*usage)()) {
  const auto unused = flags.unused();
  if (unused.empty()) return;
  for (const auto& name : unused) {
    std::fprintf(stderr, "unknown flag --%s\n", name.c_str());
  }
  usage();
  std::exit(kUsageExitStatus);
}

template <typename T>
T parse_number(std::string_view flag, std::string_view text) {
  const auto fail = [&](const char* what) {
    return std::invalid_argument("--" + std::string(flag) + ": " + what +
                                 " '" + std::string(text) + "'");
  };
  T v{};
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, v);
  if (ec == std::errc::result_out_of_range) throw fail("out of range:");
  if (ec != std::errc()) throw fail("not a number:");
  if (ptr != end) throw fail("trailing characters in");
  return v;
}

template double parse_number<double>(std::string_view, std::string_view);
template int parse_number<int>(std::string_view, std::string_view);
template int64_t parse_number<int64_t>(std::string_view, std::string_view);
template uint64_t parse_number<uint64_t>(std::string_view, std::string_view);

std::string invalid_choice(const std::string& flag, const std::string& got,
                           const std::vector<std::string>& valid) {
  std::string msg = "unknown " + flag + " '" + got + "' (valid values: ";
  for (size_t i = 0; i < valid.size(); ++i) {
    if (i > 0) msg += ", ";
    msg += valid[i];
  }
  msg += ")";
  return msg;
}

}  // namespace qa
