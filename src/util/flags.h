// Minimal command-line flag parsing for the tools and benches.
//
// Supports --key=value and --key value forms plus boolean switches
// (--flag / --no-flag). Unknown flags are collected as errors so tools can
// print usage instead of silently ignoring typos. A number must parse in
// full: get_int/get_double throw std::invalid_argument on "2.7x" rather
// than reading 2.7.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace qa {

class Flags {
 public:
  // Parses argv (skipping argv[0]). Positional arguments (no leading --)
  // are kept in order.
  Flags(int argc, const char* const* argv);

  bool has(const std::string& name) const;
  std::optional<std::string> get(const std::string& name) const;
  std::string get_or(const std::string& name, const std::string& def) const;
  // The flag's value read by parse_number(), or `def` when it is absent.
  double get_double(const std::string& name, double def) const;
  int64_t get_int(const std::string& name, int64_t def) const;
  // True for --name, false for --no-name, `def` otherwise.
  bool get_bool(const std::string& name, bool def) const;

  const std::vector<std::string>& positional() const { return positional_; }

  // Names the caller never queried — typo detection. Call after all gets.
  std::vector<std::string> unused() const;

 private:
  std::map<std::string, std::string> values_;
  mutable std::map<std::string, bool> queried_;
  std::vector<std::string> positional_;
};

// The one strict number reader: all of `text` must be a T (double, int,
// int64_t or uint64_t). Throws std::invalid_argument naming `flag` and the
// text otherwise: "--kmax: trailing characters in '2.7x'".
template <typename T>
T parse_number(std::string_view flag, std::string_view text);

// Every tool exits with this status on a usage error: a flag it does not
// know, a value its reader rejects, or a missing required argument.
inline constexpr int kUsageExitStatus = 2;

// The typo gate every tool runs after its last read: prints "unknown flag
// --NAME" to stderr for each flag nothing read, then `usage()`, and exits
// with kUsageExitStatus. Returns only when every flag was read.
void exit_on_unknown_flags(const Flags& flags, void (*usage)());

// The canonical diagnostic for an enumerated flag set to something outside
// its value set: "unknown --preset 'fig99' (valid values: fig12, fig13)".
// Every tool routes its --preset/--backend rejections through this so the
// message always names the alternatives the user can actually type.
std::string invalid_choice(const std::string& flag, const std::string& got,
                           const std::vector<std::string>& valid);

}  // namespace qa
