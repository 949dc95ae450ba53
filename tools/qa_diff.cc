// qa_diff — compare two runs' metrics artifacts under the golden-run
// tolerance rules (util/rundiff.h): counters and histogram counts match
// exactly, everything else within epsilon, wall-clock cost fields ignored.
//
//   qa_diff RUN_A RUN_B [flags]
//
// RUN_A / RUN_B are either run directories (metrics.json is appended) or
// paths to the JSON artifacts themselves. Exit codes: 0 identical under
// the rules, 1 drift (a field-level report goes to stdout), 2 usage or
// I/O error — so CI can distinguish "runs differ" from "couldn't compare".
#include <cstdio>
#include <filesystem>
#include <stdexcept>
#include <string>

#include "util/flags.h"
#include "util/rundiff.h"

using namespace qa;

namespace {

void usage() {
  std::printf(
      "qa_diff RUN_A RUN_B [flags]\n"
      "  RUN_X                  run directory or metrics.json path\n"
      "  --rel-tol X            relative tolerance for non-count fields\n"
      "                         (default 1e-9)\n"
      "  --abs-tol X            absolute tolerance (default 1e-9)\n"
      "  --ignore A,B           extra substrings of field names to skip\n"
      "  --print-digest         also print each run's canonical digest\n");
}

std::string resolve_metrics_path(const std::string& arg) {
  if (std::filesystem::is_directory(arg)) return arg + "/metrics.json";
  return arg;
}

}  // namespace

int main(int argc, char** argv) {
  const Flags flags(argc, argv);
  if (flags.has("help")) {
    usage();
    return 0;
  }

  RunDiffRules rules;
  try {
    rules.rel_tol = flags.get_double("rel-tol", rules.rel_tol);
    rules.abs_tol = flags.get_double("abs-tol", rules.abs_tol);
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "qa_diff: %s\n", e.what());
    return kUsageExitStatus;
  }
  const std::string extra_ignore = flags.get_or("ignore", "");
  size_t start = 0;
  while (start < extra_ignore.size()) {
    const size_t comma = extra_ignore.find(',', start);
    const size_t end = comma == std::string::npos ? extra_ignore.size() : comma;
    if (end > start) {
      rules.ignore_substrings.push_back(extra_ignore.substr(start, end - start));
    }
    start = end + 1;
  }
  const bool print_digest = flags.get_bool("print-digest", false);

  exit_on_unknown_flags(flags, usage);
  const auto& positional = flags.positional();
  if (positional.size() != 2) {
    std::fprintf(stderr, "qa_diff: expected exactly two runs to compare\n");
    usage();
    return kUsageExitStatus;
  }

  RunFields a;
  RunFields b;
  std::string error;
  if (!load_run_fields(resolve_metrics_path(positional[0]), &a, &error) ||
      !load_run_fields(resolve_metrics_path(positional[1]), &b, &error)) {
    std::fprintf(stderr, "qa_diff: %s\n", error.c_str());
    return 2;
  }

  if (print_digest) {
    std::printf("digest A: %016llx\n",
                static_cast<unsigned long long>(canonical_digest(a, rules)));
    std::printf("digest B: %016llx\n",
                static_cast<unsigned long long>(canonical_digest(b, rules)));
  }

  const RunDiffResult result = diff_runs(a, b, rules);
  std::printf("%s", result.report().c_str());
  return result.clean() ? 0 : 1;
}
