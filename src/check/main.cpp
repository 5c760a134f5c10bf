// helix_check: cross-schedule differential-equivalence sweep.
//
//   helix_check                      # default sweep: 24 seeded configs
//   helix_check --configs=40         # bigger sweep
//   helix_check --seed=7             # different region of the config space
//   helix_check --budget-seconds=30  # stop starting new configs after 30s
//   helix_check --slice              # the short deterministic ctest slice
//   helix_check --list               # print configs without running them
//
// Exit status 0 iff every config trained to bit-identical weights under
// every applicable schedule family (see DESIGN.md "Equivalence contract").
// Bad input (an unknown argument, a number that is not whole or out of its
// flag's range) prints the message and the usage and exits 2.
#include <charconv>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "check/harness.h"

namespace {

/// Upper bounds of the size flags: every config is a training run.
constexpr int kMaxConfigs = 1 << 16;
constexpr int kMaxSteps = 1 << 10;

/// The value of `arg` when it reads `name=value`, else nullptr.
const char* flag_value(const char* arg, const char* name) {
  const std::size_t n = std::strlen(name);
  return std::strncmp(arg, name, n) == 0 && arg[n] == '=' ? arg + n + 1 : nullptr;
}

/// `text` as a whole number in [lo, hi]; otherwise throws
/// std::invalid_argument naming the flag.
template <typename T>
T parse_whole(const char* flag, const char* text, T lo, T hi) {
  T v{};
  const char* end = text + std::strlen(text);
  const auto [ptr, ec] = std::from_chars(text, end, v);
  if (ec != std::errc() || ptr != end || v < lo || v > hi) {
    throw std::invalid_argument(std::string("bad ") + flag + " '" + text +
                                "': expected a whole number in [" +
                                std::to_string(lo) + ", " + std::to_string(hi) + "]");
  }
  return v;
}

}  // namespace

int main(int argc, char** argv) {
  std::uint64_t seed = 2026;
  int count = 24;
  std::int64_t budget_seconds = 0;  // 0 = no budget
  int steps_override = 0;           // 0 = per-config default
  bool slice = false;
  bool list_only = false;
  try {
    for (int i = 1; i < argc; ++i) {
      const char* a = argv[i];
      if (const char* v = flag_value(a, "--seed")) {
        seed = parse_whole("--seed", v, std::uint64_t{0},
                           std::numeric_limits<std::uint64_t>::max());
      } else if (const char* v = flag_value(a, "--configs")) {
        count = parse_whole("--configs", v, 1, kMaxConfigs);
      } else if (const char* v = flag_value(a, "--budget-seconds")) {
        budget_seconds = parse_whole("--budget-seconds", v, std::int64_t{0},
                                     std::numeric_limits<std::int64_t>::max());
      } else if (const char* v = flag_value(a, "--steps")) {
        steps_override = parse_whole("--steps", v, 0, kMaxSteps);
      } else if (std::strcmp(a, "--slice") == 0) {
        slice = true;
      } else if (std::strcmp(a, "--list") == 0) {
        list_only = true;
      } else {
        throw std::invalid_argument(std::string("unknown argument ") + a);
      }
    }
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr,
                 "helix_check: %s\nusage: helix_check [--seed=N] "
                 "[--configs=N] [--steps=K] [--budget-seconds=S] [--slice] "
                 "[--list]\n",
                 e.what());
    return 2;
  }

  std::vector<helix::check::CheckConfig> configs =
      slice ? helix::check::slice_configs()
            : helix::check::generate_configs(seed, count);
  if (steps_override > 0) {
    for (auto& c : configs) c.steps = steps_override;
  }
  if (list_only) {
    for (const auto& c : configs) {
      std::printf("%s\n", c.name().c_str());
    }
    return 0;
  }

  const auto start = std::chrono::steady_clock::now();
  int ran = 0;
  int failed = 0;
  int families = 0;
  for (const auto& c : configs) {
    if (budget_seconds > 0) {
      const auto elapsed = std::chrono::duration_cast<std::chrono::seconds>(
                               std::chrono::steady_clock::now() - start)
                               .count();
      if (elapsed >= budget_seconds) {
        std::printf("time budget reached after %d/%zu configs\n", ran,
                    configs.size());
        break;
      }
    }
    const auto report = helix::check::run_config(c);
    std::printf("%s\n", helix::check::render_report(report).c_str());
    std::fflush(stdout);
    ++ran;
    families += static_cast<int>(report.families.size());
    if (!report.ok()) ++failed;
  }
  std::printf("helix_check: %d configs, %d family runs, %d failed\n", ran,
              families, failed);
  return failed == 0 && ran > 0 ? 0 : 1;
}
