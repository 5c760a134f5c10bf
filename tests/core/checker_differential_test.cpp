// Differential pin for the schedule checker. A seeded corpus of registry
// schedules, tuner mutation chains and random corruptions (checker_corpus.h)
// is hashed three times: over every (structure, semantics, coverage)
// verdict, over every core::semantic_order_edges list, and over every error
// message the three validators report, in order. The verdict and edge
// values were captured from the previous checker — an adjacency-list graph
// walked with one BFS per chain edge, beside the tuner's own copy of the
// chain order — and the message value from the checker that walked the
// topological order once per micro batch, so a changed verdict, a reordered
// constraint edge or a changed or reordered message fails here. Every
// corpus schedule that compiles is also checked through validate_semantics'
// compiled-form overload, which must report exactly what the Schedule
// overload does.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "checker_corpus.h"
#include "core/compiled.h"
#include "core/validator.h"

using namespace helix;

namespace {

struct Fnv {
  std::uint64_t h = 1469598103934665603ull;
  void mix(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 1099511628211ull;
    }
  }
  /// One validator's report: its message count, then each message prefixed
  /// with its size.
  void mix(const std::vector<std::string>& errors) {
    mix(errors.size());
    for (const std::string& e : errors) {
      mix(e.size());
      for (const char c : e) {
        h ^= static_cast<unsigned char>(c);
        h *= 1099511628211ull;
      }
    }
  }
};

}  // namespace

TEST(CheckerDifferential, VerdictsAndOrderEdgesMatchPinnedHashes) {
  const corpus::CorpusSpec spec{.stages = {1, 2, 3},
                                 .mb_multiples = {1, 2},
                                 .layer_multiples = {1, 2},
                                 .chain_steps = 2,
                                 .corruptions = 12,
                                 .seed = 20261017};
  Fnv verdicts;
  Fnv edges;
  Fnv messages;
  std::int64_t cases = 0;
  std::int64_t message_count = 0;
  std::int64_t compiled = 0;
  std::int64_t passed[3] = {0, 0, 0};
  const auto t0 = std::chrono::steady_clock::now();
  corpus::for_each_corpus_schedule(spec, [&](const core::Schedule& s) {
    const core::ValidationResult results[3] = {core::validate_structure(s),
                                               core::validate_semantics(s),
                                               core::validate_coverage(s)};
    const core::ValidationResult& semantics = results[1];
    const bool ok[3] = {results[0].ok, semantics.ok, results[2].ok};
    for (const core::ValidationResult& r : results) {
      messages.mix(r.errors);
      message_count += static_cast<std::int64_t>(r.errors.size());
    }
    std::optional<core::CompiledSchedule> cs;
    try {
      cs.emplace(core::CompiledSchedule::build(s));
    } catch (const std::logic_error&) {
    }
    if (cs) {
      const core::ValidationResult via_compiled = core::validate_semantics(*cs);
      EXPECT_EQ(via_compiled.ok, semantics.ok) << s.name;
      EXPECT_EQ(via_compiled.errors, semantics.errors) << s.name;
      ++compiled;
    }
    verdicts.mix((ok[0] ? 1u : 0u) | (ok[1] ? 2u : 0u) | (ok[2] ? 4u : 0u));
    const auto list = core::semantic_order_edges(s);
    edges.mix(list.size());
    for (const auto& [a, b] : list) {
      edges.mix(static_cast<std::uint64_t>(static_cast<std::uint32_t>(a)) << 32 |
                static_cast<std::uint32_t>(b));
    }
    for (int i = 0; i < 3; ++i) passed[i] += ok[i] ? 1 : 0;
    ++cases;
  });
  const double secs =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  std::printf("corpus: %lld cases (%lld compile), passed structure %lld, "
              "semantics %lld, coverage %lld, %.3f s\n",
              static_cast<long long>(cases), static_cast<long long>(compiled),
              static_cast<long long>(passed[0]),
              static_cast<long long>(passed[1]), static_cast<long long>(passed[2]),
              secs);
  std::printf("hashes: verdicts 0x%016llx, edges 0x%016llx, %lld messages 0x%016llx\n",
              static_cast<unsigned long long>(verdicts.h),
              static_cast<unsigned long long>(edges.h),
              static_cast<long long>(message_count),
              static_cast<unsigned long long>(messages.h));

  EXPECT_EQ(cases, 6968);
  EXPECT_EQ(verdicts.h, 0x1f6bbd057704cd44ull);
  EXPECT_EQ(edges.h, 0x86abe6289641be61ull);
  EXPECT_EQ(message_count, 8984);
  EXPECT_EQ(messages.h, 0x14f4df8ea8b198b4ull);
  // The corpus must exercise both sides of every checker, and the compiled
  // overload on schedules it passes and on schedules it fails.
  for (int i = 0; i < 3; ++i) {
    EXPECT_GT(passed[i], cases / 10);
    EXPECT_LT(passed[i], cases);
  }
  EXPECT_GT(compiled, passed[1]);
  EXPECT_LT(compiled, cases);
}
