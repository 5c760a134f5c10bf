// Differential pin for the schedule search. Each case runs one tune::tune
// search and hashes everything the search decides: its scored, deduped,
// invalid and generation counters; each seed baseline's family and makespan
// bits; the winner's score and makespan bits, lineage and provenance; and
// the winner's op ids, row by row, in program order. A change to how the
// table answers legality questions, how mutations pick their targets, or
// how the beam dedups and ranks moves at least one hash.
//
// The shapes are priced as perfbench's tune_search prices them (10 elements
// per boundary at 0.1 s/elem, 1:3:2 unit costs). The first rows are
// perfbench's own searches: the Table 2 shapes seeded from helix_naive, two
// generations, patience 0. The last rows seed from every applicable family
// for four generations, so every mutation kind runs, rechunk and
// toggle-recompute included.
//
// The expected values were captured before the table's legality check was
// bounded by a maintained topological order, so a moved hash means a search
// that took a different path. Every run prints each case in kExpected's
// format; a re-capture pastes the lines printed on the parent commit.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "core/cost.h"
#include "sim/sweep.h"
#include "tune/search.h"

namespace helix::tune {
namespace {

struct Fnv {
  std::uint64_t h = 1469598103934665603ull;
  void mix(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 1099511628211ull;
    }
  }
  void mix_signed(std::int64_t v) { mix(static_cast<std::uint64_t>(v)); }
  void mix_double(double v) { mix(std::bit_cast<std::uint64_t>(v)); }
  void mix_string(const std::string& s) {
    mix(s.size());
    for (const char c : s) mix(static_cast<unsigned char>(c));
  }
};

core::PipelineProblem problem(int p, int m, int L) {
  core::PipelineProblem pr;
  pr.p = p;
  pr.m = m;
  pr.L = L;
  pr.comm.boundary = 10;
  pr.comm.pre_to_attn = 10;
  pr.comm.attn_to_post = 10;
  pr.include_lm_head = true;
  pr.act.pre = 2;
  pr.act.attn = 3;
  pr.act.post = 11;
  pr.act.attn_recompute = 2;
  pr.act.post_recompute = 2;
  return pr;
}

core::UnitCostModel priced_cost() {
  core::UnitCostModel::Units u;
  u.pre = 1.0;
  u.attn = 3.0;
  u.post = 2.0;
  u.seconds_per_elem = 0.1;
  return core::UnitCostModel{u};
}

struct Row {
  const char* name;
  int p, m, L;
  bool naive_only;  ///< seed from helix_naive; otherwise every family
  int generations;
};

constexpr Row kRows[] = {
    {"naive/p4_m8_L8", 4, 8, 8, true, 2},
    {"naive/p8_m16_L16", 8, 16, 16, true, 2},
    {"naive/p4_m8_L16", 4, 8, 16, true, 2},
    {"all/p2_m4_L4", 2, 4, 4, false, 4},
    {"all/p4_m8_L8", 4, 8, 8, false, 4},
};

std::uint64_t hash_report(const TuneReport& rep) {
  Fnv f;
  f.mix_signed(rep.candidates_scored);
  f.mix_signed(rep.candidates_deduped);
  f.mix_signed(rep.candidates_invalid);
  f.mix_signed(rep.generations_run);
  f.mix(rep.baselines.size());
  for (const FamilyBaseline& b : rep.baselines) {
    f.mix_string(b.family);
    f.mix_double(b.outcome.makespan);
  }
  f.mix_double(rep.best.score);
  f.mix_double(rep.best.outcome.makespan);
  f.mix_string(rep.best.lineage);
  f.mix_string(rep.best.prov.family);
  f.mix(rep.best.prov.recompute ? 1 : 0);
  f.mix_signed(rep.best.prov.virtual_chunks);
  f.mix_signed(rep.best.prov.lookahead_shift);
  for (const std::vector<core::OpId>& prog : rep.best.schedule.programs) {
    f.mix(prog.size());
    for (const core::OpId id : prog) f.mix_signed(id);
  }
  return f.h;
}

struct Expected {
  const char* name;
  std::uint64_t tune_seed;
  std::uint64_t hash;
};

constexpr Expected kExpected[] = {
    {"naive/p4_m8_L8", 1, 0xd0ab310d32d178daull},
    {"naive/p4_m8_L8", 2, 0x9fb33de1461a5f4bull},
    {"naive/p4_m8_L8", 3, 0xb73745a374570ffeull},
    {"naive/p8_m16_L16", 1, 0x9a1d0249f4a7199aull},
    {"naive/p8_m16_L16", 2, 0xf2c6b0d07e9d6065ull},
    {"naive/p8_m16_L16", 3, 0xc214d898496b46c0ull},
    {"naive/p4_m8_L16", 1, 0xe0f8191dbf7a934aull},
    {"naive/p4_m8_L16", 2, 0xca7c65587d9faf10ull},
    {"naive/p4_m8_L16", 3, 0x1a92ada4079ef9f0ull},
    {"all/p2_m4_L4", 1, 0xa2effc55e113be28ull},
    {"all/p2_m4_L4", 2, 0xde97fe828a62da19ull},
    {"all/p2_m4_L4", 3, 0x2b029805480cbda2ull},
    {"all/p4_m8_L8", 1, 0x43feb7b0b6602dc7ull},
    {"all/p4_m8_L8", 2, 0xbb4c2daacc3a535cull},
    {"all/p4_m8_L8", 3, 0x6cf073725d625718ull},
};

TEST(SearchPin, EverySearchMatchesItsCapture) {
  const core::UnitCostModel cost = priced_cost();
  std::size_t i = 0;
  for (const Row& row : kRows) {
    const core::PipelineProblem pr = problem(row.p, row.m, row.L);
    for (std::uint64_t seed = 1; seed <= 3; ++seed, ++i) {
      TuneOptions opt;
      opt.beam_width = 4;
      opt.generations = row.generations;
      opt.children_per_parent = 6;
      opt.patience = 0;
      opt.seed = seed;
      if (row.naive_only) opt.seed_families = {"helix_naive"};
      sim::Sweep sweep;
      const std::uint64_t h = hash_report(tune(pr, cost, opt, &sweep));
      std::printf("{\"%s\", %llu, 0x%016llxull},\n", row.name,
                  static_cast<unsigned long long>(seed),
                  static_cast<unsigned long long>(h));
      const Expected want =
          i < std::size(kExpected) ? kExpected[i] : Expected{"", 0, 0};
      EXPECT_EQ(std::string(row.name), want.name);
      EXPECT_EQ(seed, want.tune_seed) << row.name;
      EXPECT_EQ(h, want.hash) << row.name << " seed " << seed;
    }
  }
  EXPECT_EQ(i, std::size(kExpected));
}

}  // namespace
}  // namespace helix::tune
