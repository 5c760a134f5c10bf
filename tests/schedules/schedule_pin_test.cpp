// Differential pin for every schedule builder. Each row of the table builds one
// builder variant over a grid of shapes and hashes every outcome: for a
// built schedule, its name and shape, then every op field and every
// dependency in program order; for a refused shape, the refusal message.
// The rows cover every registry family under the unit cost model and under
// one skewed UnitCostModel, interleaved 1F1B at v = 1..4, ZB1P and ZB2P at
// max_outstanding = 1..3, the helix naive and tuned generators with
// recomputation without attention, and AdaPipe under four memory caps (the
// only builder that emits uneven partitions and full-layer recomputation).
// Activation and payload sizes are distinct nonzero values, so a moved
// memory or payload annotation changes a hash.
//
// The expected values were captured from the builders before the layer-wise
// emitters were merged, so a moved hash means a changed schedule. Every run
// prints each row in kExpected's format, so a re-capture pastes the rows
// printed on the parent commit. A row whose hash moved also prints every
// shape of its grid with that shape's own hash, to diff against the same
// listing from the parent.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <exception>
#include <functional>
#include <string>
#include <vector>

#include "core/cost.h"
#include "core/filo.h"
#include "schedules/adapipe.h"
#include "schedules/interleaved.h"
#include "schedules/registry.h"
#include "schedules/zb1p.h"

namespace helix::schedules {
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
  void mix_string(const std::string& s) {
    mix(s.size());
    for (const char c : s) mix(static_cast<unsigned char>(c));
  }
};

struct Shape {
  int p, m, L;
  bool head;
};

core::PipelineProblem problem(const Shape& s) {
  core::PipelineProblem pr;
  pr.p = s.p;
  pr.m = s.m;
  pr.L = s.L;
  pr.comm = {.boundary = 1009, .pre_to_attn = 2003, .attn_to_post = 3001};
  pr.act = {.pre = 201,
            .attn = 307,
            .post = 1103,
            .attn_recompute = 131,
            .post_recompute = 173,
            .recompute_transient = 1301,
            .full_layer_recompute_stash = 97,
            .w_stash_pre = 191,
            .w_stash_post = 233};
  pr.include_lm_head = s.head;
  pr.logits_transient_bytes = 293;
  pr.head_stash_bytes = 311;
  return pr;
}

constexpr int kMicroBatches[] = {1, 2, 3, 4, 5, 6, 8, 12, 16};

/// p in 1..4, m in kMicroBatches, L = p * {1, 2, 3, 4}, LM head on and off.
std::vector<Shape> main_grid() {
  std::vector<Shape> g;
  for (int p = 1; p <= 4; ++p) {
    for (const int m : kMicroBatches) {
      for (int k = 1; k <= 4; ++k) {
        for (const bool head : {true, false}) g.push_back({p, m, p * k, head});
      }
    }
  }
  return g;
}

/// AdaPipe partitions L >= p layers unevenly, so its grid lists L directly.
std::vector<Shape> adapipe_grid() {
  std::vector<Shape> g;
  for (int p = 1; p <= 4; ++p) {
    for (const int m : kMicroBatches) {
      for (const int L : {1, 2, 3, 4, 5, 7, 8, 12}) {
        for (const bool head : {true, false}) g.push_back({p, m, L, head});
      }
    }
  }
  return g;
}

const core::UnitCostModel kUnit{};
const core::UnitCostModel kSkewed{{.pre = 1.5,
                                   .attn = 4.0,
                                   .post = 2.25,
                                   .embed = 0.5,
                                   .lm_head = 1.25,
                                   .optim = 0.75,
                                   .seconds_per_elem = 0.001,
                                   .transfer_latency = 0.3}};

AdaPipeOptions adapipe_caps(std::vector<std::int64_t> caps) {
  return {.mem_cap_bytes = std::move(caps),
          .layer_state_bytes = 500,
          .first_stage_extra_bytes = 700,
          .last_stage_extra_bytes = 900};
}

std::uint64_t hash_schedule(const core::Schedule& s) {
  Fnv f;
  f.mix_string(s.name);
  f.mix_signed(s.num_stages);
  f.mix_signed(s.num_micro_batches);
  f.mix_signed(s.num_layers);
  const core::DepLists deps = core::pack_deps(s);
  for (const std::vector<core::OpId>& prog : s.programs) {
    f.mix(prog.size());
    for (const core::OpId id : prog) {
      const core::Op& op = s.ops[static_cast<std::size_t>(id)];
      f.mix_signed(op.id);
      f.mix(static_cast<std::uint64_t>(op.kind));
      f.mix_signed(op.stage);
      f.mix_signed(op.mb);
      f.mix_signed(op.layer);
      f.mix_signed(op.peer);
      f.mix_signed(op.tag);
      f.mix(static_cast<std::uint64_t>(op.slot));
      f.mix_signed(op.comm_elems);
      f.mix_signed(op.alloc_bytes);
      f.mix_signed(op.free_bytes);
      f.mix_signed(op.transient_bytes);
      f.mix(op.combines_w ? 1 : 0);
      const auto i = static_cast<std::size_t>(id);
      f.mix(deps.offset[i + 1] - deps.offset[i]);
      for (std::uint32_t e = deps.offset[i]; e < deps.offset[i + 1]; ++e) {
        f.mix_signed(deps.edges[e]);
      }
    }
  }
  return f.h;
}

using Build = std::function<core::Schedule(const core::PipelineProblem&)>;

struct Row {
  std::string name;
  bool adapipe_grid = false;
  Build build;
};

std::vector<Row> rows() {
  std::vector<Row> r;
  for (const FamilySpec& fam : family_registry()) {
    const auto build = fam.build;
    r.push_back({std::string(fam.key) + "/unit", false,
                 [build](const core::PipelineProblem& pr) { return build(pr, kUnit); }});
    r.push_back({std::string(fam.key) + "/skewed", false,
                 [build](const core::PipelineProblem& pr) { return build(pr, kSkewed); }});
  }
  for (int v = 1; v <= 4; ++v) {
    r.push_back({"interleaved/v" + std::to_string(v), false,
                 [v](const core::PipelineProblem& pr) {
                   return build_interleaved_1f1b(pr, {.virtual_chunks = v});
                 }});
  }
  for (int cap = 1; cap <= 3; ++cap) {
    r.push_back({"zb1p/cap" + std::to_string(cap), false,
                 [cap](const core::PipelineProblem& pr) {
                   return build_zb1p(pr, kSkewed, {.max_outstanding = cap});
                 }});
    r.push_back({"zb2p/cap" + std::to_string(cap), false,
                 [cap](const core::PipelineProblem& pr) {
                   return build_zb2p(pr, kSkewed, {.max_outstanding = cap});
                 }});
  }
  r.push_back({"helix_naive_rc", false, [](const core::PipelineProblem& pr) {
                 return core::build_helix_schedule(
                     pr, {.two_fold = false, .recompute_without_attention = true});
               }});
  r.push_back({"helix_tuned_rc", false, [](const core::PipelineProblem& pr) {
                 return core::build_helix_schedule_tuned(
                     pr, {.two_fold = true, .recompute_without_attention = true},
                     kSkewed);
               }});
  const std::vector<std::vector<std::int64_t>> caps = {
      {},                              // no cap: the partition balances time
      {12000, 12000, 12000, 12000},    // loose
      {5000, 7000, 9000, 11000},       // tight on early stages: recomputation
      {800, 800, 800, 800}};           // infeasible: the uniform fallback
  for (std::size_t c = 0; c < caps.size(); ++c) {
    const AdaPipeOptions opt = adapipe_caps(caps[c]);
    r.push_back({"adapipe/cap" + std::to_string(c), true,
                 [opt](const core::PipelineProblem& pr) {
                   return build_adapipe(pr, kSkewed, opt);
                 }});
  }
  return r;
}

struct Outcome {
  std::uint64_t hash;
  bool refused;
};

Outcome run_case(const Build& build, const Shape& s) {
  Fnv f;
  f.mix_signed(s.p);
  f.mix_signed(s.m);
  f.mix_signed(s.L);
  f.mix(s.head ? 1 : 0);
  try {
    f.mix(hash_schedule(build(problem(s))));
    return {f.h, false};
  } catch (const std::exception& e) {
    f.mix_string(std::string("refused: ") + e.what());
    return {f.h, true};
  }
}

struct Expected {
  const char* name;
  int schedules;
  int refused;
  std::uint64_t hash;
};

constexpr Expected kExpected[] = {
    {"1f1b/unit", 288, 0, 0x0e54d7b786377ba2ull},
    {"1f1b/skewed", 288, 0, 0x0e54d7b786377ba2ull},
    {"gpipe/unit", 288, 0, 0x21bb79ab509d0220ull},
    {"gpipe/skewed", 288, 0, 0x21bb79ab509d0220ull},
    {"zb1p/unit", 288, 0, 0xfc4697399c1c6d29ull},
    {"zb1p/skewed", 288, 0, 0x8303fed55a4801c4ull},
    {"zb2p/unit", 288, 0, 0xad5ca8df1f54d5c9ull},
    {"zb2p/skewed", 288, 0, 0xc97759c3e1a88d32ull},
    {"coexec/unit", 288, 0, 0xd3a9d69679957eadull},
    {"coexec/skewed", 288, 0, 0xd3a9d69679957eadull},
    {"interleaved/unit", 288, 200, 0x74b6f3922380a3ddull},
    {"interleaved/skewed", 288, 200, 0x74b6f3922380a3ddull},
    {"helix_naive/unit", 288, 112, 0x327bd0d260a676b4ull},
    {"helix_naive/skewed", 288, 112, 0x327bd0d260a676b4ull},
    {"helix_two_fold/unit", 288, 176, 0x126b542946aa425bull},
    {"helix_two_fold/skewed", 288, 176, 0x126b542946aa425bull},
    {"helix_two_fold_rc/unit", 288, 176, 0x714853d44d257ae0ull},
    {"helix_two_fold_rc/skewed", 288, 176, 0x714853d44d257ae0ull},
    {"helix_tuned/unit", 288, 176, 0xa339cfb4a59c546dull},
    {"helix_tuned/skewed", 288, 176, 0xead65a121f4bfef1ull},
    {"interleaved/v1", 288, 112, 0x6eed2e9db4cbae8cull},
    {"interleaved/v2", 288, 200, 0x74b6f3922380a3ddull},
    {"interleaved/v3", 288, 244, 0x4f5c6ea9e24b96c4ull},
    {"interleaved/v4", 288, 244, 0x7e5a4e2b31c6baf1ull},
    {"zb1p/cap1", 288, 0, 0xf2994a26b606a356ull},
    {"zb2p/cap1", 288, 0, 0x75e7f4356d937542ull},
    {"zb1p/cap2", 288, 0, 0x0b859e503b2f9c7full},
    {"zb2p/cap2", 288, 0, 0x9c13d0b26c418788ull},
    {"zb1p/cap3", 288, 0, 0xbfc50b087df0b75aull},
    {"zb2p/cap3", 288, 0, 0x624a44cd604c7a0aull},
    {"helix_naive_rc", 288, 112, 0xa811c640a2c2f3fbull},
    {"helix_tuned_rc", 288, 176, 0x85015b7bbd201f52ull},
    {"adapipe/cap0", 576, 108, 0x74063b426300b795ull},
    {"adapipe/cap1", 576, 108, 0x5d865e88ab9142beull},
    {"adapipe/cap2", 576, 108, 0xe69d80ade88fc8ecull},
    {"adapipe/cap3", 576, 108, 0xc4baf8939bc43d9bull},
};

TEST(SchedulePin, EveryBuilderOutputMatchesItsCapture) {
  const std::vector<Shape> grid = main_grid();
  const std::vector<Shape> ada = adapipe_grid();
  const std::vector<Row> all = rows();
  EXPECT_EQ(all.size(), std::size(kExpected));
  int total = 0;
  int total_refused = 0;
  for (std::size_t i = 0; i < all.size(); ++i) {
    const Row& row = all[i];
    const Expected want =
        i < std::size(kExpected) ? kExpected[i] : Expected{"", 0, 0, 0};
    const std::vector<Shape>& shapes = row.adapipe_grid ? ada : grid;
    Fnv f;
    int refused = 0;
    std::vector<Outcome> outcomes;
    outcomes.reserve(shapes.size());
    for (const Shape& s : shapes) {
      outcomes.push_back(run_case(row.build, s));
      f.mix(outcomes.back().hash);
      refused += outcomes.back().refused ? 1 : 0;
    }
    const int n = static_cast<int>(shapes.size());
    std::printf("{\"%s\", %d, %d, 0x%016llxull},\n", row.name.c_str(), n,
                refused, static_cast<unsigned long long>(f.h));
    total += n;
    total_refused += refused;
    EXPECT_EQ(row.name, want.name);
    EXPECT_EQ(n, want.schedules) << row.name;
    EXPECT_EQ(refused, want.refused) << row.name;
    EXPECT_EQ(f.h, want.hash) << row.name;
    if (f.h != want.hash) {
      for (std::size_t k = 0; k < shapes.size(); ++k) {
        const Shape& s = shapes[k];
        std::printf("  %s p=%d m=%d L=%d head=%d: 0x%016llx%s\n",
                    row.name.c_str(), s.p, s.m, s.L, s.head ? 1 : 0,
                    static_cast<unsigned long long>(outcomes[k].hash),
                    outcomes[k].refused ? " refused" : "");
      }
    }
  }
  std::printf("schedule pin: %d cases, %d refused\n", total, total_refused);
}

}  // namespace
}  // namespace helix::schedules
