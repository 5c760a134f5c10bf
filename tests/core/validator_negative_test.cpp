// Failure injection: corrupt valid schedules in targeted ways and verify the
// validator (and simulator) reject them. A validator that never fails
// proves nothing.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <string>

#include "core/cost.h"
#include "core/filo.h"
#include "core/validator.h"
#include "obs/prof.h"
#include "schedules/zb1p.h"
#include "sim/simulator.h"

namespace helix::core {
namespace {

PipelineProblem problem() {
  PipelineProblem pr;
  pr.p = 2;
  pr.m = 2;
  pr.L = 4;
  pr.comm.boundary = 1;
  pr.comm.pre_to_attn = 1;
  pr.comm.attn_to_post = 1;
  pr.include_lm_head = false;
  return pr;
}

Schedule valid() {
  return build_helix_schedule(problem(),
                              {.two_fold = false, .recompute_without_attention = false});
}

/// `r` failed, and its first message names what is wrong.
void expect_names(const ValidationResult& r, const std::string& what) {
  ASSERT_FALSE(r.ok);
  EXPECT_NE(r.errors.front().find(what), std::string::npos) << r.errors.front();
}

/// The first op of `kind` in program order, stage by stage.
Op* find_op(Schedule& s, OpKind kind) {
  for (const auto& program : s.programs) {
    for (const OpId id : program) {
      Op& op = s.ops[static_cast<std::size_t>(id)];
      if (op.kind == kind) return &op;
    }
  }
  return nullptr;
}

/// Erase the first op of `kind` from its program; returns its record, or
/// nullptr when there is none.
const Op* erase_from_program(Schedule& s, OpKind kind) {
  for (auto& program : s.programs) {
    for (std::size_t i = 0; i < program.size(); ++i) {
      const Op& op = s.ops[static_cast<std::size_t>(program[i])];
      if (op.kind == kind) {
        program.erase(program.begin() + static_cast<std::ptrdiff_t>(i));
        return &op;
      }
    }
  }
  return nullptr;
}

TEST(ValidatorNegative, BaselineIsValid) {
  auto s = valid();
  EXPECT_TRUE(validate_structure(s).ok);
  EXPECT_TRUE(validate_semantics(s).ok);
}

TEST(ValidatorNegative, DetectsOrphanSend) {
  auto s = valid();
  Op* send = find_op(s, OpKind::kSend);
  ASSERT_NE(send, nullptr);
  send->tag = 999999;  // no matching recv
  expect_names(validate_structure(s), "tag 999999 outside");
}

TEST(ValidatorNegative, DetectsPayloadMismatch) {
  auto s = valid();
  Op* send = find_op(s, OpKind::kSend);
  ASSERT_NE(send, nullptr);
  send->comm_elems += 17;
  expect_names(validate_structure(s), "payload size mismatch Send(id=");
}

TEST(ValidatorNegative, DetectsEmptyPayload) {
  auto s = valid();
  Op* send = find_op(s, OpKind::kSend);
  ASSERT_NE(send, nullptr);
  send->comm_elems = 0;
  expect_names(validate_structure(s), "): empty payload");
}

TEST(ValidatorNegative, DetectsMemoryLeak) {
  auto s = valid();
  Op* fwd = find_op(s, OpKind::kFwdAttn);
  ASSERT_NE(fwd, nullptr);
  fwd->alloc_bytes += 4096;  // allocated but never freed
  expect_names(validate_structure(s),
               "stage " + std::to_string(fwd->stage) + ": unbalanced");
}

TEST(ValidatorNegative, DetectsNegativeMemory) {
  auto s = valid();
  Op* fwd = find_op(s, OpKind::kFwdPre);
  ASSERT_NE(fwd, nullptr);
  fwd->alloc_bytes = -1;
  expect_names(validate_structure(s), "FwdPre(id=" + std::to_string(fwd->id));
}

TEST(ValidatorNegative, DetectsDependencyCycle) {
  auto s = valid();
  // Make an early op depend on a much later one on the same stage: combined
  // with the stream edge this creates a cycle.
  const auto& program = s.programs[0];
  ASSERT_GT(program.size(), 4u);
  s.deps.push_back({program[1], program[program.size() - 2]});
  expect_names(validate_structure(s), "dependency cycle");
  const core::UnitCostModel cost;
  EXPECT_THROW(sim::Simulator(cost).run(s), std::logic_error);
}

TEST(ValidatorNegative, DetectsMissingSemanticOrder) {
  auto s = valid();
  // Drop the dependency of an attention op on its received input: structure
  // stays sound, but the per-micro-batch order is no longer enforced.
  Op* attn = nullptr;
  for (const auto& program : s.programs) {
    for (const OpId id : program) {
      const bool has_deps = std::any_of(s.deps.begin(), s.deps.end(),
                                        [id](const Dep& d) { return d.op == id; });
      if (s.ops[static_cast<std::size_t>(id)].kind == OpKind::kFwdAttn && has_deps) {
        attn = &s.ops[static_cast<std::size_t>(id)];
        break;
      }
    }
    if (attn != nullptr) break;
  }
  ASSERT_NE(attn, nullptr);
  // Re-point the attention at nothing (remove its data dependency) and move
  // it to another micro batch id to break the chain lookup.
  std::erase_if(s.deps, [attn](const Dep& d) { return d.op == attn->id; });
  attn->mb = static_cast<std::int16_t>(attn->mb == 0 ? 1 : 0);
  expect_names(validate_semantics(s), "FwdAttn(id=");
}

// The same fault with the micro batch kept, on the first FwdAttn: the
// duplicate check passes, so the order check must find the edge no short
// path certifies and judge its micro batch by the pass over the topological
// order.
TEST(ValidatorNegative, DetectsMissingOrderFromOnePass) {
  PipelineProblem pr = problem();
  pr.m = 4;  // two-fold needs m % 2p == 0
  auto s = build_helix_schedule(pr, {.two_fold = true, .recompute_without_attention = false});
  const auto attn = std::find_if(s.ops.begin(), s.ops.end(),
                                 [](const Op& op) { return op.kind == OpKind::kFwdAttn; });
  ASSERT_NE(attn, s.ops.end());
  const auto pre = std::find_if(s.ops.begin(), s.ops.end(), [&attn](const Op& op) {
    return op.kind == OpKind::kFwdPre && op.mb == attn->mb && op.layer == attn->layer;
  });
  ASSERT_NE(pre, s.ops.end());
  const OpId id = attn->id;
  std::erase_if(s.deps, [id](const Dep& d) { return d.op == id; });
  obs::prof::Registry reg;
  ValidationResult r;
  {
    obs::prof::AttachGuard guard(reg);
    r = validate_semantics(s);
  }
  ASSERT_FALSE(r.ok);
  EXPECT_EQ(r.errors.front(), "missing ordering: mb " + std::to_string(attn->mb) + ": " +
                                  describe(*pre) + " -> " + describe(*attn));
  EXPECT_GE(reg.report().counter_total("core.validate.order_passes"), 1);
}

// semantic_order_edges reads schedules compile has not checked: a micro
// batch count far beyond the ops' own, or a negative one, sizes nothing.
TEST(ValidatorNegative, OrderEdgesIgnoreAMicroBatchCountOutOfRange) {
  auto s = valid();
  const auto edges = semantic_order_edges(s);
  s.num_micro_batches = std::numeric_limits<int>::max();
  EXPECT_EQ(semantic_order_edges(s), edges);
  s.num_micro_batches = -5;  // no micro batch is in range: OptimStep edges only
  const auto optim_only = semantic_order_edges(s);
  EXPECT_FALSE(optim_only.empty());
  EXPECT_LT(optim_only.size(), edges.size());
}

TEST(CoverageNegative, BaselineCoversEverything) {
  auto s = valid();
  const auto r = validate_coverage(s);
  EXPECT_TRUE(r.ok) << (r.errors.empty() ? "" : r.errors.front());
}

TEST(CoverageNegative, DetectsDroppedOp) {
  auto s = valid();
  const Op* dropped = erase_from_program(s, OpKind::kBwdAttn);
  ASSERT_NE(dropped, nullptr) << "no BwdAttn found";
  expect_names(validate_coverage(s),
               "expected 1x BwdAttn(layer " + std::to_string(dropped->layer) + "), got 0");
}

TEST(CoverageNegative, DetectsDuplicatedOp) {
  auto s = valid();
  auto& program = s.programs[0];
  for (const OpId id : program) {
    if (s.ops[static_cast<std::size_t>(id)].kind == OpKind::kFwdPost) {
      program.push_back(id);  // same (mb, layer) executed twice
      break;
    }
  }
  expect_names(validate_coverage(s), "expected 1x FwdPost(layer ");
}

TEST(CoverageNegative, DetectsStrayBackwardW) {
  auto s = valid();
  // A backward-W without a decoupled backward-B is double-counted gradient.
  Op stray;
  stray.id = static_cast<OpId>(s.ops.size());
  stray.kind = OpKind::kBwdWPre;
  stray.stage = 0;
  stray.mb = 0;
  stray.layer = 0;
  s.ops.push_back(stray);
  s.programs[0].push_back(stray.id);
  expect_names(validate_coverage(s), "mb 0: expected 0x BwdWPre(layer 0), got 1");
}

TEST(CoverageNegative, DetectsMissingOptimStep) {
  auto s = valid();
  ASSERT_NE(erase_from_program(s, OpKind::kOptimStep), nullptr) << "no OptimStep found";
  expect_names(validate_coverage(s), "expected exactly 1 OptimStep, got 0");
}

TEST(CoverageNegative, DetectsMicroBatchOutOfRange) {
  auto s = valid();
  Op* fwd = find_op(s, OpKind::kFwdPre);
  ASSERT_NE(fwd, nullptr);
  fwd->mb = static_cast<std::int16_t>(s.num_micro_batches);
  expect_names(validate_coverage(s), "FwdPre(id=" + std::to_string(fwd->id));
}

TEST(CoverageNegative, Zb1pDecoupledPairingHolds) {
  auto pr = problem();
  pr.include_lm_head = true;
  pr.head_stash_bytes = 4;
  pr.logits_transient_bytes = 8;
  auto s = schedules::build_zb1p(pr, UnitCostModel{});
  const auto r = validate_coverage(s);
  EXPECT_TRUE(r.ok) << (r.errors.empty() ? "" : r.errors.front());
}

TEST(CoverageNegative, DeferredEmbedBwdRequiresDecoupledHead) {
  auto pr = problem();
  pr.include_lm_head = true;
  pr.head_stash_bytes = 4;
  pr.logits_transient_bytes = 8;
  auto s = schedules::build_zb1p(pr, UnitCostModel{});
  // Claim the LM head already combined its backward-W: the deferred second
  // EmbedBwd at layer L-1 now double-counts the head gradient.
  Op* head = find_op(s, OpKind::kLmHeadLoss);
  ASSERT_NE(head, nullptr);
  ASSERT_FALSE(head->combines_w);
  head->combines_w = true;
  expect_names(validate_coverage(s), "expected 0x deferred head backward-W");
}

TEST(ValidatorNegative, SimulatorRejectsNonDenseIds) {
  auto s = valid();
  s.ops[static_cast<std::size_t>(s.programs[0][0])].id = 100000;
  const core::UnitCostModel cost;
  EXPECT_THROW(sim::Simulator(cost).run(s), std::logic_error);
}

// Coverage reads raw stage programs (it does not compile), so a hostile
// OptimStep stage field or shape must be reported, not used as an index.
TEST(ValidatorNegative, OptimStepStageOutOfRangeIsReported) {
  auto s = valid();
  Op* optim = find_op(s, OpKind::kOptimStep);
  ASSERT_NE(optim, nullptr);
  optim->stage = 7;
  const auto cov = validate_coverage(s);
  ASSERT_FALSE(cov.ok);
  EXPECT_NE(cov.errors.front().find("OptimStep(id="), std::string::npos);
  EXPECT_NE(cov.errors.front().find("stage out of range [0, 2)"), std::string::npos)
      << cov.errors.front();
  const auto sem = validate_semantics(s);
  ASSERT_FALSE(sem.ok);
  EXPECT_NE(sem.errors.front().find("sits in stage"), std::string::npos)
      << sem.errors.front();
}

TEST(ValidatorNegative, NegativeShapeIsRejected) {
  for (const bool layers : {false, true}) {
    auto s = valid();
    (layers ? s.num_layers : s.num_micro_batches) = -1;
    EXPECT_FALSE(validate_structure(s).ok);
    EXPECT_FALSE(validate_semantics(s).ok);
    const auto cov = validate_coverage(s);
    ASSERT_FALSE(cov.ok);
    EXPECT_NE(cov.errors.front().find(layers ? "-1 layers" : "-1 micro batches"),
              std::string::npos)
        << cov.errors.front();
    if (layers) {
      EXPECT_THROW(semantic_order_edges(s), std::invalid_argument);
    }
  }
}

// A shape far larger than the schedule is reported before coverage sizes a
// (micro batch, position) table from it.
TEST(ValidatorNegative, ShapeLargerThanTheScheduleIsRejected) {
  auto s = valid();
  s.num_micro_batches = kMaxShape;
  s.num_layers = kMaxShape;
  const auto cov = validate_coverage(s);
  ASSERT_FALSE(cov.ok);
  EXPECT_NE(cov.errors.front().find("ops cannot cover"), std::string::npos)
      << cov.errors.front();
}

}  // namespace
}  // namespace helix::core
