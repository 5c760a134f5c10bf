// Failure injection: corrupt valid schedules in targeted ways and verify the
// validator (and simulator) reject them. A validator that never fails
// proves nothing.
#include <gtest/gtest.h>

#include <string>

#include "core/cost.h"
#include "core/filo.h"
#include "core/validator.h"
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

Op* find_op(Schedule& s, OpKind kind) {
  for (auto& stage : s.stage_ops) {
    for (auto& op : stage) {
      if (op.kind == kind) return &op;
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
  auto& ops = s.stage_ops[0];
  ASSERT_GT(ops.size(), 4u);
  ops[1].deps.push_back(ops[ops.size() - 2].id);
  expect_names(validate_structure(s), "dependency cycle");
  const core::UnitCostModel cost;
  EXPECT_THROW(sim::Simulator(cost).run(s), std::logic_error);
}

TEST(ValidatorNegative, DetectsMissingSemanticOrder) {
  auto s = valid();
  // Drop the dependency of an attention op on its received input: structure
  // stays sound, but the per-micro-batch order is no longer enforced.
  Op* attn = nullptr;
  for (auto& stage : s.stage_ops) {
    for (auto& op : stage) {
      if (op.kind == OpKind::kFwdAttn && !op.deps.empty()) {
        attn = &op;
        break;
      }
    }
    if (attn != nullptr) break;
  }
  ASSERT_NE(attn, nullptr);
  // Re-point the attention at nothing (remove its data dependency) and move
  // it to another micro batch id to break the chain lookup.
  attn->deps.clear();
  attn->mb = static_cast<std::int16_t>(attn->mb == 0 ? 1 : 0);
  expect_names(validate_semantics(s), "FwdAttn(id=");
}

TEST(CoverageNegative, BaselineCoversEverything) {
  auto s = valid();
  const auto r = validate_coverage(s);
  EXPECT_TRUE(r.ok) << (r.errors.empty() ? "" : r.errors.front());
}

TEST(CoverageNegative, DetectsDroppedOp) {
  auto s = valid();
  for (auto& stage : s.stage_ops) {
    for (std::size_t i = 0; i < stage.size(); ++i) {
      if (stage[i].kind == OpKind::kBwdAttn) {
        const std::string layer = std::to_string(stage[i].layer);
        stage.erase(stage.begin() + static_cast<std::ptrdiff_t>(i));
        expect_names(validate_coverage(s), "expected 1x BwdAttn(layer " + layer + "), got 0");
        return;
      }
    }
  }
  FAIL() << "no BwdAttn found";
}

TEST(CoverageNegative, DetectsDuplicatedOp) {
  auto s = valid();
  auto& stage = s.stage_ops[0];
  for (const auto& op : stage) {
    if (op.kind == OpKind::kFwdPost) {
      stage.push_back(op);  // same (mb, layer) executed twice
      break;
    }
  }
  expect_names(validate_coverage(s), "expected 1x FwdPost(layer ");
}

TEST(CoverageNegative, DetectsStrayBackwardW) {
  auto s = valid();
  // A backward-W without a decoupled backward-B is double-counted gradient.
  Op stray;
  stray.id = static_cast<OpId>(s.total_ops());
  stray.kind = OpKind::kBwdWPre;
  stray.stage = 0;
  stray.mb = 0;
  stray.layer = 0;
  s.stage_ops[0].push_back(stray);
  expect_names(validate_coverage(s), "mb 0: expected 0x BwdWPre(layer 0), got 1");
}

TEST(CoverageNegative, DetectsMissingOptimStep) {
  auto s = valid();
  for (auto& stage : s.stage_ops) {
    for (std::size_t i = 0; i < stage.size(); ++i) {
      if (stage[i].kind == OpKind::kOptimStep) {
        stage.erase(stage.begin() + static_cast<std::ptrdiff_t>(i));
        expect_names(validate_coverage(s), "expected exactly 1 OptimStep, got 0");
        return;
      }
    }
  }
  FAIL() << "no OptimStep found";
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
  s.stage_ops[0][0].id = 100000;
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
