// Every schedule builder must reject an invalid problem shape up front with
// an actionable message (family name, offending value, violated constraint,
// nearest valid choices) instead of failing deep inside planning with an
// opaque logic_error — one test per rejection path.
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "core/cost.h"
#include "core/filo.h"
#include "core/problem_check.h"
#include "schedules/adapipe.h"
#include "schedules/interleaved.h"
#include "schedules/layerwise.h"
#include "schedules/zb1p.h"

namespace helix {
namespace {

core::PipelineProblem problem(int p, int m, int L) {
  core::PipelineProblem pr;
  pr.p = p;
  pr.m = m;
  pr.L = L;
  pr.comm.boundary = 100;
  pr.comm.pre_to_attn = 230;
  pr.comm.attn_to_post = 200;
  pr.act.pre = 2;
  pr.act.attn = 3;
  pr.act.post = 11;
  pr.act.attn_recompute = 2;
  pr.act.post_recompute = 2;
  pr.act.full_layer_recompute_stash = 1;
  pr.act.w_stash_pre = 1;
  pr.act.w_stash_post = 2;
  return pr;
}

/// Runs `fn`, requires it to throw std::invalid_argument, and checks the
/// message carries every fragment in `expect` — the actionable parts.
template <typename Fn>
void expect_rejection(Fn&& fn, std::initializer_list<std::string> expect) {
  try {
    fn();
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    for (const auto& frag : expect) {
      EXPECT_NE(msg.find(frag), std::string::npos)
          << "message \"" << msg << "\" lacks \"" << frag << "\"";
    }
  }
}

TEST(ValidateProblem, RejectsNonPositiveStages) {
  expect_rejection(
      [] {
        core::validate_problem(problem(0, 4, 8),
                               core::layerwise_requirements("1F1B"));
      },
      {"1F1B", "p=0", ">= 1"});
}

TEST(ValidateProblem, RejectsNonPositiveMicroBatches) {
  expect_rejection(
      [] {
        core::validate_problem(problem(4, 0, 8),
                               core::layerwise_requirements("1F1B"));
      },
      {"1F1B", "m=0", ">= 1"});
}

TEST(ValidateProblem, RejectsNonPositiveLayers) {
  expect_rejection(
      [] {
        core::validate_problem(problem(4, 4, 0),
                               core::layerwise_requirements("GPipe"));
      },
      {"GPipe", "L=0", ">= 1"});
}

TEST(ValidateProblem, RejectsShapesBeyondTheIrLimit) {
  // Op::stage, mb and layer are 16-bit. A larger shape must be refused
  // before any builder allocates for it, naming the field.
  const int over = core::kMaxShape + 1;
  const std::string bound = std::to_string(core::kMaxShape);
  expect_rejection(
      [&] {
        core::validate_problem(problem(over, 2, over),
                               core::layerwise_requirements("1F1B"));
      },
      {"1F1B", "stages p=" + std::to_string(over), bound});
  expect_rejection(
      [] {
        core::validate_problem(problem(2, 99999999, 2),
                               core::layerwise_requirements("1F1B"));
      },
      {"1F1B", "micro batches m=99999999", bound});
  expect_rejection(
      [&] {
        core::validate_problem(problem(2, 2, over),
                               core::layerwise_requirements("GPipe"));
      },
      {"GPipe", "layers L=" + std::to_string(over), bound});
  EXPECT_NO_THROW(core::validate_problem(problem(1, core::kMaxShape, 1),
                                         core::layerwise_requirements("1F1B")));
}

TEST(Builders1F1B, RejectIndivisibleLayers) {
  expect_rejection([] { schedules::build_1f1b(problem(4, 4, 10)); },
                   {"1F1B", "L=10", "p=4", "multiple of 4", "4, 8, 12"});
}

TEST(BuildersGPipe, RejectIndivisibleLayers) {
  expect_rejection([] { schedules::build_gpipe(problem(3, 3, 8)); },
                   {"GPipe", "L=8", "p=3", "multiple of 3"});
}

TEST(BuildersZb1p, RejectIndivisibleLayers) {
  expect_rejection(
      [] { schedules::build_zb1p(problem(4, 6, 6), core::UnitCostModel{}); },
      {"ZB1P", "L=6", "p=4", "multiple of 4"});
}

TEST(BuildersZb1p, RejectZeroMicroBatchesBeforePlannerStalls) {
  // Without up-front validation this shape previously span the greedy
  // event loop; now it must fail fast with the offending value.
  expect_rejection(
      [] { schedules::build_zb1p(problem(4, 0, 8), core::UnitCostModel{}); },
      {"ZB1P", "m=0"});
}

TEST(BuildersAdaPipe, RejectFewerLayersThanStages) {
  expect_rejection(
      [] { schedules::build_adapipe(problem(4, 4, 3), core::UnitCostModel{}); },
      {"AdaPipe", "L=3", "L >= p"});
}

TEST(BuildersAdaPipe, AcceptNonUniformLayerCount) {
  // AdaPipe's DP partitions non-uniformly: L % p != 0 is valid as long as
  // L >= p.
  EXPECT_NO_THROW(schedules::build_adapipe(problem(4, 4, 10),
                                           core::UnitCostModel{}));
}

TEST(BuildersInterleaved, RejectLayersNotDivisibleByChunks) {
  expect_rejection(
      [] {
        schedules::build_interleaved_1f1b(problem(2, 4, 6),
                                          {.virtual_chunks = 2});
      },
      {"interleaved-1f1b-v2", "L=6", "virtual chunks", "multiple of 4"});
}

TEST(BuildersInterleaved, RejectMicroBatchesNotDivisibleByStages) {
  expect_rejection(
      [] {
        schedules::build_interleaved_1f1b(problem(2, 3, 8),
                                          {.virtual_chunks = 2});
      },
      {"interleaved-1f1b-v2", "m=3", "rounds of p=2", "valid m: 2, 4, 6"});
}

TEST(BuildersHelixNaive, RejectMicroBatchesNotMultipleOfLoop) {
  expect_rejection(
      [] {
        core::build_helix_schedule(problem(4, 6, 8), {.two_fold = false});
      },
      {"helix-naive", "m=6", "multiple of 4", "FILO loop", "8, 12"});
}

TEST(BuildersHelixTwoFold, RejectMicroBatchesNotMultipleOfTwoLoops) {
  expect_rejection(
      [] { core::build_helix_schedule(problem(4, 4, 8), {.two_fold = true}); },
      {"helix-two-fold", "m=4", "multiple of 8", "valid m: 8, 16"});
}

TEST(BuildersHelixTuned, RejectsSameShapesAsUntuned) {
  expect_rejection(
      [] {
        core::build_helix_schedule_tuned(problem(4, 4, 6), {.two_fold = false},
                                         core::UnitCostModel{});
      },
      {"helix-naive", "L=6", "multiple of 4"});
}

TEST(BuildersHelix, RejectIndivisibleLayers) {
  expect_rejection(
      [] {
        core::build_helix_schedule(problem(4, 8, 9), {.two_fold = false});
      },
      {"helix-naive", "L=9", "p=4", "multiple of 4"});
}

}  // namespace
}  // namespace helix
