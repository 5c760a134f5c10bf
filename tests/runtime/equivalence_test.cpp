// The paper's Section 4.1 semantics-preservation claim, tested numerically:
// every pipeline schedule — 1F1B, GPipe, HelixPipe naive and two-fold, with
// and without recomputation-without-attention and chunked MLP — trains a
// real mini-GPT (threads as pipeline stages, tensors moved only by tagged
// send/recv) to exactly the same losses and parameters as the sequential
// reference. Exact equality holds because all reductions accumulate in
// double and micro-batch gradients are summed in canonical order.
#include <gtest/gtest.h>

#include "core/validator.h"
#include "nn/reference.h"
#include "runtime/trainer.h"

namespace helix::runtime {
namespace {

nn::MiniGptConfig test_config(int layers, int micro_batches) {
  return {.layers = layers, .hidden = 16, .heads = 2, .seq = 8, .batch = 1,
          .vocab = 32, .micro_batches = micro_batches, .lr = 0.05f};
}

struct Case {
  std::string name;
  ScheduleFamily family;
  int p;
  int layers;
  int micro_batches;
  bool recompute;
  int mlp_chunks;
};

class PipelineEquivalence : public ::testing::TestWithParam<Case> {};

TEST_P(PipelineEquivalence, MatchesSequentialReferenceExactly) {
  const Case c = GetParam();
  const nn::MiniGptConfig cfg = test_config(c.layers, c.micro_batches);
  const nn::Batch batch = nn::Batch::random(cfg, 1234);

  nn::ModelParams reference = nn::ModelParams::init(cfg, 42);
  nn::ModelParams piped = nn::ModelParams::init(cfg, 42);
  ASSERT_EQ(reference.max_diff(piped), 0.0);

  Trainer trainer(piped, {.family = c.family,
                          .pipeline_stages = c.p,
                          .recompute_without_attention = c.recompute,
                          .mlp_chunks = c.mlp_chunks});
  // The schedule driving the numerical run is itself semantically valid.
  const auto validation = core::validate_semantics(trainer.schedule());
  for (const auto& e : validation.errors) ADD_FAILURE() << e;

  for (int iter = 0; iter < 3; ++iter) {
    const nn::StepResult ref = nn::reference_train_step(reference, batch, c.mlp_chunks);
    const IterationMetrics got = trainer.train_step(batch);
    ASSERT_EQ(got.micro_batch_losses.size(), ref.micro_batch_losses.size());
    for (std::size_t mb = 0; mb < ref.micro_batch_losses.size(); ++mb) {
      EXPECT_EQ(got.micro_batch_losses[mb], ref.micro_batch_losses[mb])
          << "iter " << iter << " mb " << mb;
    }
    EXPECT_EQ(piped.max_diff(reference), 0.0) << "after iter " << iter;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Schedules, PipelineEquivalence,
    ::testing::Values(
        Case{"sequential_ir", ScheduleFamily::kSequential, 1, 4, 4, false, 1},
        Case{"onef1b_p2", ScheduleFamily::k1F1B, 2, 4, 4, false, 1},
        Case{"onef1b_p4", ScheduleFamily::k1F1B, 4, 8, 8, false, 1},
        Case{"gpipe_p2", ScheduleFamily::kGPipe, 2, 4, 4, false, 1},
        Case{"zb1p_p2", ScheduleFamily::kZb1p, 2, 4, 4, false, 1},
        Case{"zb1p_p4", ScheduleFamily::kZb1p, 4, 8, 8, false, 1},
        Case{"zb1p_chunked", ScheduleFamily::kZb1p, 2, 4, 4, false, 4},
        Case{"interleaved_p2", ScheduleFamily::kInterleaved, 2, 4, 4, false, 1},
        Case{"interleaved_p2_m8", ScheduleFamily::kInterleaved, 2, 8, 8, false, 1},
        // p = 1: both chunks on one stage, handed over without a transfer.
        Case{"interleaved_p1", ScheduleFamily::kInterleaved, 1, 4, 4, false, 1},
        Case{"helix_naive_p2", ScheduleFamily::kHelixNaive, 2, 4, 4, false, 1},
        Case{"helix_naive_p4", ScheduleFamily::kHelixNaive, 4, 8, 4, false, 1},
        Case{"helix_naive_rc", ScheduleFamily::kHelixNaive, 2, 4, 4, true, 1},
        Case{"helix_two_fold_p2", ScheduleFamily::kHelixTwoFold, 2, 4, 4, false, 1},
        Case{"helix_two_fold_p4", ScheduleFamily::kHelixTwoFold, 4, 8, 8, false, 1},
        Case{"helix_two_fold_rc", ScheduleFamily::kHelixTwoFold, 2, 4, 4, true, 1},
        Case{"helix_rc_chunked", ScheduleFamily::kHelixTwoFold, 2, 4, 4, true, 4},
        Case{"helix_two_loops", ScheduleFamily::kHelixTwoFold, 2, 4, 8, true, 1},
        Case{"helix_naive_p4_rc_chunked", ScheduleFamily::kHelixNaive, 4, 8, 8, true, 2}),
    [](const auto& info) { return info.param.name; });

TEST(Trainer, RejectsIndivisibleShapes) {
  const nn::MiniGptConfig cfg = test_config(4, 3);
  nn::ModelParams params = nn::ModelParams::init(cfg, 1);
  EXPECT_THROW(Trainer(params, {.family = ScheduleFamily::kHelixTwoFold,
                                .pipeline_stages = 2}),
               std::invalid_argument);
}

/// The message of the std::invalid_argument `f` throws ("" if none).
template <class F>
std::string invalid_argument_of(F f) {
  try {
    f();
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  return "";
}

struct BadConfig {
  const char* name;
  void (*spoil)(nn::MiniGptConfig&);
  const char* init_names;     ///< ModelParams::init's error must contain this
  const char* trainer_names;  ///< and the Trainer's, for a config spoiled later
};

void PrintTo(const BadConfig& c, std::ostream* os) { *os << c.name; }

class RejectsBadConfig : public ::testing::TestWithParam<BadConfig> {};

TEST_P(RejectsBadConfig, NamingTheField) {
  const BadConfig& c = GetParam();
  nn::MiniGptConfig cfg = test_config(4, 4);
  c.spoil(cfg);
  const std::string init_error =
      invalid_argument_of([&] { (void)nn::ModelParams::init(cfg, 1); });
  EXPECT_NE(init_error.find(c.init_names), std::string::npos) << init_error;
  // A config changed after init reaches the Trainer unchecked by init.
  nn::ModelParams params = nn::ModelParams::init(test_config(4, 4), 1);
  c.spoil(params.cfg);
  const std::string trainer_error = invalid_argument_of([&] {
    Trainer(params, {.family = ScheduleFamily::kHelixTwoFold, .pipeline_stages = 2});
  });
  EXPECT_NE(trainer_error.find(c.trainer_names), std::string::npos)
      << trainer_error;
}

INSTANTIATE_TEST_SUITE_P(
    Fields, RejectsBadConfig,
    ::testing::Values(
        // The schedule builders name layers and micro batches for the Trainer.
        BadConfig{"layers", [](nn::MiniGptConfig& c) { c.layers = 0; },
                  "MiniGptConfig::layers", "layers L=0"},
        BadConfig{"hidden", [](nn::MiniGptConfig& c) { c.hidden = 0; },
                  "MiniGptConfig::hidden", "MiniGptConfig::hidden"},
        BadConfig{"heads_zero", [](nn::MiniGptConfig& c) { c.heads = 0; },
                  "MiniGptConfig::heads", "MiniGptConfig::heads"},
        BadConfig{"heads_negative", [](nn::MiniGptConfig& c) { c.heads = -1; },
                  "MiniGptConfig::heads", "MiniGptConfig::heads"},
        BadConfig{"heads_not_dividing_hidden",
                  [](nn::MiniGptConfig& c) { c.heads = 3; },
                  "must divide MiniGptConfig::hidden", "must divide MiniGptConfig::hidden"},
        BadConfig{"seq", [](nn::MiniGptConfig& c) { c.seq = 0; },
                  "MiniGptConfig::seq", "MiniGptConfig::seq"},
        BadConfig{"batch", [](nn::MiniGptConfig& c) { c.batch = 0; },
                  "MiniGptConfig::batch", "MiniGptConfig::batch"},
        BadConfig{"vocab", [](nn::MiniGptConfig& c) { c.vocab = 0; },
                  "MiniGptConfig::vocab", "MiniGptConfig::vocab"},
        BadConfig{"micro_batches",
                  [](nn::MiniGptConfig& c) { c.micro_batches = 0; },
                  "MiniGptConfig::micro_batches", "micro batches m=0"}),
    [](const auto& info) { return std::string(info.param.name); });

TEST(Trainer, RejectsZeroMlpChunksByName) {
  nn::ModelParams params = nn::ModelParams::init(test_config(4, 4), 1);
  const std::string error = invalid_argument_of([&] {
    Trainer(params, {.family = ScheduleFamily::kHelixTwoFold,
                     .pipeline_stages = 2,
                     .mlp_chunks = 0});
  });
  EXPECT_NE(error.find("TrainerOptions::mlp_chunks"), std::string::npos) << error;
}

TEST(Trainer, RejectsHeadlessInjectedScheduleByName) {
  // The interpreter seeds the backward pass in the LmHeadLoss handler, so a
  // headless schedule is refused at construction, not deep in train_step.
  core::PipelineProblem pr;
  pr.p = 2;
  pr.m = 4;
  pr.L = 4;
  pr.include_lm_head = false;
  const core::Schedule headless = schedules::build_1f1b(pr);
  nn::ModelParams params = nn::ModelParams::init(test_config(4, 4), 1);
  const std::string error = invalid_argument_of([&] {
    Trainer(params, {.family = ScheduleFamily::k1F1B,
                     .pipeline_stages = 2,
                     .schedule = &headless});
  });
  EXPECT_NE(error.find("TrainerOptions::schedule"), std::string::npos) << error;
  EXPECT_NE(error.find("0 LmHeadLoss ops for 4 micro batches"),
            std::string::npos)
      << error;
}

TEST(Trainer, RecomputeRejectedForLayerwise) {
  const nn::MiniGptConfig cfg = test_config(4, 4);
  nn::ModelParams params = nn::ModelParams::init(cfg, 1);
  EXPECT_THROW(Trainer(params, {.family = ScheduleFamily::k1F1B,
                                .pipeline_stages = 2,
                                .recompute_without_attention = true}),
               std::invalid_argument);
}

}  // namespace
}  // namespace helix::runtime
