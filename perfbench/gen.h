#pragma once

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "common.h"
#include "nn/model.h"

// Seeded workload generators. Every input a run feeds the library — planner
// shapes, tuner jobs, model parameters and token batches — comes from here
// and depends only on the workload seed, never on timing. Draws are
// balanced in blocks (each block holds every model/cluster or shape/seed
// combination once, in seeded order) so a run of any length sees the same
// mix whatever the seed.
namespace perfbench {

// ------------------------------------------------------------ plan_sweep
inline constexpr const char* kPlanModels[] = {"1.3B", "3B", "7B", "13B"};
/// New shapes per model in each block of 10. A query costs about its
/// model's layer count (24, 16, 32, 40), so with equal weights the median
/// query would sit on the edge between the 1.3B and 7B costs and jump
/// between them from run to run; 2:2:3:3 puts it inside the 7B costs.
inline constexpr int kPlanModelWeights[] = {2, 2, 3, 3};
inline constexpr const char* kPlanClusters[] = {"H20", "A800"};
inline constexpr int kPlanPipelines[] = {2, 4, 8};

struct PlanShape {
  int model = 0;    ///< index into kPlanModels
  std::int64_t seq = 0;
  int cluster = 0;  ///< index into kPlanClusters
};

/// One planner query: a shape the planner has not seen, or (every fourth
/// query) a repeat of an earlier shape of the same session. A session is
/// kPlanSessionQueries queries against one sim::Sweep, so what a run keeps
/// in memory does not grow with the number of queries it gets through.
struct PlanQuery {
  bool new_session = false;
  bool repeat = false;
  int shape = 0;  ///< index into PlanStream::shapes()
};
inline constexpr int kPlanSessionQueries = 64;

class PlanStream {
 public:
  explicit PlanStream(std::uint64_t seed);
  PlanQuery next();
  const std::vector<PlanShape>& shapes() const { return shapes_; }
  /// Index of the current session's first shape.
  int session_start() const { return session_start_; }

 private:
  Rng rng_;
  std::vector<PlanShape> shapes_;
  std::vector<PlanShape> block_;  ///< new shapes not yet issued
  std::int64_t issued_ = 0;
  int session_start_ = 0;
};

// ----------------------------------------------------------- tune_search
struct TuneShape {
  int p;
  int L;
};
/// Paper Table 2 shapes, each tuned with m = 2p micro batches.
inline constexpr TuneShape kTuneShapes[] = {{4, 8}, {8, 16}, {4, 16}};
/// The campaign's tune seeds are 1..kTuneSeeds. Search cost varies by
/// +-25% from one tune seed to the next, so a run draws from a fixed
/// campaign and the workload seed orders it; with seeds drawn per run, a
/// 10 s run's ~30 searches would not average that out.
inline constexpr int kTuneSeeds = 8;

struct TuneJob {
  int shape = 0;  ///< index into kTuneShapes
  std::uint64_t tune_seed = 0;
};

/// The campaign (every shape x every tune seed) in seeded order, over and
/// over. It comes in rounds of one tune seed on all three shapes, so any
/// prefix holds each shape equally often, give or take one.
class TuneStream {
 public:
  explicit TuneStream(std::uint64_t seed);
  TuneJob next();

 private:
  Rng rng_;
  std::vector<TuneJob> block_;  ///< jobs not yet issued, last one next
};

// ----------------------------------------------------- train_long/short
struct TrainSetup {
  helix::nn::MiniGptConfig cfg;
  int stages = 2;
  bool async_comm = false;
};

/// Fixed model and pipeline shape of a train workload (throws on others).
TrainSetup train_setup(const std::string& workload);
std::uint64_t param_seed(std::uint64_t seed);
/// Token batch of training step `step` (0-based).
helix::nn::Batch train_batch(const helix::nn::MiniGptConfig& cfg,
                             std::uint64_t seed, std::int64_t step);

/// Print the first generated inputs of `workload` for `seed`: the same seed
/// prints the same bytes.
void dump_inputs(const std::string& workload, std::uint64_t seed, std::ostream& out);

}  // namespace perfbench
