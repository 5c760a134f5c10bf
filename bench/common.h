#pragma once

#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "core/filo.h"
#include "json.h"
#include "model/gpu_specs.h"
#include "model/memory.h"
#include "model/paper_cost.h"
#include "model/problem_factory.h"
#include "obs/clock.h"
#include "obs/memory.h"
#include "obs/prof.h"
#include "runtime/trainer.h"
#include "schedules/adapipe.h"
#include "schedules/layerwise.h"
#include "schedules/zb1p.h"
#include "sim/simulator.h"

// Shared experiment driver for the paper-reproduction benches: builds the
// pipeline problem for a (cluster, model, p, s) configuration, generates the
// requested method's schedule, prices it with the hardware timing model and
// simulates one training iteration. Evaluation setup follows Section 5.1:
// micro batch size 1, global batch (= micro batches) 2p, sequence parallel
// size 8 inside each node, one pipeline stage per node.
namespace helix::bench {

using model::i64;

enum class Method { kOneF1B, kZb1p, kAdaPipe, kHelix };

inline const char* to_string(Method m) {
  switch (m) {
    case Method::kOneF1B: return "1F1B";
    case Method::kZb1p: return "ZB1P";
    case Method::kAdaPipe: return "AdaPipe";
    case Method::kHelix: return "HelixPipe";
  }
  return "?";
}

/// Wall-clock stopwatch on obs::now_ns — the same monotonic clock every
/// instrumentation site in the repo uses, so bench timings, prof scopes and
/// trace spans all live on one comparable timeline (no per-bench ad-hoc
/// std::chrono arithmetic).
class Stopwatch {
 public:
  Stopwatch() : start_ns_(obs::now_ns()) {}
  void restart() { start_ns_ = obs::now_ns(); }
  std::int64_t elapsed_ns() const { return obs::now_ns() - start_ns_; }
  double seconds() const { return static_cast<double>(elapsed_ns()) * 1e-9; }

 private:
  std::int64_t start_ns_;
};

inline const std::vector<Method>& all_methods() {
  static const std::vector<Method> m{Method::kOneF1B, Method::kZb1p,
                                     Method::kAdaPipe, Method::kHelix};
  return m;
}

struct ExperimentConfig {
  model::ClusterSpec cluster;
  model::ModelConfig model;
  int p = 8;
  i64 seq = 131072;
  int sp = 8;
  /// HelixPipe variant knobs (ablations flip these).
  bool helix_two_fold = true;
  bool helix_recompute = true;
};

struct ExperimentResult {
  double iteration_seconds = 0;
  double tokens_per_second = 0;
  std::vector<i64> stage_peak_bytes;  ///< per GPU
  i64 max_peak_bytes = 0;
  bool oom = false;
  double bubble_fraction = 0;  ///< mean per-stage idle / makespan
};

inline ExperimentResult run_experiment(Method method, const ExperimentConfig& e) {
  HELIX_PROF_SCOPE("bench.run_experiment");
  const int m = 2 * e.p;  // global batch = 2x pipeline size (Section 5.1)
  model::TrainSetup setup{.seq_len = e.seq,
                          .micro_batch = 1,
                          .pipeline = e.p,
                          .micro_batches = m,
                          .sp = e.sp,
                          .dtype = model::DType::kBF16,
                          .qkv = model::QkvPlacement::kInAttention,
                          .include_lm_head = true};
  const core::PipelineProblem pr = model::make_problem(e.model, setup);
  const model::LayerDims dims{.s = e.seq, .b = 1, .h = e.model.hidden};
  const model::PaperCostModel cost(model::TimingModel(e.cluster, {}, e.sp),
                                   e.model, dims, e.p);

  std::vector<i64> base = method == Method::kHelix
                              ? model::helix_base_memory(e.model, setup)
                              : model::layerwise_base_memory(e.model, setup);

  core::Schedule sched;
  switch (method) {
    case Method::kOneF1B:
      sched = schedules::build_1f1b(pr);
      break;
    case Method::kZb1p:
      sched = schedules::build_zb1p(pr, cost);
      break;
    case Method::kAdaPipe: {
      schedules::AdaPipeOptions opt;
      opt.mem_cap_bytes.assign(static_cast<std::size_t>(e.p),
                               e.cluster.gpu.mem_bytes);
      const i64 per_layer = (12 * e.model.hidden * e.model.hidden + 4 * e.model.hidden) *
                            model::kMixedPrecisionBytesPerParam / e.sp;
      opt.layer_state_bytes = per_layer;
      opt.first_stage_extra_bytes = model::embedding_state_bytes(e.model, e.sp);
      opt.last_stage_extra_bytes = e.model.vocab * e.model.hidden * 4 / e.sp;
      sched = schedules::build_adapipe(pr, cost, opt);
      // Base memory without the uniform layer states (AdaPipe repartitions);
      // approximate with the uniform accounting for the simulator.
      break;
    }
    case Method::kHelix:
      sched = core::build_helix_schedule_tuned(
          pr, {.two_fold = e.helix_two_fold,
               .recompute_without_attention = e.helix_recompute},
          cost);
      break;
  }

  sim::SimResult res;
  {
    HELIX_PROF_SCOPE("bench.simulate");
    res = sim::Simulator(cost).run(sched, base);
  }
  ExperimentResult out;
  out.iteration_seconds = res.makespan;
  out.tokens_per_second = static_cast<double>(m) * static_cast<double>(e.seq) /
                          res.makespan;
  double bubble = 0;
  for (const auto& st : res.stages) {
    out.stage_peak_bytes.push_back(st.peak_memory);
    out.max_peak_bytes = std::max(out.max_peak_bytes, st.peak_memory);
    bubble += st.bubble / res.makespan;
  }
  out.bubble_fraction = bubble / static_cast<double>(res.stages.size());
  out.oom = out.max_peak_bytes > e.cluster.gpu.mem_bytes;
  return out;
}

inline std::string gib(i64 bytes) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.1f", static_cast<double>(bytes) / (1ull << 30));
  return buf;
}

inline std::string seq_label(i64 s) { return std::to_string(s / 1024) + "k"; }

/// Measured allocator stats of one stage of a small numeric (fp32 mini-GPT)
/// run with per-rank memory tracking, next to the closed-form prediction for
/// the same configuration — the measured counterpart of the simulated /
/// theoretical bytes the figure benches print.
struct MeasuredStageMemory {
  i64 peak_allocated = 0;
  i64 peak_reserved = 0;
  double fragmentation = 0;  ///< 1 - allocated/reserved at the peaks
  i64 model_bytes = 0;       ///< runtime::predict_stage_peak_bytes
};

/// Run one instrumented training iteration of the numeric mini-GPT pipeline
/// (one transformer layer per stage, m = 2p micro batches) and return the
/// per-stage measured allocator peaks. Only families the numeric runtime
/// implements are valid (no AdaPipe).
inline std::vector<MeasuredStageMemory> measure_numeric_memory(
    runtime::ScheduleFamily family, int stages,
    bool recompute_without_attention = false) {
  const nn::MiniGptConfig cfg{.layers = stages, .hidden = 32, .heads = 4,
                              .seq = 64, .batch = 1, .vocab = 64,
                              .micro_batches = 2 * stages, .lr = 0.03f};
  const nn::Batch batch = nn::Batch::random(cfg, 11);
  nn::ModelParams params = nn::ModelParams::init(cfg, 3);
  obs::TraceCollector trace(stages);
  trace.enable_memory();
  const runtime::TrainerOptions opt{
      .family = family, .pipeline_stages = stages,
      .recompute_without_attention = recompute_without_attention,
      .trace = &trace};
  runtime::Trainer trainer(params, opt);
  (void)trainer.train_step(batch);
  const std::vector<i64> model = runtime::predict_stage_peak_bytes(cfg, opt);
  std::vector<MeasuredStageMemory> out;
  for (int r = 0; r < stages; ++r) {
    MeasuredStageMemory s;
    if (const obs::MemoryTracker* t = trace.memory(r)) {
      const auto& st = t->allocator().stats();
      s.peak_allocated = st.peak_allocated;
      s.peak_reserved = st.peak_reserved;
      if (st.peak_reserved > 0) {
        s.fragmentation = 1.0 - static_cast<double>(st.peak_allocated) /
                                    static_cast<double>(st.peak_reserved);
      }
    }
    if (r < static_cast<int>(model.size())) {
      s.model_bytes = model[static_cast<std::size_t>(r)];
    }
    out.push_back(s);
  }
  return out;
}

/// Append one stage's measured allocator stats as a JSON object (keep the
/// field vocabulary identical across every bench that emits it).
inline void append_measured_json(JsonWriter& json,
                                 const MeasuredStageMemory& s) {
  json.begin_object()
      .key("peak_allocated").value(s.peak_allocated)
      .key("peak_reserved").value(s.peak_reserved)
      .key("fragmentation").value(s.fragmentation, 4)
      .key("model_bytes").value(s.model_bytes)
      .end_object();
}

}  // namespace helix::bench
