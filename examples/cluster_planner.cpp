// Capacity-planning tool: given a model, sequence length and cluster, sweep
// pipeline sizes and EVERY registered schedule family in one batched
// sim::Sweep call, report iteration time / memory / feasibility and recommend
// a configuration. Exercises the planning stack the way a systems engineer
// sizing a training job would: build the full (p, family) grid unfiltered,
// let the sweep service evaluate it in parallel, read the answers in order.
//
//   cluster_planner [model 1.3B|3B|7B|13B] [seq] [cluster H20|A800] [--tune]
//
// Bad input (an unknown model or cluster, a seq that is not a whole
// positive number of tokens) prints the usage with the valid names and
// exits 2.
//
// With --tune, after the hand-built grid the planner runs the schedule
// autotuner (tune::tune, DESIGN §15) once per pipeline size, seeded from
// every applicable family and capped at the cluster's GPU memory. All tuner
// scoring goes through the same sim::Sweep instance as the grid, so the
// closing `Sweep:` line counts the tuner's candidates too. None of them is
// cached: the search scores compiled candidates through
// Sweep::run_schedules, which keeps no memo, and only the grid's family
// items can hit the family-keyed one.
#include <charconv>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "model/gpu_specs.h"
#include "model/model_config.h"
#include "model/paper_cost.h"
#include "model/problem_factory.h"
#include "schedules/registry.h"
#include "sim/sweep.h"
#include "tune/search.h"

using namespace helix;
using model::i64;

namespace {

bool is_helix(const std::string& family) {
  return family.rfind("helix", 0) == 0;
}

/// Largest accepted seq: the attention FLOP counts (~s^2 h) stay inside
/// int64 for every model.
constexpr i64 kMaxSeq = i64{1} << 23;

int usage_error(const std::string& why) {
  std::fprintf(stderr,
               "cluster_planner: %s\n"
               "usage: cluster_planner [model] [seq] [cluster] [--tune]\n"
               "  model    1.3B | 3B | 7B | 13B (default 7B)\n"
               "  seq      tokens per sequence, a whole number in [1, %lld] "
               "(default 131072)\n"
               "  cluster  H20 | A800 (default H20)\n",
               why.c_str(), static_cast<long long>(kMaxSeq));
  return 2;
}

/// `text` as a whole number in [1, kMaxSeq], or nullopt.
std::optional<i64> parse_seq(const std::string& text) {
  i64 v = 0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, v);
  if (ec != std::errc() || ptr != end || v < 1 || v > kMaxSeq) return std::nullopt;
  return v;
}

}  // namespace

int main(int argc, char** argv) {
  bool tune_mode = false;
  std::vector<const char*> pos;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--tune") == 0) {
      tune_mode = true;
    } else {
      pos.push_back(argv[i]);
    }
  }
  if (pos.size() > 3) return usage_error("too many arguments");
  model::ModelConfig mc;
  model::ClusterSpec cluster;
  try {
    mc = model::model_by_name(pos.size() > 0 ? pos[0] : "7B");
    cluster = model::cluster_by_name(pos.size() > 2 ? pos[2] : "H20");
  } catch (const std::invalid_argument& e) {
    return usage_error(e.what());
  }
  const std::string seq_text = pos.size() > 1 ? pos[1] : "131072";
  const std::optional<i64> parsed_seq = parse_seq(seq_text);
  if (!parsed_seq) return usage_error("bad seq '" + seq_text + "'");
  const i64 seq = *parsed_seq;

  std::printf("Planning %s model at %lldk tokens on the %s cluster\n\n",
              mc.name.c_str(), static_cast<long long>(seq / 1024),
              cluster.name.c_str());

  // Build the full grid: every pipeline size x every registered family.
  // Cost models are owned here and must outlive the sweep (items borrow
  // them); one PaperCostModel per pipeline size.
  const auto& families = schedules::family_registry();
  std::vector<std::unique_ptr<model::PaperCostModel>> costs;
  std::vector<sim::SweepItem> items;
  std::vector<int> item_p;  // pipeline size per item, for printing
  struct PlanPoint {       // one per pipeline size, kept for --tune
    int p;
    core::PipelineProblem pr;
    const model::PaperCostModel* cost;
    std::vector<i64> hx_base;
  };
  std::vector<PlanPoint> points;
  for (const int p : {2, 4, 8}) {
    if (mc.num_layers % p != 0) continue;
    const model::TrainSetup setup{.seq_len = seq, .micro_batch = 1, .pipeline = p,
                                  .micro_batches = 2 * p, .sp = 8};
    const auto pr = model::make_problem(mc, setup);
    const model::LayerDims dims{.s = seq, .b = 1, .h = mc.hidden};
    costs.push_back(std::make_unique<model::PaperCostModel>(
        model::TimingModel(cluster, {}, setup.sp), mc, dims, p));
    const model::PaperCostModel* cost = costs.back().get();
    const auto lw_base = model::layerwise_base_memory(mc, setup);
    const auto hx_base = model::helix_base_memory(mc, setup);
    points.push_back({p, pr, cost, hx_base});
    for (const auto& fam : families) {
      items.push_back({fam.key, pr, cost, is_helix(fam.key) ? hx_base : lw_base});
      item_p.push_back(p);
    }
  }

  const auto t0 = std::chrono::steady_clock::now();
  sim::Sweep sweep;
  const std::vector<sim::SweepOutcome> results = sweep.run(items);
  const double sweep_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();

  std::printf("%-4s %-6s %-16s %12s %12s %10s\n", "p", "GPUs", "schedule",
              "iter (s)", "tokens/s", "peak GiB");
  double best_tps = 0;
  std::string best;
  int last_p = 0;
  for (std::size_t i = 0; i < results.size(); ++i) {
    const int p = item_p[i];
    if (p != last_p && last_p != 0) std::printf("\n");
    last_p = p;
    const sim::SweepOutcome& r = results[i];
    if (!r.ok) {
      std::printf("%-4d %-6d %-16s %12s (%s)\n", p, 8 * p,
                  items[i].family.c_str(), "-", r.error.c_str());
      continue;
    }
    const bool oom = r.max_peak_memory > cluster.gpu.mem_bytes;
    const double tps = 2.0 * p * static_cast<double>(seq) / r.makespan;
    std::printf("%-4d %-6d %-16s %12.2f %12.0f %9.1f%s\n", p, 8 * p,
                items[i].family.c_str(), r.makespan, tps,
                static_cast<double>(r.max_peak_memory) / (1ull << 30),
                oom ? " OOM" : "");
    if (!oom && tps > best_tps) {
      best_tps = tps;
      best = items[i].family + " with p=" + std::to_string(p) + " (" +
             std::to_string(8 * p) + " GPUs)";
    }
  }

  if (tune_mode) {
    // Beam-search each pipeline size, seeded from every applicable family
    // and capped at the GPU's memory so the winner is feasible by
    // construction. Helix base memory is the conservative resident-state
    // estimate for mixed-family seeding. Short fixed budget: the planner
    // wants a quick "is there headroom?" answer, not an exhaustive tune.
    std::printf("\nAutotuned (seeded from every applicable family):\n");
    std::printf("%-4s %-6s %12s %12s %10s  %s\n", "p", "GPUs", "iter (s)",
                "tokens/s", "peak GiB", "lineage");
    tune::TuneOptions topt;
    topt.beam_width = 4;
    topt.generations = 10;
    topt.children_per_parent = 6;
    topt.patience = 4;
    topt.memory_cap_bytes = cluster.gpu.mem_bytes;
    for (const PlanPoint& pt : points) {
      const tune::TuneReport rep =
          tune::tune(pt.pr, *pt.cost, topt, &sweep, pt.hx_base);
      if (!rep.best.outcome.ok) {
        std::printf("%-4d %-6d %12s (%s)\n", pt.p, 8 * pt.p, "-",
                    rep.best.outcome.error.c_str());
        continue;
      }
      const bool oom = rep.best.outcome.max_peak_memory > cluster.gpu.mem_bytes;
      const double tps =
          2.0 * pt.p * static_cast<double>(seq) / rep.best.outcome.makespan;
      std::printf("%-4d %-6d %12.2f %12.0f %9.1f%s  %s\n", pt.p, 8 * pt.p,
                  rep.best.outcome.makespan, tps,
                  static_cast<double>(rep.best.outcome.max_peak_memory) /
                      (1ull << 30),
                  oom ? " OOM" : "", rep.best.lineage.c_str());
      if (!oom && tps > best_tps) {
        best_tps = tps;
        best = "tuned " + rep.best.lineage + " with p=" + std::to_string(pt.p) +
               " (" + std::to_string(8 * pt.p) + " GPUs)";
      }
    }
  }

  const sim::SweepStats st = sweep.stats();
  std::printf("\nRecommendation: %s — %.0f tokens/s.\n", best.c_str(), best_tps);
  std::printf("(Throughput is per iteration of 2p micro batches; per-GPU\n"
              "efficiency favours smaller p, wall-clock favours larger.)\n");
  std::printf(
      "\nSweep: %lld configs (%lld simulated, %lld cached, %lld inapplicable) "
      "in %.3f s — %.0f configs/s.\n",
      static_cast<long long>(st.items), static_cast<long long>(st.evaluated),
      static_cast<long long>(st.cache_hits), static_cast<long long>(st.failed),
      sweep_s, static_cast<double>(st.items) / sweep_s);
  return 0;
}
