// Self-performance baselines: how fast is the *infrastructure* itself —
// schedule construction, simulation + critical-path analysis, the tensor
// kernels, and k steps of numerical pipeline training — across a fixed
// configuration grid. Emits BENCH_selfperf.json (schema below) whose stable
// metric keys let tools/perf_compare diff two runs and flag regressions; the
// committed baseline at the repo root is the reference point CI compares
// against.
//
//   bench_selfperf [--quick] [--json FILE]
//     --quick   smaller grid + fewer reps (the CI configuration)
//     --json    output path (default BENCH_selfperf.json)
//
// Measurement discipline: every metric runs `warmup` throwaway iterations,
// then `reps` timed ones, and reports the trimmed mean (drop min and max)
// plus the min/max themselves so perf_compare can judge noise. The profiling
// registry (obs/prof.h) is attached for the whole run with one phase per
// section, and its per-phase report is embedded in the JSON — including the
// "sim.mem_events.reallocs" counter, which this bench asserts is zero (the
// simulator reserves its memory-event vectors exactly; a nonzero count is a
// regression and exits 1).
//
// JSON schema (schema_version 1):
//   { "schema_version": 1, "bench": "selfperf", "mode": "quick"|"full",
//     "metrics": [ {"key", "unit", "reps", "trimmed_mean_s", "min_s",
//                   "max_s"} ],
//     "counters": [ {"key", "value"} ],
//     "prof": [ {"phase", "site", "kind", "count", "total_ns", "max_ns",
//                "value"} ] }
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <memory>
#include <numeric>
#include <string>
#include <vector>

#include "common.h"
#include "core/compiled.h"
#include "core/validator.h"
#include "json.h"
#include "model/gpu_specs.h"
#include "model/model_config.h"
#include "model/paper_cost.h"
#include "model/problem_factory.h"
#include "nn/model.h"
#include "obs/health.h"
#include "obs/prof.h"
#include "par/thread_pool.h"
#include "runtime/trainer.h"
#include "schedules/registry.h"
#include "sim/critical_path.h"
#include "sim/simulator.h"
#include "sim/sweep.h"
#include "tensor/ops.h"
#include "tune/mutate.h"
#include "tune/search.h"
#include "tune/table.h"

using namespace helix;

namespace {

struct Metric {
  std::string key;
  int reps = 0;
  double trimmed_mean_s = 0;
  double min_s = 0;
  double max_s = 0;
};

struct Harness {
  bool quick = false;
  std::vector<Metric> metrics;

  /// Time `fn` warmup+reps times; record the trimmed mean under `key`.
  void measure(const std::string& key, const std::function<void()>& fn) {
    const int warmup = 2;
    const int reps = quick ? 5 : 9;
    for (int i = 0; i < warmup; ++i) fn();
    std::vector<double> samples;
    samples.reserve(static_cast<std::size_t>(reps));
    for (int i = 0; i < reps; ++i) {
      bench::Stopwatch sw;
      fn();
      samples.push_back(sw.seconds());
    }
    std::sort(samples.begin(), samples.end());
    Metric m;
    m.key = key;
    m.reps = reps;
    m.min_s = samples.front();
    m.max_s = samples.back();
    // Trimmed mean: drop the extremes when there are enough samples.
    const std::size_t lo = samples.size() >= 3 ? 1 : 0;
    const std::size_t hi = samples.size() >= 3 ? samples.size() - 1 : samples.size();
    m.trimmed_mean_s =
        std::accumulate(samples.begin() + static_cast<std::ptrdiff_t>(lo),
                        samples.begin() + static_cast<std::ptrdiff_t>(hi), 0.0) /
        static_cast<double>(hi - lo);
    std::printf("  %-40s %10.3f ms  (min %.3f, max %.3f, n=%d)\n", key.c_str(),
                1e3 * m.trimmed_mean_s, 1e3 * m.min_s, 1e3 * m.max_s, reps);
    metrics.push_back(std::move(m));
  }
};

core::PipelineProblem grid_problem(int p) {
  core::PipelineProblem pr;
  pr.p = p;
  pr.m = 2 * p;  // two-fold requires m % 2p == 0; 1F1B warmup fills at m=2p
  pr.L = 4 * p;  // interleaved (v=2) requires L % (v*p) == 0
  pr.comm.boundary = 1;
  pr.comm.pre_to_attn = 1;
  pr.comm.attn_to_post = 1;
  pr.include_lm_head = false;
  // Table 1 activation ratios so the simulator's memory timeline actually
  // runs — the realloc canary is vacuous on a schedule with no mem events.
  pr.act.pre = 2;
  pr.act.attn = 3;
  pr.act.post = 11;
  pr.act.attn_recompute = 2;
  pr.act.post_recompute = 2;
  return pr;
}

std::string grid_key(const char* section, const char* family,
                     const core::PipelineProblem& pr) {
  char buf[128];
  std::snprintf(buf, sizeof(buf), "%s/%s/p%d_m%d_L%d", section, family, pr.p,
                pr.m, pr.L);
  return buf;
}

void bench_build(Harness& h, obs::prof::Registry& reg,
                 const std::vector<int>& pipeline_sizes) {
  reg.set_phase("build");
  std::printf("schedule construction\n");
  core::UnitCostModel::Units u;
  u.seconds_per_elem = 0.1;
  const core::UnitCostModel cost{u};
  for (const int p : pipeline_sizes) {
    const core::PipelineProblem pr = grid_problem(p);
    for (const schedules::FamilySpec& f : schedules::family_registry()) {
      h.measure(grid_key("build", f.key, pr), [&] {
        const core::Schedule s = f.build(pr, cost);
        if (s.num_stages != pr.p) std::abort();  // keep the result observable
      });
    }
  }
}

void bench_simulate(Harness& h, obs::prof::Registry& reg,
                    const std::vector<int>& pipeline_sizes) {
  reg.set_phase("simulate");
  std::printf("simulation + critical path\n");
  core::UnitCostModel::Units u;
  u.seconds_per_elem = 0.1;
  const core::UnitCostModel cost{u};
  for (const int p : pipeline_sizes) {
    const core::PipelineProblem pr = grid_problem(p);
    for (const schedules::FamilySpec& f : schedules::family_registry()) {
      // Compile once outside the timed region: the `sim/` keys measure the
      // steady-state relaxation a sweep pays per configuration, with the
      // workspace reused across reps (zero allocation after the first run —
      // the sim.workspace.reallocs canary enforces it).
      const core::CompiledSchedule cs = core::CompiledSchedule::build(f.build(pr, cost));
      const sim::Simulator simulator(cost);
      sim::SimWorkspace ws;
      h.measure(grid_key("sim", f.key, pr), [&] {
        const sim::SimResult& r = simulator.run(cs, ws);
        if (r.makespan <= 0) std::abort();
      });
      const sim::SimResult res = simulator.run(cs, ws);
      h.measure(grid_key("critical_path", f.key, pr), [&] {
        const sim::CriticalPathReport r = sim::critical_path(cs, res);
        if (r.chain.empty()) std::abort();
      });
    }
  }
}

// The sweep service vs the loop it replaces: build + simulate every
// (family, p) configuration, serially from scratch ("naive" — what
// cluster_planner did before) against one persistent Sweep whose memo cache
// is warm after the first rep ("batched"). The headline ratio is printed and
// enforced in main().
void bench_sweep(Harness& h, obs::prof::Registry& reg,
                 const std::vector<int>& pipeline_sizes, double* naive_s,
                 double* batched_s) {
  reg.set_phase("sweep");
  std::printf("capacity sweeps (naive per-config loop vs sweep service)\n");
  core::UnitCostModel::Units u;
  u.seconds_per_elem = 0.1;
  const core::UnitCostModel cost{u};
  *naive_s = 0;
  *batched_s = 0;
  for (const int p : pipeline_sizes) {
    const core::PipelineProblem pr = grid_problem(p);
    std::vector<sim::SweepItem> items;
    for (const schedules::FamilySpec& f : schedules::family_registry()) {
      items.push_back({f.key, pr, &cost, {}});
    }
    h.measure(grid_key("sweep", "naive", pr), [&] {
      double acc = 0;
      for (const sim::SweepItem& it : items) {
        const schedules::FamilySpec* f = schedules::find_family(it.family);
        const core::Schedule s = f->build(it.problem, *it.cost);
        acc += sim::Simulator(*it.cost).run(s).makespan;
      }
      if (acc <= 0) std::abort();
    });
    *naive_s += h.metrics.back().trimmed_mean_s;
    sim::Sweep sweep;  // persistent across reps: warm-cache steady state
    h.measure(grid_key("sweep", "batched", pr), [&] {
      const auto results = sweep.run(items);
      if (results.size() != items.size()) std::abort();
    });
    *batched_s += h.metrics.back().trimmed_mean_s;
  }
  if (*batched_s > 0) {
    std::printf("  -> batched sweep speedup over naive loop: %.1fx\n",
                *naive_s / *batched_s);
  }
}

// A cold capacity-planner query priced with PaperCostModel, as
// cluster_planner runs it: 7B at 128k tokens on H20, p in {2, 4, 8} x every
// family, with a fresh Sweep (cold memo) per rep. Its counters land under
// their own phase so the UnitCostModel sweep/ counters above keep their
// values.
void bench_paper_sweep(Harness& h, obs::prof::Registry& reg) {
  reg.set_phase("sweep/paper_cold");
  const model::ModelConfig mc = model::gpt_7b();
  const model::ClusterSpec cluster = model::h20_cluster();
  const model::i64 seq = 128 * 1024;
  std::vector<std::unique_ptr<model::PaperCostModel>> costs;
  std::vector<sim::SweepItem> items;
  for (const int p : {2, 4, 8}) {
    const model::TrainSetup setup{.seq_len = seq, .micro_batch = 1, .pipeline = p,
                                  .micro_batches = 2 * p, .sp = 8};
    const core::PipelineProblem pr = model::make_problem(mc, setup);
    costs.push_back(std::make_unique<model::PaperCostModel>(
        model::TimingModel(cluster, {}, setup.sp), mc,
        model::LayerDims{.s = seq, .b = 1, .h = mc.hidden}, p));
    const auto lw_base = model::layerwise_base_memory(mc, setup);
    const auto hx_base = model::helix_base_memory(mc, setup);
    for (const schedules::FamilySpec& f : schedules::family_registry()) {
      const bool helix = std::string(f.key).rfind("helix", 0) == 0;
      items.push_back({f.key, pr, costs.back().get(), helix ? hx_base : lw_base});
    }
  }
  h.measure("sweep/paper_cold/7B_128k_H20", [&] {
    sim::Sweep sweep;
    const auto results = sweep.run(items);
    if (results.size() != items.size() || !results.front().ok) std::abort();
  });
}

// The schedule autotuner (DESIGN §15): table round-trip cost, the IR gate's
// semantic check and one relist, and one fixed-seed short beam search. The
// search is deterministic (seeded RNG, bit-identical sweep scoring,
// insertion-order tie breaks), so its generation/candidate totals land in
// the counters array and perf_compare flags any drift in the search loop
// exactly — a behavioural pin to go with the wall-clock metrics.
void bench_tune(Harness& h, obs::prof::Registry& reg) {
  reg.set_phase("tune");
  std::printf("schedule autotuner (fixed-seed short search)\n");
  core::UnitCostModel::Units u;
  u.pre = 1.0;
  u.attn = 3.0;
  u.post = 2.0;
  u.seconds_per_elem = 0.1;
  const core::UnitCostModel cost{u};
  core::PipelineProblem pr = grid_problem(4);  // p=4, m=8, L=16
  // Priced comm (under free comm there is nothing to search for) and an LM
  // head (the tuner's gate contract: schedules must be executable).
  pr.comm.boundary = 10;
  pr.comm.pre_to_attn = 10;
  pr.comm.attn_to_post = 10;
  pr.include_lm_head = true;

  const schedules::FamilySpec* fam = schedules::find_family("helix_two_fold");
  const core::Schedule sched = fam->build(pr, cost);
  h.measure(grid_key("tune", "lift_lower/helix_two_fold", pr), [&] {
    const tune::Table t = tune::Table::lift(sched);
    const core::Schedule s = t.lower();
    if (s.num_stages != sched.num_stages) std::abort();
  });

  // The search's two largest layers, one call each on the lifted naive seed
  // of the Table 2 shape p = 8, L = 16 at m = 16: the IR gate's semantic
  // check, and the relist mutation. The seed is built and compiled with the
  // registry detached, so the phase's counters stay the search's.
  core::PipelineProblem big = pr;
  big.p = 8;
  big.m = 16;
  big.L = 16;
  obs::prof::detach();
  tune::Genome seed;
  seed.table = tune::Table::lift(schedules::find_family("helix_naive")->build(big, cost));
  const core::CompiledSchedule seed_cs = core::CompiledSchedule::build(seed.table.lower());
  obs::prof::attach(&reg);
  h.measure(grid_key("tune", "validate_semantics/helix_naive", big), [&] {
    if (!core::validate_semantics(seed_cs).ok) std::abort();
  });
  std::mt19937_64 rng(1);
  h.measure(grid_key("tune", "relist/helix_naive", big), [&] {
    tune::Genome g = seed;
    if (!tune::apply_mutation(g, tune::MutationKind::kRelist, rng, cost)) std::abort();
  });

  tune::TuneOptions opt;
  opt.beam_width = 4;
  opt.generations = 6;
  opt.children_per_parent = 6;
  opt.patience = 0;  // run every generation: deterministic counters
  opt.seed = 1;
  opt.seed_families = {"helix_naive"};
  tune::TuneReport rep;
  h.measure(grid_key("tune", "search/helix_naive", pr), [&] {
    sim::Sweep sweep;  // fresh per rep: cold-cache search cost, not memo hits
    rep = tune::tune(pr, cost, opt, &sweep);
    if (!rep.best.outcome.ok) std::abort();
  });
  reg.record_count(obs::prof::intern("tune.candidates_scored",
                                     obs::prof::SiteKind::kCounter),
                   rep.candidates_scored);
  reg.record_count(obs::prof::intern("tune.candidates_deduped",
                                     obs::prof::SiteKind::kCounter),
                   rep.candidates_deduped);
  reg.record_count(obs::prof::intern("tune.candidates_invalid",
                                     obs::prof::SiteKind::kCounter),
                   rep.candidates_invalid);
  reg.record_count(obs::prof::intern("tune.generations",
                                     obs::prof::SiteKind::kCounter),
                   rep.generations_run);
  std::printf("  canary: %lld scored, %lld deduped, %lld invalid over %d "
              "generations; best bubble %.1f\n",
              static_cast<long long>(rep.candidates_scored),
              static_cast<long long>(rep.candidates_deduped),
              static_cast<long long>(rep.candidates_invalid),
              rep.generations_run, rep.best.outcome.total_bubble);
}

// The tensor kernels on the mini-GPT train shapes, on one thread: every
// matmul variant on the qkv and MLP-chunk shapes (m x k x n) of perfbench's
// long and short sequences, and attention forward and backward at both
// sequence lengths (h = 32, 4 heads). Unlike train/, no rank or comm thread
// runs, so these keys are as stable as build/ and ride CI's gate. Each rep
// calls the kernel `calls` times so that a rep lasts about a millisecond.
void bench_kernel(Harness& h, obs::prof::Registry& reg) {
  reg.set_phase("kernel");
  std::printf("tensor kernels (train shapes, 1 thread)\n");
  par::set_global_threads(1);
  using tensor::Tensor;
  const auto time = [&h](const std::string& key, int calls,
                         const std::function<Tensor()>& kernel) {
    h.measure(key, [&] {
      float sink = 0;
      for (int i = 0; i < calls; ++i) sink += kernel()[0];
      if (sink != sink) std::abort();  // keep the results observable
    });
  };
  const tensor::i64 shapes[][3] = {
      {256, 32, 96}, {128, 32, 128}, {128, 128, 32}, {8, 32, 128}, {128, 8, 32}};
  for (const auto& s : shapes) {
    const tensor::i64 m = s[0], k = s[1], n = s[2];
    Tensor a({m, k}), b({k, n}), at({k, m}), bt({n, k});
    tensor::fill_uniform(a, 1);
    tensor::fill_uniform(b, 2);
    tensor::fill_uniform(at, 3);
    tensor::fill_uniform(bt, 4);
    const int calls = static_cast<int>(std::max<tensor::i64>(1, 4'000'000 / (m * k * n)));
    const std::string dims = "/m" + std::to_string(m) + "_k" + std::to_string(k) +
                             "_n" + std::to_string(n);
    time("kernel/matmul" + dims, calls, [&] { return tensor::matmul(a, b); });
    time("kernel/matmul_tn" + dims, calls, [&] { return tensor::matmul_tn(at, b); });
    time("kernel/matmul_nt" + dims, calls, [&] { return tensor::matmul_nt(a, bt); });
  }
  for (const tensor::i64 seq : {16, 256}) {
    Tensor qkv({seq, 3 * 32}), dctx({seq, 32});  // h = 32, 4 heads
    tensor::fill_uniform(qkv, 5);
    tensor::fill_uniform(dctx, 6);
    const int calls = seq < 64 ? 64 : 1;
    const std::string dims = "/seq" + std::to_string(seq) + "_h32_heads4";
    time("kernel/attention_fwd" + dims, calls,
         [&] { return tensor::attention_forward(qkv, 1, seq, 4); });
    time("kernel/attention_bwd" + dims, calls,
         [&] { return tensor::attention_backward(dctx, qkv, 1, seq, 4); });
  }
  par::set_global_threads(par::env_threads());
}

void bench_train(Harness& h, obs::prof::Registry& reg, bool quick) {
  reg.set_phase("train");
  std::printf("numerical training (mini-GPT, %d steps)\n", quick ? 1 : 2);
  const int steps = quick ? 1 : 2;
  struct TrainCase {
    const char* family_key;
    runtime::ScheduleFamily family;
  };
  const std::vector<TrainCase> cases{
      {"1f1b", runtime::ScheduleFamily::k1F1B},
      {"helix_two_fold", runtime::ScheduleFamily::kHelixTwoFold},
  };
  const std::vector<int> sizes = quick ? std::vector<int>{2} : std::vector<int>{2, 4};
  for (const int p : sizes) {
    for (const TrainCase& c : cases) {
      for (const bool async : {false, true}) {
        const nn::MiniGptConfig cfg{.layers = p, .hidden = 32, .heads = 4,
                                    .seq = 64, .batch = 1, .vocab = 64,
                                    .micro_batches = 2 * p, .lr = 0.03f};
        const nn::Batch batch = nn::Batch::random(cfg, 11);
        char key[128];
        std::snprintf(key, sizeof(key), "train/%s/p%d_%s_steps%d", c.family_key,
                      p, async ? "async" : "blocking", steps);
        h.measure(key, [&] {
          nn::ModelParams params = nn::ModelParams::init(cfg, 3);
          runtime::Trainer trainer(params, {.family = c.family,
                                            .pipeline_stages = p,
                                            .async_comm = async});
          for (int s = 0; s < steps; ++s) (void)trainer.train_step(batch);
        });
      }
    }
  }
}

// Live-run health overhead ladder: the same train grid with the flight
// recorder + progress watchdog attached vs detached. The wall-clock pair is
// informational (CI noise swamps a 2% budget), so the enforceable part is a
// set of deterministic counters — flight events recorded, ops retired,
// deliveries observed over a fixed run — that perf_compare diffs exactly:
// any drift means the recorder write-side or the schedule changed.
void bench_train_health(Harness& h, obs::prof::Registry& reg, bool quick) {
  reg.set_phase("train_health");
  std::printf("health recorder overhead (attached vs detached)\n");
  const int steps = quick ? 1 : 2;
  const std::vector<int> sizes = quick ? std::vector<int>{2} : std::vector<int>{2, 4};
  for (const int p : sizes) {
    const nn::MiniGptConfig cfg{.layers = p, .hidden = 32, .heads = 4,
                                .seq = 64, .batch = 1, .vocab = 64,
                                .micro_batches = 2 * p, .lr = 0.03f};
    const nn::Batch batch = nn::Batch::random(cfg, 11);
    double mean[2] = {0, 0};
    for (const bool attached : {false, true}) {
      char key[128];
      std::snprintf(key, sizeof(key), "train_health/helix_two_fold/p%d_%s_steps%d",
                    p, attached ? "attached" : "detached", steps);
      h.measure(key, [&] {
        nn::ModelParams params = nn::ModelParams::init(cfg, 3);
        runtime::TrainerOptions opt{
            .family = runtime::ScheduleFamily::kHelixTwoFold,
            .pipeline_stages = p};
        opt.health.enabled = attached;
        runtime::Trainer trainer(params, opt);
        for (int s = 0; s < steps; ++s) (void)trainer.train_step(batch);
      });
      mean[attached ? 1 : 0] = h.metrics.back().trimmed_mean_s;
    }
    if (mean[0] > 0) {
      std::printf("  -> attached overhead p%d: %+.2f%% (informational; the "
                  "exact gate is the counters below)\n",
                  p, 100.0 * (mean[1] / mean[0] - 1.0));
    }

    // Deterministic canary run: fixed seed, fixed steps, blocking comm. The
    // event/progress totals of this run are schedule-determined, so they land
    // in the counters array and perf_compare flags any drift exactly.
    nn::ModelParams params = nn::ModelParams::init(cfg, 3);
    runtime::TrainerOptions opt{.family = runtime::ScheduleFamily::kHelixTwoFold,
                                .pipeline_stages = p};
    opt.health.enabled = true;
    runtime::Trainer trainer(params, opt);
    for (int s = 0; s < steps; ++s) (void)trainer.train_step(batch);
    const obs::HealthCollector* hc = trainer.health_collector();
    std::int64_t events = 0, retired = 0, deliveries = 0;
    for (int r = 0; r < hc->num_ranks(); ++r) {
      events += static_cast<std::int64_t>(hc->recorder(r).total());
      retired += hc->cell(r).ops_retired.load(std::memory_order_relaxed);
      deliveries += hc->cell(r).deliveries.load(std::memory_order_relaxed);
    }
    char site[64];
    std::snprintf(site, sizeof(site), "health.flight_events.p%d", p);
    reg.record_count(obs::prof::intern(site, obs::prof::SiteKind::kCounter), events);
    std::snprintf(site, sizeof(site), "health.ops_retired.p%d", p);
    reg.record_count(obs::prof::intern(site, obs::prof::SiteKind::kCounter), retired);
    std::snprintf(site, sizeof(site), "health.deliveries.p%d", p);
    reg.record_count(obs::prof::intern(site, obs::prof::SiteKind::kCounter), deliveries);
    std::printf("  canary p%d: %lld flight events, %lld ops retired, %lld "
                "deliveries\n", p, static_cast<long long>(events),
                static_cast<long long>(retired),
                static_cast<long long>(deliveries));
  }
}

void write_json(const std::string& path, const Harness& h,
                const obs::prof::Report& prof, bool quick) {
  bench::JsonWriter json;
  json.begin_object();
  json.nl(2).key("schema_version").value(1);
  json.nl(2).key("bench").value("selfperf");
  json.nl(2).key("mode").value(quick ? "quick" : "full");
  json.nl(2).key("metrics").begin_array();
  for (const Metric& m : h.metrics) {
    json.nl(4).begin_object()
        .key("key").value(m.key)
        .key("unit").value("s")
        .key("reps").value(m.reps)
        .key("trimmed_mean_s").value(m.trimmed_mean_s, 9)
        .key("min_s").value(m.min_s, 9)
        .key("max_s").value(m.max_s, 9)
        .end_object();
  }
  json.nl(2).end_array();
  json.nl(2).key("counters").begin_array();
  for (const auto& row : prof.rows) {
    if (row.kind != obs::prof::SiteKind::kCounter) continue;
    json.nl(4).begin_object()
        .key("key").value(row.phase.empty() ? row.site : row.phase + "/" + row.site)
        .key("value").value(row.stats.value)
        .end_object();
  }
  json.nl(2).end_array();
  json.nl(2).key("prof").begin_array();
  for (const auto& row : prof.rows) {
    json.nl(4).begin_object()
        .key("phase").value(row.phase)
        .key("site").value(row.site)
        .key("kind").value(row.kind == obs::prof::SiteKind::kTimer ? "timer"
                                                                   : "counter")
        .key("count").value(row.stats.count)
        .key("total_ns").value(row.stats.total_ns)
        .key("max_ns").value(row.stats.max_ns)
        .key("value").value(row.stats.value)
        .end_object();
  }
  json.nl(2).end_array();
  json.nl(0).end_object();
  std::ofstream out(path);
  out << json.str() << "\n";
  std::printf("wrote %s\n", path.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  std::string json_path = "BENCH_selfperf.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) quick = true;
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) json_path = argv[++i];
  }

  Harness h;
  h.quick = quick;
  obs::prof::Registry reg;
  obs::prof::AttachGuard guard(reg);

  const std::vector<int> pipeline_sizes =
      quick ? std::vector<int>{4, 8} : std::vector<int>{4, 8, 16};
  bench_build(h, reg, pipeline_sizes);
  bench_simulate(h, reg, pipeline_sizes);
  double sweep_naive_s = 0, sweep_batched_s = 0;
  bench_sweep(h, reg, pipeline_sizes, &sweep_naive_s, &sweep_batched_s);
  bench_paper_sweep(h, reg);
  bench_tune(h, reg);
  bench_kernel(h, reg);
  bench_train(h, reg, quick);
  bench_train_health(h, reg, quick);

  const obs::prof::Report prof = reg.report();
  std::printf("\n%s\n", obs::prof::render(prof).c_str());
  write_json(json_path, h, prof, quick);

  // The simulator reserves its memory-event vectors exactly and its
  // workspace reaches a steady state after the first run on a compiled
  // schedule; any mid-run reallocation is a regression these canaries catch.
  const std::int64_t reallocs = prof.counter_total("sim.mem_events.reallocs");
  if (reallocs != 0) {
    std::fprintf(stderr,
                 "FAIL: simulator memory-event vectors reallocated %lld times "
                 "mid-run (expected 0)\n",
                 static_cast<long long>(reallocs));
    return 1;
  }
  const std::int64_t ws_reallocs = prof.counter_total("sim.workspace.reallocs");
  if (ws_reallocs != 0) {
    std::fprintf(stderr,
                 "FAIL: simulator workspace grew %lld times in steady state "
                 "(expected 0)\n",
                 static_cast<long long>(ws_reallocs));
    return 1;
  }
  // The sweep service must beat the per-config loop it replaced by a wide
  // margin (warm memo cache + parallel evaluation); 5x is the floor.
  if (sweep_batched_s > 0 && sweep_naive_s / sweep_batched_s < 5.0) {
    std::fprintf(stderr,
                 "FAIL: batched sweep only %.1fx faster than the naive loop "
                 "(expected >= 5x)\n",
                 sweep_naive_s / sweep_batched_s);
    return 1;
  }
  return 0;
}
