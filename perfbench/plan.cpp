// plan_sweep: a seeded stream of capacity-planner queries against one
// sim::Sweep per planner session — the cluster_planner grid (p in {2, 4, 8}
// x every registered family, PaperCostModel, layer-wise / helix base memory)
// per query. Every fourth query repeats an earlier shape of the session with
// that shape's cost models, so it is answered from the sweep's memo.
//
// Traced, each new shape is also evaluated item by item through the same
// public steps the sweep takes (FamilySpec::build -> CompiledSchedule::build
// -> Simulator::run), timing each step, with obs::prof attached for the
// simulator's relax / memory-timeline sites.
#include <cmath>
#include <cstring>
#include <memory>
#include <string_view>

#include "core/compiled.h"
#include "gen.h"
#include "model/gpu_specs.h"
#include "model/model_config.h"
#include "model/paper_cost.h"
#include "model/problem_factory.h"
#include "obs/prof.h"
#include "par/thread_pool.h"
#include "schedules/registry.h"
#include "sim/simulator.h"
#include "sim/sweep.h"
#include "workloads.h"

namespace perfbench {

using namespace helix;

namespace {

/// The library's default pool (HELIX_THREADS unset). With a pool of 4 the
/// query is ~3x faster, but each parallel region waits for its slowest
/// thread, and on a shared host that made run-to-run spread 2-3x wider.
constexpr int kPoolThreads = 1;
constexpr int kSetupReps = 15;

/// One query's grid. Owns the cost models its items borrow.
struct PlanGrid {
  std::vector<std::unique_ptr<model::PaperCostModel>> costs;
  std::vector<sim::SweepItem> items;
};

PlanGrid make_grid(const PlanShape& s) {
  const model::ModelConfig mc = model::model_by_name(kPlanModels[s.model]);
  const model::ClusterSpec cluster = model::cluster_by_name(kPlanClusters[s.cluster]);
  PlanGrid g;
  for (const int p : kPlanPipelines) {
    if (mc.num_layers % p != 0) continue;
    const model::TrainSetup setup{.seq_len = s.seq, .micro_batch = 1, .pipeline = p,
                                  .micro_batches = 2 * p, .sp = 8};
    const core::PipelineProblem pr = model::make_problem(mc, setup);
    const model::LayerDims dims{.s = s.seq, .b = 1, .h = mc.hidden};
    g.costs.push_back(std::make_unique<model::PaperCostModel>(
        model::TimingModel(cluster, {}, setup.sp), mc, dims, p));
    const auto lw_base = model::layerwise_base_memory(mc, setup);
    const auto hx_base = model::helix_base_memory(mc, setup);
    for (const schedules::FamilySpec& fam : schedules::family_registry()) {
      const bool helix = std::string_view(fam.key).rfind("helix", 0) == 0;
      g.items.push_back({fam.key, pr, g.costs.back().get(), helix ? hx_base : lw_base});
    }
  }
  return g;
}

bool same_bits(double a, double b) { return std::memcmp(&a, &b, sizeof(a)) == 0; }

bool same_outcome(const sim::SweepOutcome& a, const sim::SweepOutcome& b) {
  return a.ok == b.ok && a.error == b.error && same_bits(a.makespan, b.makespan) &&
         same_bits(a.total_bubble, b.total_bubble) &&
         same_bits(a.total_recv_wait, b.total_recv_wait) &&
         a.max_peak_memory == b.max_peak_memory &&
         a.stage_peak_memory == b.stage_peak_memory;
}

bool same_outcomes(const std::vector<sim::SweepOutcome>& a,
                   const std::vector<sim::SweepOutcome>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (!same_outcome(a[i], b[i])) return false;
  }
  return true;
}

/// Every applicable config is ok with a finite, positive makespan; every
/// inapplicable one is refused.
bool cold_outcomes_valid(const PlanGrid& g, const std::vector<sim::SweepOutcome>& out) {
  if (out.size() != g.items.size()) return false;
  for (std::size_t i = 0; i < out.size(); ++i) {
    const sim::SweepItem& it = g.items[i];
    const bool applicable = schedules::find_family(it.family)->applicable(it.problem);
    const sim::SweepOutcome& o = out[i];
    if (applicable != o.ok) return false;
    if (o.ok && !(std::isfinite(o.makespan) && o.makespan > 0)) return false;
  }
  return true;
}

std::string describe(const PlanShape& s) {
  return std::string(kPlanModels[s.model]) + " seq " + std::to_string(s.seq) + " " +
         kPlanClusters[s.cluster];
}

/// Build and compile time of items evaluated step by step.
struct ItemSplit {
  std::int64_t build_ns = 0, compile_ns = 0;
};

/// The sweep's per-item evaluation, through the same public calls: build,
/// compile, simulate. Traced, `split` sums the step times and `trace` gets
/// one span per step under `parent`.
sim::SweepOutcome evaluate_item(const sim::SweepItem& it, sim::SimWorkspace& ws,
                                ItemSplit* split, Trace* trace, int parent) {
  sim::SweepOutcome out;
  const schedules::FamilySpec* fam = schedules::find_family(it.family);
  const std::int64_t t0 = now_ns();
  std::int64_t t1 = 0, t2 = 0;
  try {
    const core::Schedule sched = fam->build(it.problem, *it.cost);
    t1 = now_ns();
    const core::CompiledSchedule cs = core::CompiledSchedule::build(sched);
    t2 = now_ns();
    ws.last = nullptr;  // a new schedule, not a steady-state rerun
    const sim::SimResult& res = sim::Simulator(*it.cost).run(cs, ws, it.base_memory);
    out.ok = true;
    out.makespan = res.makespan;
    out.total_bubble = res.total_bubble();
    out.max_peak_memory = res.max_peak_memory();
    for (const sim::StageStats& st : res.stages) {
      out.total_recv_wait += st.recv_wait;
      out.stage_peak_memory.push_back(st.peak_memory);
    }
  } catch (const std::exception& e) {
    out = sim::SweepOutcome{};
    out.error = e.what();
  }
  const std::int64_t t3 = now_ns();
  if (t1 == 0) t1 = t3;  // the builder refused the shape
  if (t2 == 0) t2 = t3;
  if (split != nullptr) {
    split->build_ns += t1 - t0;
    split->compile_ns += t2 - t1;
  }
  if (trace != nullptr) {
    trace->span(std::string("build ") + it.family, 0, 0, t0, t1, parent);
    if (out.ok) {
      trace->span("compile", 0, 0, t1, t2, parent);
      trace->span("simulate", 0, 0, t2, t3, parent);
    }
  }
  return out;
}

/// Per-layer samples, one per traced cold (or warm) query.
struct PlanLayers {
  std::vector<double> root, build, compile, relax, memory_timeline, unattributed,
      edges, untraced, warm_hit;
};

/// One traced cold query: the item-by-item evaluation with every step timed
/// and obs::prof attached. Returns the outcomes.
std::vector<sim::SweepOutcome> traced_query(const PlanGrid& g, const PlanShape& shape,
                                            obs::prof::Registry& reg, Trace& trace,
                                            PlanLayers& layers) {
  reg.reset();
  std::vector<sim::SweepOutcome> out;
  ItemSplit split;
  const std::int64_t t0 = now_ns();
  const int root = trace.begin("cold query " + describe(shape), 0, 0, t0);
  {
    obs::prof::AttachGuard guard(reg);
    sim::SimWorkspace ws;
    for (const sim::SweepItem& it : g.items) {
      out.push_back(evaluate_item(it, ws, &split, &trace, root));
    }
  }
  const std::int64_t t1 = now_ns();
  const obs::prof::Report rep = reg.report();
  const auto timer_s = [&](const char* site) {
    const obs::prof::SiteStats* s = rep.find("", site);
    return s == nullptr ? 0.0 : ns_to_s(s->total_ns);
  };
  const double root_s = ns_to_s(t1 - t0);
  const double build = ns_to_s(split.build_ns);
  const double compile = ns_to_s(split.compile_ns);
  const double relax = timer_s("sim.relax");
  const double mem = timer_s("sim.memory_timeline");
  const double rest = root_s - build - compile - relax - mem;
  layers.root.push_back(root_s);
  layers.build.push_back(build);
  layers.compile.push_back(compile);
  layers.relax.push_back(relax);
  layers.memory_timeline.push_back(mem);
  layers.unattributed.push_back(rest);
  layers.edges.push_back(static_cast<double>(rep.counter_total("core.compiled.edges")));
  trace.end(root, t1,
            arg("schedules.build_s", build) + ", " + arg("core.compile_s", compile) +
                ", " + arg("sim.relax_s", relax) + ", " +
                arg("sim.memory_timeline_s", mem) + ", " +
                arg("plan.unattributed_s", rest));
  return out;
}

}  // namespace

Result run_plan(const Args& args, Trace* trace) {
  par::set_global_threads(kPoolThreads);
  check_thread_budget(0, 0, kPoolThreads);
  Result r;

  // Set-up: a fresh sweep answering one warm-up query, several times.
  std::vector<double> setup_s;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    const std::int64_t t0 = now_ns();
    sim::Sweep sweep;
    const PlanGrid warm = make_grid({2, 64 * 1024, 0});
    const std::vector<sim::SweepOutcome> out = sweep.run(warm.items);
    setup_s.push_back(ns_to_s(now_ns() - t0));
    if (!cold_outcomes_valid(warm, out)) throw std::runtime_error("plan warm-up query failed");
  }

  PlanStream stream(args.seed);
  std::unique_ptr<sim::Sweep> sweep;  // the current session's
  // The session's grids and cold answers, by shape index - session start.
  std::vector<PlanGrid> grids;
  std::vector<std::vector<sim::SweepOutcome>> answers;
  std::vector<double> cold_s;
  double configs = 0;
  sim::SweepStats totals;  // over finished sessions
  PlanLayers layers;
  obs::prof::Registry reg;
  std::int64_t cold_queries = 0;
  Budget budget(args.seconds);
  while (budget.more()) {
    const PlanQuery q = stream.next();
    if (q.new_session) {
      if (sweep != nullptr) {
        totals.items += sweep->stats().items;
        totals.cache_hits += sweep->stats().cache_hits;
      }
      sweep = std::make_unique<sim::Sweep>();
      grids.clear();
      answers.clear();
    }
    const auto idx = static_cast<std::size_t>(q.shape - stream.session_start());
    const PlanShape& shape = stream.shapes()[static_cast<std::size_t>(q.shape)];
    if (!q.repeat) {
      grids.push_back(make_grid(shape));
      answers.emplace_back();
    }
    const PlanGrid& g = grids[idx];
    try {
      if (q.repeat) {
        const std::int64_t t0 = now_ns();
        const std::vector<sim::SweepOutcome> out = sweep->run(g.items);
        const std::int64_t t1 = now_ns();
        budget.spend(t1 - t0);
        layers.warm_hit.push_back(ns_to_s(t1 - t0));
        if (trace != nullptr) trace->span("warm query " + describe(shape), 0, 0, t0, t1);
        r.record(!answers[idx].empty() && same_outcomes(out, answers[idx]),
                 "warm query differs from its cold answer: " + describe(shape));
        continue;
      }
      std::vector<sim::SweepOutcome> out;
      bool agree = true;
      if (trace == nullptr) {
        const std::int64_t t0 = now_ns();
        out = sweep->run(g.items);
        const std::int64_t t1 = now_ns();
        budget.spend(t1 - t0);
        cold_s.push_back(ns_to_s(t1 - t0));
        configs += static_cast<double>(g.items.size());
      } else {
        // Untraced and traced item-by-item evaluations, in alternating
        // order, then the sweep itself so later repeats hit its memo. All
        // three must agree bit for bit.
        std::vector<sim::SweepOutcome> plain, traced;
        const std::int64_t t0 = now_ns();
        for (int k = 0; k < 2; ++k) {
          if ((k + cold_queries) % 2 == 0) {
            const std::int64_t t0 = now_ns();
            sim::SimWorkspace ws;
            for (const sim::SweepItem& it : g.items) {
              plain.push_back(evaluate_item(it, ws, nullptr, nullptr, -1));
            }
            layers.untraced.push_back(ns_to_s(now_ns() - t0));
          } else {
            traced = traced_query(g, shape, reg, *trace, layers);
          }
        }
        out = sweep->run(g.items);
        budget.spend(now_ns() - t0);
        agree = same_outcomes(out, plain) && same_outcomes(out, traced);
      }
      ++cold_queries;
      r.record(agree && cold_outcomes_valid(g, out),
               "cold query answer invalid: " + describe(shape));
      answers[idx] = std::move(out);
    } catch (const std::exception& e) {
      r.record(false, describe(shape) + ": " + e.what());
    }
  }

  if (trace == nullptr) {
    set_end_to_end(r, setup_s, cold_s, configs);
    return r;
  }
  totals.items += sweep->stats().items;
  totals.cache_hits += sweep->stats().cache_hits;
  r.set("bench.root_s", mean(layers.root));
  r.set("schedules.build_s", mean(layers.build));
  r.set("core.compile_s", mean(layers.compile));
  r.set("sim.relax_s", mean(layers.relax));
  r.set("sim.memory_timeline_s", mean(layers.memory_timeline));
  r.set("plan.unattributed_s", mean(layers.unattributed));
  r.set("core.compiled_edges", median(layers.edges));
  r.set("sim.sweep_hit_s", median(layers.warm_hit));
  r.set("sim.sweep_hit_ratio",
        static_cast<double>(totals.cache_hits) / static_cast<double>(totals.items));
  r.set("obs.trace_overhead", median(layers.root) / median(layers.untraced));
  return r;
}

}  // namespace perfbench
