#include "sim/sweep.h"

#include <exception>

#include "core/compiled.h"
#include "core/ir.h"
#include "obs/prof.h"
#include "par/thread_pool.h"
#include "schedules/registry.h"
#include "sim/simulator.h"

namespace helix::sim {

using core::CostModel;

namespace {

void append_raw(std::string& out, const void* p, std::size_t n) {
  out.append(static_cast<const char*>(p), n);
}
void append_i64(std::string& out, std::int64_t v) { append_raw(out, &v, sizeof(v)); }

/// Bytes append_prices adds.
constexpr std::size_t kPriceKeyBytes = 1 + sizeof(CostModel::Prices);

/// The cost model's price bits. A model is its prices, so two instances
/// with equal bits share entries and a changed price is a miss.
void append_prices(std::string& out, const CostModel* cost) {
  out.push_back(cost == nullptr ? '\0' : '\1');
  if (cost != nullptr) append_raw(out, &cost->prices(), sizeof(CostModel::Prices));
}

/// Simulate one compiled schedule; shared tail of both evaluate() overloads.
SweepOutcome simulate(const core::CompiledSchedule& cs, const core::CostModel& cost,
                      const std::vector<std::int64_t>& base_memory, SimWorkspace& ws) {
  SweepOutcome out;
  const Simulator simulator(cost);
  // Every evaluation is a distinct schedule — a run() compile often sits at
  // the same stack address as the previous item's — so clear the
  // workspace's identity marker: this run is a cold config, not a
  // steady-state repeat, and must not count against the
  // sim.workspace.reallocs canary.
  ws.last = nullptr;
  const SimResult& res = simulator.run(cs, ws, base_memory);
  out.ok = true;
  out.makespan = res.makespan;
  out.total_bubble = res.total_bubble();
  out.max_peak_memory = res.max_peak_memory();
  out.stage_peak_memory.reserve(res.stages.size());
  for (const StageStats& st : res.stages) {
    out.total_recv_wait += st.recv_wait;
    out.stage_peak_memory.push_back(st.peak_memory);
  }
  return out;
}

SweepOutcome evaluate(const SweepItem& item, SimWorkspace& ws) {
  SweepOutcome out;
  const schedules::FamilySpec* fam = schedules::find_family(item.family);
  if (fam == nullptr) {
    out.error = "unknown schedule family: " + item.family;
    return out;
  }
  if (item.cost == nullptr) {
    out.error = "null cost model";
    return out;
  }
  try {
    out = simulate(core::CompiledSchedule::build(fam->build(item.problem, *item.cost)),
                   *item.cost, item.base_memory, ws);
  } catch (const std::exception& e) {
    out = SweepOutcome{};
    out.error = e.what();
  }
  return out;
}

SweepOutcome evaluate(const ScheduleItem& item, SimWorkspace& ws) {
  SweepOutcome out;
  if (item.compiled == nullptr) {
    out.error = "null schedule";
  } else if (item.cost == nullptr) {
    out.error = "null cost model";
  } else {
    out = simulate(*item.compiled, *item.cost, item.base_memory, ws);
  }
  return out;
}

/// Each chunk of this many items owns one SimWorkspace, recycled across its
/// slice. The grain is a constant, never derived from the thread count, so
/// the partition is a fixed function of the item count and the reuse is
/// identical for every thread count.
constexpr std::int64_t kGrain = 4;

}  // namespace

std::string memo_key(const SweepItem& item) {
  constexpr std::size_t kProblemFields = 18;  // the pr.* fields appended below
  std::string key;
  // Sized exactly, so the keys the cache keeps carry no spare capacity.
  key.reserve(item.family.size() + 1 +
              8 * (kProblemFields + 1 + item.base_memory.size()) + kPriceKeyBytes);
  key += item.family;
  key.push_back('\0');
  const core::PipelineProblem& pr = item.problem;
  append_i64(key, pr.p);
  append_i64(key, pr.m);
  append_i64(key, pr.L);
  append_i64(key, pr.comm.boundary);
  append_i64(key, pr.comm.pre_to_attn);
  append_i64(key, pr.comm.attn_to_post);
  append_i64(key, pr.act.pre);
  append_i64(key, pr.act.attn);
  append_i64(key, pr.act.post);
  append_i64(key, pr.act.attn_recompute);
  append_i64(key, pr.act.post_recompute);
  append_i64(key, pr.act.recompute_transient);
  append_i64(key, pr.act.full_layer_recompute_stash);
  append_i64(key, pr.act.w_stash_pre);
  append_i64(key, pr.act.w_stash_post);
  append_i64(key, pr.include_lm_head ? 1 : 0);
  append_i64(key, pr.logits_transient_bytes);
  append_i64(key, pr.head_stash_bytes);
  append_i64(key, static_cast<std::int64_t>(item.base_memory.size()));
  for (const std::int64_t b : item.base_memory) append_i64(key, b);
  append_prices(key, item.cost);
  return key;
}

std::vector<SweepOutcome> Sweep::run(const std::vector<SweepItem>& items) {
  HELIX_PROF_SCOPE("sweep.run");
  const auto n = static_cast<std::int64_t>(items.size());
  std::vector<SweepOutcome> results(items.size());

  // Resolve cache hits up front (one lock, no contention in the hot loop);
  // misses are evaluated in parallel and inserted afterwards.
  std::vector<std::int64_t> pending;
  std::vector<std::string> keys(items.size());
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (std::int64_t i = 0; i < n; ++i) {
      keys[static_cast<std::size_t>(i)] =
          memo_key(items[static_cast<std::size_t>(i)]);
      const auto it = cache_.find(keys[static_cast<std::size_t>(i)]);
      if (it != cache_.end()) {
        results[static_cast<std::size_t>(i)] = it->second;
        ++stats_.cache_hits;
      } else {
        pending.push_back(i);
      }
    }
  }

  const auto todo = static_cast<std::int64_t>(pending.size());
  par::parallel_for(todo, kGrain, [&](std::int64_t begin, std::int64_t end,
                                      std::int64_t /*chunk*/) {
    SimWorkspace ws;
    for (std::int64_t j = begin; j < end; ++j) {
      const std::int64_t i = pending[static_cast<std::size_t>(j)];
      results[static_cast<std::size_t>(i)] =
          evaluate(items[static_cast<std::size_t>(i)], ws);
    }
  });

  {
    std::lock_guard<std::mutex> lock(mu_);
    stats_.items += n;
    stats_.evaluated += todo;
    for (const std::int64_t i : pending) {
      if (!results[static_cast<std::size_t>(i)].ok) ++stats_.failed;
      cache_.emplace(std::move(keys[static_cast<std::size_t>(i)]),
                     results[static_cast<std::size_t>(i)]);
    }
  }
  HELIX_PROF_COUNT("sweep.items", n);
  HELIX_PROF_COUNT("sweep.evaluated", todo);
  HELIX_PROF_COUNT("sweep.cache_hits", n - todo);
  return results;
}

std::vector<SweepOutcome> Sweep::run_schedules(
    const std::vector<ScheduleItem>& items) {
  HELIX_PROF_SCOPE("sweep.run_schedules");
  const auto n = static_cast<std::int64_t>(items.size());
  std::vector<SweepOutcome> results(items.size());
  par::parallel_for(n, kGrain, [&](std::int64_t begin, std::int64_t end,
                                   std::int64_t /*chunk*/) {
    SimWorkspace ws;
    for (std::int64_t i = begin; i < end; ++i) {
      results[static_cast<std::size_t>(i)] =
          evaluate(items[static_cast<std::size_t>(i)], ws);
    }
  });
  std::int64_t failed = 0;
  for (const SweepOutcome& out : results) failed += out.ok ? 0 : 1;
  {
    std::lock_guard<std::mutex> lock(mu_);
    stats_.items += n;
    stats_.evaluated += n;
    stats_.failed += failed;
  }
  HELIX_PROF_COUNT("sweep.items", n);
  HELIX_PROF_COUNT("sweep.evaluated", n);
  return results;
}

SweepStats Sweep::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

void Sweep::clear_cache() {
  std::lock_guard<std::mutex> lock(mu_);
  cache_.clear();
}

}  // namespace helix::sim
