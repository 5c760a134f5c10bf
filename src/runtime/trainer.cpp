#include "runtime/trainer.h"

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <limits>
#include <optional>
#include <stdexcept>
#include <string>

#include "core/cost.h"
#include "model/memory.h"
#include "par/thread_pool.h"
#include "runtime/env.h"
#include "schedules/coexec.h"
#include "schedules/interleaved.h"
#include "schedules/zb1p.h"

namespace helix::runtime {

core::Schedule build_numeric_schedule(const nn::MiniGptConfig& cfg,
                                      const TrainerOptions& opt) {
  if (opt.schedule != nullptr) {
    // Caller-supplied schedule (helix_tune's gate, check::check_schedule):
    // execute it verbatim, after checking it actually fits this model.
    const core::Schedule& s = *opt.schedule;
    const int want_p =
        opt.family == ScheduleFamily::kSequential ? 1 : opt.pipeline_stages;
    if (s.num_stages != want_p || s.num_micro_batches != cfg.micro_batches ||
        s.num_layers != cfg.layers) {
      throw std::invalid_argument(
          "TrainerOptions::schedule shape (" + std::to_string(s.num_stages) +
          " stages, " + std::to_string(s.num_micro_batches) +
          " micro batches, " + std::to_string(s.num_layers) +
          " layers) does not match the trainer configuration (" +
          std::to_string(want_p) + ", " + std::to_string(cfg.micro_batches) +
          ", " + std::to_string(cfg.layers) + ")");
    }
    // The interpreter computes each loss and seeds the backward pass in the
    // LmHeadLoss handler; without one per micro batch a step would die deep
    // in slot routing.
    const auto heads =
        std::count_if(s.ops.begin(), s.ops.end(), [](const core::Op& op) {
          return op.kind == core::OpKind::kLmHeadLoss;
        });
    if (heads != s.num_micro_batches) {
      throw std::invalid_argument(
          "TrainerOptions::schedule \"" + s.name + "\" has " +
          std::to_string(heads) + " LmHeadLoss ops for " +
          std::to_string(s.num_micro_batches) +
          " micro batches; build it with include_lm_head = true");
    }
    return s;
  }
  core::PipelineProblem pr;
  pr.p = opt.family == ScheduleFamily::kSequential ? 1 : opt.pipeline_stages;
  pr.m = cfg.micro_batches;
  pr.L = cfg.layers;
  // The numerical runtime only needs the dependency structure for execution;
  // sizes below let the simulator price the *same* IR, so its
  // StageStats::peak_memory is comparable to a measured allocator timeline.
  pr.comm.boundary = cfg.rows() * cfg.hidden;
  pr.comm.pre_to_attn = 2 * cfg.rows() * cfg.hidden + 3 * cfg.hidden * cfg.hidden;
  pr.comm.attn_to_post = 2 * cfg.rows() * cfg.hidden;
  pr.include_lm_head = true;

  // Activation stash bytes of the fp32 mini-GPT, matching what the
  // interpreter actually keeps live per (micro batch, layer) — see the
  // bytes_of formulas in runtime/interpreter.cpp.
  const std::int64_t bshB = cfg.rows() * cfg.hidden * 4;
  const std::int64_t statsB = 2 * cfg.rows() * 4;  ///< LayerNorm mean + rstd
  const std::int64_t qkvB = 3 * cfg.hidden * cfg.hidden * 4;  ///< shipped Wqkv
  pr.act.pre = bshB + statsB;        // PreStash: x + LN1 stats
  pr.act.attn = bshB + qkvB;         // AttnStash: ln1 + shipped Wqkv
  pr.act.post = 12 * bshB + statsB;  // PostStash: x,ctx,h1,ln2 + a1,g1 (4h each)
  pr.act.attn_recompute = bshB + qkvB;  // kept even under recompute (4.4.1)
  pr.act.post_recompute = 2 * bshB;     // boundary inputs only: x, ctx
  pr.act.w_stash_post = 7 * bshB;       // PostWStash: dy, da1 (4h), dln2, dh1
  pr.act.w_stash_pre = 4 * bshB;        // dqkv (3h) + dln1 stashes
  pr.logits_transient_bytes = cfg.rows() * cfg.vocab * 4;
  pr.head_stash_bytes = cfg.rows() * (cfg.hidden + cfg.vocab) * 4;

  switch (opt.family) {
    case ScheduleFamily::kSequential:
    case ScheduleFamily::k1F1B:
      if (opt.recompute_without_attention) {
        throw std::invalid_argument(
            "recompute-without-attention is a HelixPipe schedule feature");
      }
      return schedules::build_1f1b(pr);
    case ScheduleFamily::kZb1p:
    case ScheduleFamily::kZb2p: {
      if (opt.recompute_without_attention) {
        throw std::invalid_argument(
            "recompute-without-attention is a HelixPipe schedule feature");
      }
      // Macro-step placement only needs relative costs; the 1:3:2 unit
      // model matches the numerical mini-GPT closely enough.
      const core::UnitCostModel unit;
      return opt.family == ScheduleFamily::kZb2p
                 ? schedules::build_zb2p(pr, unit)
                 : schedules::build_zb1p(pr, unit);
    }
    case ScheduleFamily::kCoExec:
      if (opt.recompute_without_attention) {
        throw std::invalid_argument(
            "recompute-without-attention is a HelixPipe schedule feature");
      }
      return schedules::build_coexec(pr);
    case ScheduleFamily::kInterleaved:
      if (opt.recompute_without_attention) {
        throw std::invalid_argument(
            "recompute-without-attention is a HelixPipe schedule feature");
      }
      return schedules::build_interleaved_1f1b(pr, {.virtual_chunks = 2});
    case ScheduleFamily::kGPipe:
      return schedules::build_gpipe(pr);
    case ScheduleFamily::kHelixNaive:
      return core::build_helix_schedule(
          pr, {.two_fold = false,
               .recompute_without_attention = opt.recompute_without_attention});
    case ScheduleFamily::kHelixTwoFold:
      return core::build_helix_schedule(
          pr, {.two_fold = true,
               .recompute_without_attention = opt.recompute_without_attention});
    case ScheduleFamily::kHelixTuned: {
      // Same IR as two-fold when m equals one FILO loop; with more loops the
      // per-stage programs are refined by list scheduling. The refinement is
      // an executable linearization of the same dependency graph, so the
      // numeric result must stay bit-identical — the equivalence harness
      // pins that.
      const core::UnitCostModel unit;
      return core::build_helix_schedule_tuned(
          pr,
          {.two_fold = true,
           .recompute_without_attention = opt.recompute_without_attention},
          unit);
    }
  }
  throw std::invalid_argument("unknown schedule family");
}

std::vector<std::int64_t> predict_stage_peak_bytes(const nn::MiniGptConfig& cfg,
                                                   const TrainerOptions& opt) {
  const int p =
      opt.family == ScheduleFamily::kSequential ? 1 : opt.pipeline_stages;
  const model::LayerDims d{cfg.seq, cfg.batch, cfg.hidden};
  const model::PipelineShape ps{p, cfg.micro_batches, cfg.layers};
  const auto dt = model::DType::kFP32;
  const std::int64_t qkv = model::qkv_weight_stash_bytes(d, dt);
  const std::int64_t lps = cfg.layers / p;
  const std::int64_t m = cfg.micro_batches;
  std::vector<std::int64_t> out(static_cast<std::size_t>(p), 0);
  for (int i = 0; i < p; ++i) {
    std::int64_t act = 0;
    std::int64_t outstanding_layers = 0;  ///< stashed (mb, layer) pairs
    switch (opt.family) {
      case ScheduleFamily::kSequential:
      case ScheduleFamily::k1F1B:
      case ScheduleFamily::kInterleaved:
        act = model::onef1b_stage_activation_bytes(d, ps, i, dt);
        outstanding_layers = std::min<std::int64_t>(p - i, m) * lps;
        break;
      case ScheduleFamily::kZb1p:
        act = model::zb1p_stage_activation_bytes(d, ps, dt);
        outstanding_layers = std::min<std::int64_t>(p, m) * lps;
        break;
      case ScheduleFamily::kZb2p:
        act = model::zb2p_stage_activation_bytes(d, ps, dt);
        outstanding_layers = std::min<std::int64_t>(2 * p, m) * lps;
        break;
      case ScheduleFamily::kCoExec:
        act = model::coexec_stage_activation_bytes(d, ps, i, dt);
        outstanding_layers = std::min<std::int64_t>(p - i + 1, m) * lps;
        break;
      case ScheduleFamily::kGPipe:
        act = model::gpipe_stage_activation_bytes(d, ps, dt);
        outstanding_layers = m * lps;
        break;
      case ScheduleFamily::kHelixNaive:
      case ScheduleFamily::kHelixTwoFold:
      case ScheduleFamily::kHelixTuned:
        act = model::helix_stage_activation_bytes(
            d, ps, opt.recompute_without_attention, dt);
        outstanding_layers = m * lps;
        break;
    }
    out[static_cast<std::size_t>(i)] = act + outstanding_layers * qkv;
  }
  if (opt.family == ScheduleFamily::kZb1p ||
      opt.family == ScheduleFamily::kZb2p ||
      opt.family == ScheduleFamily::kCoExec) {
    // The deferred LM-head backward-W holds the fp32 logits-gradient stash
    // on the last stage (the Section 5.4 spike).
    out.back() += cfg.rows() * (cfg.hidden + cfg.vocab) * 4;
  }
  return out;
}

Trainer::Trainer(nn::ModelParams& params, TrainerOptions options)
    : params_(params), opt_(options),
      compiled_(core::CompiledSchedule::build(build_numeric_schedule(params.cfg, options))),
      adam_states_(static_cast<std::size_t>(compiled_.num_stages)) {
  // The schedule builders above already reject non-positive layers, micro
  // batches and stages, naming them.
  nn::validate(params.cfg);
  if (opt_.mlp_chunks < 1) {
    throw std::invalid_argument("TrainerOptions::mlp_chunks = " +
                                std::to_string(opt_.mlp_chunks) + " must be >= 1");
  }
  if (params.cfg.layers % compiled_.num_stages != 0) {
    throw std::invalid_argument("layers must divide evenly across stages");
  }
  if (opt_.trace != nullptr && opt_.trace->num_ranks() != compiled_.num_stages) {
    throw std::invalid_argument("trace collector must have one shard per stage");
  }
  if (opt_.threads < 0) {
    throw std::invalid_argument("TrainerOptions::threads must be >= 0");
  }
  if (opt_.threads > 0) par::set_global_threads(opt_.threads);
  // Environment overrides so CI (and users) can re-run any suite under the
  // async comm engine without touching call sites; numerics are identical.
  // All integer variables go through the checked parser (runtime/env.h):
  // garbage or out-of-range values throw with the variable named instead of
  // silently becoming 0.
  if (env_flag("HELIX_COMM_ASYNC").value_or(false)) opt_.async_comm = true;
  if (const auto v = env_int("HELIX_COMM_LOOKAHEAD", kUnboundedLookahead,
                             std::numeric_limits<int>::max())) {
    opt_.comm_lookahead = *v;
  }
  // Live-run health overrides: HELIX_HEALTH attaches the flight recorder +
  // watchdog to any existing suite (same parse as HELIX_COMM_ASYNC).
  if (env_flag("HELIX_HEALTH").value_or(false)) opt_.health.enabled = true;
  if (const auto v = env_int("HELIX_HEALTH_WINDOW_MS", 1,
                             std::numeric_limits<int>::max())) {
    opt_.health.no_progress_window_ms = *v;
  }
  if (const auto v = env_int("HELIX_HEALTH_POLL_MS", 1,
                             std::numeric_limits<int>::max())) {
    opt_.health.poll_interval_ms = *v;
  }
  if (const auto v = env_int("HELIX_HEALTH_CAPACITY", 1,
                             std::numeric_limits<int>::max())) {
    opt_.health.recorder_capacity = *v;
  }
  if (const auto v = env_string("HELIX_HEALTH_DUMP_DIR")) {
    opt_.health.dump_dir = *v;
  }
  if (opt_.health.no_progress_window_ms < 1 || opt_.health.poll_interval_ms < 1) {
    throw std::invalid_argument(
        "health window/poll intervals must be >= 1 ms");
  }
}

IterationMetrics Trainer::train_step(const nn::Batch& batch) {
  const int step = step_++;
  post_mortem_.reset();
  comm::World world(compiled_.num_stages);
  obs::TraceCollector* trace = opt_.trace;
  if (trace != nullptr) {
    trace->begin_iteration();  // each train_step is one fresh trace
    world.set_metrics(trace->comm_shards());
  }
  // Seeded fault injection applies with or without the health subsystem (a
  // kill drill is meaningful even when nobody is recording it).
  const comm::FaultPlan* faults = opt_.health.faults;
  if (faults != nullptr) world.set_faults(faults);
  std::optional<obs::HealthMonitor> monitor;
  if (opt_.health.enabled) {
    if (health_ == nullptr) {
      health_ = std::make_unique<obs::HealthCollector>(
          compiled_.num_stages, opt_.health.recorder_capacity);
    }
    health_->begin_step();
    world.set_health(health_->cells(), health_->recorders());
    monitor.emplace(world, *health_, opt_.health);
    monitor->start();
  }

  std::vector<IterationMetrics> metrics(static_cast<std::size_t>(compiled_.num_stages));
  const auto rank_fn = [&](comm::Endpoint& ep) {
    const int r = ep.rank();
    if (faults != nullptr && faults->should_kill(r, step)) {
      throw comm::FaultInjected("injected kill: rank " + std::to_string(r) +
                                " at step " + std::to_string(step));
    }
    Interpreter interp(
        compiled_, r, ep, params_, batch,
        {.mlp_chunks = opt_.mlp_chunks,
         .adam = opt_.optimizer == OptimizerKind::kAdam
                     ? &adam_states_[static_cast<std::size_t>(r)]
                     : nullptr,
         .async_comm = opt_.async_comm,
         .recv_lookahead = opt_.comm_lookahead,
         .trace = trace,
         .health = health_.get()});
    metrics[static_cast<std::size_t>(r)] = interp.run();
  };
  try {
    world.run(rank_fn);
  } catch (const std::exception& e) {
    // Failed step: join the watchdog, then build the merged post-mortem.
    // Blocked cells and pending-recv registrations were deliberately left
    // set by the abort unwinding, so the dump shows the moment of death.
    if (monitor.has_value()) monitor->stop();
    const bool tripped = monitor.has_value() && monitor->tripped();
    if (health_ != nullptr) {
      const obs::HangReport* hang = tripped ? &monitor->report() : nullptr;
      post_mortem_ = std::make_unique<obs::PostMortem>(obs::build_post_mortem(
          world, *health_, hang,
          tripped ? monitor->report().summary : std::string(e.what())));
      if (!opt_.health.dump_dir.empty()) {
        std::error_code ec;
        std::filesystem::create_directories(opt_.health.dump_dir, ec);
        const std::string base =
            opt_.health.dump_dir + "/postmortem_step" + std::to_string(step);
        std::ofstream(base + ".txt") << obs::render_post_mortem(*post_mortem_);
        std::ofstream(base + ".json") << obs::post_mortem_json(*post_mortem_);
        std::ofstream(base + ".trace.json")
            << obs::post_mortem_trace_json(*post_mortem_);
      }
    }
    if (tripped) throw HangDetected(monitor->report().summary);
    throw;
  }
  // A trip racing a successful return is spurious (the run finished; poison
  // landed on a world that was already done) — stop() and move on.
  if (monitor.has_value()) monitor->stop();
  IterationMetrics out;
  for (auto& m : metrics) {
    if (!m.micro_batch_losses.empty()) {
      out = std::move(m);
      break;
    }
  }
  if (trace != nullptr) {
    // Threads are joined: shards are quiescent, merge them into the result.
    out.rank_summaries.reserve(static_cast<std::size_t>(compiled_.num_stages));
    for (int r = 0; r < compiled_.num_stages; ++r) {
      out.rank_summaries.push_back(trace->summary(r));
    }
  }
  return out;
}

}  // namespace helix::runtime
