// train_long_seq / train_short_seq: mini-GPT training steps through
// runtime::Trainer on helix_two_fold with recompute-without-attention and
// mlp_chunks = 2 (the paper's full configuration), one fresh seeded batch
// per step. Every step is checked against nn::reference_train_step on a copy
// of the parameters taken before it: losses and updated parameters must be
// bit-identical (the DESIGN §9 contract).
//
// Traced, two replicas step the same batches — one untraced, one with an
// obs::TraceCollector attached through TrainerOptions::trace, in alternating
// order — and the traced replica's op spans and rank summaries give the
// per-layer split of each step.
#include <algorithm>
#include <memory>

#include "gen.h"
#include "nn/reference.h"
#include "obs/recorder.h"
#include "par/thread_pool.h"
#include "runtime/trainer.h"
#include "workloads.h"

namespace perfbench {

using namespace helix;

namespace {

constexpr int kSetupReps = 5;
constexpr int kMlpChunks = 2;
/// Steps whose individual op spans go into the trace file (the split of
/// every step is kept regardless).
constexpr int kStepsWithOpSpans = 2;

struct Replica {
  std::unique_ptr<nn::ModelParams> params;
  std::unique_ptr<runtime::Trainer> trainer;
  double init_s = 0;  ///< Trainer constructor wall time
};

Replica make_replica(const TrainSetup& ts, std::uint64_t seed,
                     obs::TraceCollector* collector) {
  Replica r;
  r.params = std::make_unique<nn::ModelParams>(
      nn::ModelParams::init(ts.cfg, param_seed(seed)));
  runtime::TrainerOptions opt;
  opt.family = runtime::ScheduleFamily::kHelixTwoFold;
  opt.pipeline_stages = ts.stages;
  opt.recompute_without_attention = true;
  opt.mlp_chunks = kMlpChunks;
  opt.async_comm = ts.async_comm;
  opt.trace = collector;
  const std::int64_t t0 = now_ns();
  r.trainer = std::make_unique<runtime::Trainer>(*r.params, opt);
  r.init_s = ns_to_s(now_ns() - t0);
  return r;
}

/// Compare a step against the sequential reference run on `before` (the
/// parameters the step started from). Returns the reference step's time.
bool matches_reference(nn::ModelParams before, const nn::Batch& batch,
                       const runtime::IterationMetrics& got,
                       const nn::ModelParams& after, double* ref_s) {
  const std::int64_t t0 = now_ns();
  const nn::StepResult ref = nn::reference_train_step(before, batch, kMlpChunks);
  *ref_s = ns_to_s(now_ns() - t0);
  return got.micro_batch_losses == ref.micro_batch_losses &&
         before.max_diff(after) == 0.0;
}

enum Group { kPre, kAttn, kPost, kOptim, kComm, kGroups };

Group group_of(core::OpKind k) {
  using core::OpKind;
  switch (k) {
    case OpKind::kFwdAttn:
    case OpKind::kBwdAttn:
    case OpKind::kRecomputeAttn:
      return kAttn;
    case OpKind::kFwdPost:
    case OpKind::kBwdPost:
    case OpKind::kBwdWPost:
    case OpKind::kRecomputePost:
    case OpKind::kLmHeadLoss:
      return kPost;
    case OpKind::kOptimStep:
      return kOptim;
    case OpKind::kSend:
    case OpKind::kRecv:
      return kComm;
    default:  // embedding and pre-attention parts
      return kPre;
  }
}

/// Per-step per-layer values of traced steps.
struct TrainLayers {
  std::vector<double> root, group[kGroups], wait, between, bytes, messages, idle,
      live_peak, ops, reference, traced;
};

/// Split one traced step of `p` ranks. The rank-time root p x wall is
/// exactly the op spans' busy time per group (recv wait taken out), the
/// exposed recv wait, and the time between ops.
void split_step(const obs::TraceCollector& tc, const runtime::IterationMetrics& m,
                int p, std::int64_t t0, std::int64_t t1, bool op_spans,
                Trace& trace, TrainLayers& layers) {
  const double wall = ns_to_s(t1 - t0);
  double group[kGroups] = {};
  double wait = 0, between = 0, messages = 0, ops = 0;
  const int root = trace.begin("train_step", 0, 0, t0);
  for (int r = 0; r < p; ++r) {
    double spans = 0;
    for (const obs::Span& s : tc.recorder(r).spans()) {
      const double d = ns_to_s(s.duration_ns());
      const double w = ns_to_s(s.wait_ns);
      spans += d;
      group[group_of(s.kind)] += d - w;
      wait += w;
      ops += 1;
      if (s.kind == core::OpKind::kSend) messages += 1;
      if (op_spans) {
        trace.span(core::to_string(s.kind), 1, r, s.start_ns, s.end_ns, root,
                   arg("mb", s.mb) + ", " + arg("layer", s.layer) + ", " +
                       arg("wait_s", w));
      }
    }
    between += wall - spans;
  }
  double bytes = 0, busy = 0, live_peak = 0;
  for (const obs::RankSummary& rs : m.rank_summaries) {
    bytes += static_cast<double>(rs.bytes_sent);
    busy += ns_to_s(rs.busy_ns);
    live_peak = std::max(live_peak, static_cast<double>(rs.live_peak_bytes));
  }
  static const char* const kNames[kGroups] = {"tensor.pre_s", "tensor.attn_s",
                                              "tensor.post_s", "runtime.optim_s",
                                              "comm.op_s"};
  std::string args = arg("rank_seconds", wall * p);
  for (int g = 0; g < kGroups; ++g) {
    layers.group[g].push_back(group[g]);
    args += ", " + arg(kNames[g], group[g]);
  }
  args += ", " + arg("comm.recv_wait_exposed_s", wait) + ", " +
          arg("runtime.between_ops_s", between);
  trace.end(root, t1, args);
  layers.root.push_back(wall * p);
  layers.wait.push_back(wait);
  layers.between.push_back(between);
  layers.bytes.push_back(bytes);
  layers.messages.push_back(messages);
  layers.idle.push_back(1.0 - busy / (wall * p));
  layers.live_peak.push_back(live_peak);
  layers.ops.push_back(ops);
}

}  // namespace

Result run_train(const Args& args, Trace* trace) {
  const TrainSetup ts = train_setup(args.workload);
  const int p = ts.stages;
  par::set_global_threads(1);
  check_thread_budget(p, ts.async_comm ? p : 0, 1);
  Result r;
  const double tokens_per_step = static_cast<double>(
      ts.cfg.micro_batches * ts.cfg.batch * ts.cfg.seq);

  // Set-up: parameters, Trainer (schedule build + compile) and one warm-up
  // step, several times. Traced runs set up both replicas once.
  obs::TraceCollector collector(p);
  std::vector<double> setup_s, init_s;
  Replica plain, traced;
  const nn::Batch warm_batch = train_batch(ts.cfg, args.seed, -1);
  for (int rep = 0; rep < (trace == nullptr ? kSetupReps : 1); ++rep) {
    const std::int64_t t0 = now_ns();
    plain.trainer.reset();  // before the parameters it references
    plain = make_replica(ts, args.seed, nullptr);
    (void)plain.trainer->train_step(warm_batch);
    setup_s.push_back(ns_to_s(now_ns() - t0));
    init_s.push_back(plain.init_s);
  }
  if (trace != nullptr) {
    traced = make_replica(ts, args.seed, &collector);
    (void)traced.trainer->train_step(warm_batch);
    init_s.push_back(traced.init_s);
  }

  std::vector<double> step_s;
  TrainLayers layers;
  Budget budget(args.seconds);
  for (std::int64_t step = 0; budget.more(); ++step) {
    const std::string what = "train step " + std::to_string(step);
    try {
      const nn::Batch batch = train_batch(ts.cfg, args.seed, step);
      nn::ModelParams before = *plain.params;
      runtime::IterationMetrics got, got_traced;
      std::int64_t t0 = 0, t1 = 0;
      for (int k = 0; k < (trace == nullptr ? 1 : 2); ++k) {
        const bool with_trace = trace != nullptr && (k + step) % 2 == 1;
        Replica& rep = with_trace ? traced : plain;
        const std::int64_t s0 = now_ns();
        runtime::IterationMetrics m = rep.trainer->train_step(batch);
        const std::int64_t s1 = now_ns();
        budget.spend(s1 - s0);
        if (with_trace) {
          layers.traced.push_back(ns_to_s(s1 - s0));
          got_traced = std::move(m);
          t0 = s0;
          t1 = s1;
        } else {
          got = std::move(m);
          step_s.push_back(ns_to_s(s1 - s0));
        }
      }
      double ref_s = 0;
      bool ok = matches_reference(std::move(before), batch, got, *plain.params, &ref_s);
      layers.reference.push_back(ref_s);
      if (trace != nullptr) {
        ok = ok && got_traced.micro_batch_losses == got.micro_batch_losses &&
             traced.params->max_diff(*plain.params) == 0.0;
        split_step(collector, got_traced, p, t0, t1, step < kStepsWithOpSpans,
                   *trace, layers);
      }
      r.record(ok, what + " differs from the sequential reference");
    } catch (const std::exception& e) {
      r.record(false, what + ": " + e.what());
    }
  }

  if (trace == nullptr) {
    set_end_to_end(r, setup_s, step_s,
                   tokens_per_step * static_cast<double>(step_s.size()));
    return r;
  }
  r.set("bench.root_s", mean(layers.root));
  r.set("tensor.pre_s", mean(layers.group[kPre]));
  r.set("tensor.attn_s", mean(layers.group[kAttn]));
  r.set("tensor.post_s", mean(layers.group[kPost]));
  r.set("runtime.optim_s", mean(layers.group[kOptim]));
  r.set("comm.op_s", mean(layers.group[kComm]));
  r.set("comm.recv_wait_exposed_s", mean(layers.wait));
  r.set("runtime.between_ops_s", mean(layers.between));
  r.set("comm.bytes_sent", median(layers.bytes));
  r.set("comm.messages", median(layers.messages));
  r.set("runtime.stage_idle_share", median(layers.idle));
  r.set("runtime.live_peak_bytes", median(layers.live_peak));
  r.set("runtime.ops", median(layers.ops));
  r.set("runtime.trainer_init_s", median(init_s));
  r.set("nn.reference_step_s", median(layers.reference));
  r.set("obs.trace_overhead", median(layers.traced) / median(step_s));
  return r;
}

}  // namespace perfbench
