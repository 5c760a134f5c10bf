#include "tune/gate.h"

#include <cstring>
#include <set>
#include <sstream>

namespace helix::tune {

namespace {

constexpr std::uint64_t kInitSeed = 42;

bool bitwise_equal(const tensor::Tensor& a, const tensor::Tensor& b) {
  return a.shape() == b.shape() &&
         (a.numel() == 0 ||
          std::memcmp(a.data(), b.data(),
                      static_cast<std::size_t>(a.numel()) * sizeof(float)) == 0);
}

std::vector<const tensor::Tensor*> flat_params(const nn::ModelParams& p) {
  std::vector<const tensor::Tensor*> out{&p.wte, &p.wpe, &p.wlm};
  for (const auto& l : p.layers) {
    out.insert(out.end(), {&l.ln1_g, &l.ln1_b, &l.wqkv, &l.wo, &l.ln2_g,
                           &l.ln2_b, &l.w1, &l.w2});
  }
  return out;
}

bool params_bitwise_equal(const nn::ModelParams& a, const nn::ModelParams& b) {
  const auto fa = flat_params(a);
  const auto fb = flat_params(b);
  if (fa.size() != fb.size()) return false;
  for (std::size_t i = 0; i < fa.size(); ++i) {
    if (!bitwise_equal(*fa[i], *fb[i])) return false;
  }
  return true;
}

void check_losses(const std::vector<std::vector<double>>& got,
                  const std::vector<std::vector<double>>& want,
                  const std::string& label, GateResult& res) {
  for (std::size_t step = 0; step < want.size(); ++step) {
    if (step >= got.size() || got[step].size() != want[step].size()) {
      res.errors.push_back(label + ": step " + std::to_string(step) +
                           " loss count mismatch");
      return;
    }
    for (std::size_t mb = 0; mb < want[step].size(); ++mb) {
      if (got[step][mb] != want[step][mb]) {
        std::ostringstream os;
        os.precision(17);
        os << label << ": step " << step << " mb " << mb << " loss "
           << got[step][mb] << " != " << want[step][mb];
        res.errors.push_back(os.str());
      }
    }
  }
}

void check_adam_union(const std::vector<nn::AdamState>& ranks,
                      const nn::AdamState& ref, GateResult& res) {
  std::set<std::string> seen;
  for (std::size_t r = 0; r < ranks.size(); ++r) {
    for (const auto& [name, mv] : ranks[r].moments) {
      if (!seen.insert(name).second) {
        res.errors.push_back("adam: parameter " + name + " owned by two ranks");
        continue;
      }
      const auto it = ref.moments.find(name);
      if (it == ref.moments.end()) {
        res.errors.push_back("adam: state for unknown parameter " + name);
        continue;
      }
      if (!bitwise_equal(mv.first, it->second.first) ||
          !bitwise_equal(mv.second, it->second.second)) {
        res.errors.push_back("adam: moments diverge for " + name);
      }
    }
  }
  for (const auto& [name, mv] : ref.moments) {
    (void)mv;
    if (seen.find(name) == seen.end()) {
      res.errors.push_back("adam: no rank owns parameter " + name);
    }
  }
}

runtime::TrainerOptions options_for(const GateConfig& cfg,
                                    const core::Schedule& schedule,
                                    bool async) {
  runtime::TrainerOptions opt;
  // With an injected schedule the family only sets the stage count the
  // schedule is checked against; any pipelined family reads
  // pipeline_stages.
  opt.family = runtime::ScheduleFamily::kHelixNaive;
  opt.pipeline_stages = cfg.pipeline_stages;
  opt.mlp_chunks = cfg.mlp_chunks;
  opt.optimizer = cfg.adam ? runtime::OptimizerKind::kAdam
                           : runtime::OptimizerKind::kSgd;
  opt.async_comm = async;
  opt.schedule = &schedule;
  return opt;
}

}  // namespace

GateResult differential_gate(const core::Schedule& schedule,
                             const GateConfig& cfg) {
  GateResult res;
  // The numeric model always has an LM head; the interpreter computes the
  // loss (and seeds the backward pass) in the kLmHeadLoss handler. A
  // schedule built with include_lm_head = false has no such op and would
  // die deep in slot routing — reject it up front with an actionable error.
  int lm_head_ops = 0;
  for (const core::Op& op : schedule.ops) {
    if (op.kind == core::OpKind::kLmHeadLoss) ++lm_head_ops;
  }
  if (lm_head_ops != schedule.num_micro_batches) {
    res.errors.push_back(
        "schedule \"" + schedule.name + "\" has " +
        std::to_string(lm_head_ops) + " LmHeadLoss ops for " +
        std::to_string(schedule.num_micro_batches) +
        " micro batches; build the problem with include_lm_head = true to "
        "gate it numerically");
    return res;
  }
  const nn::Batch batch = nn::Batch::random(cfg.model, cfg.data_seed);

  // Sequential reference.
  nn::ModelParams ref = nn::ModelParams::init(cfg.model, kInitSeed);
  nn::AdamState ref_adam;
  std::vector<std::vector<double>> ref_losses;
  for (int s = 0; s < cfg.steps; ++s) {
    const nn::StepResult r =
        cfg.adam ? nn::reference_train_step_adam(ref, batch, ref_adam,
                                                 cfg.mlp_chunks)
                 : nn::reference_train_step(ref, batch, cfg.mlp_chunks);
    ref_losses.push_back(r.micro_batch_losses);
  }

  try {
    for (const bool async : {false, true}) {
      const std::string engine = async ? "async" : "blocking";
      nn::ModelParams params = nn::ModelParams::init(cfg.model, kInitSeed);
      runtime::Trainer trainer(params, options_for(cfg, schedule, async));
      std::vector<std::vector<double>> losses;
      for (int s = 0; s < cfg.steps; ++s) {
        losses.push_back(trainer.train_step(batch).micro_batch_losses);
      }
      check_losses(losses, ref_losses, engine + " vs reference", res);
      if (!params_bitwise_equal(params, ref)) {
        res.errors.push_back(engine +
                             " vs reference: final weights diverge (max |d| = " +
                             std::to_string(params.max_diff(ref)) + ")");
      }
      if (cfg.adam) check_adam_union(trainer.adam_states(), ref_adam, res);
    }
  } catch (const std::exception& e) {
    res.errors.push_back(std::string("exception: ") + e.what());
  }
  return res;
}

}  // namespace helix::tune
