#include "check/harness.h"

#include <cstring>
#include <set>
#include <sstream>
#include <utility>

#include "core/cost.h"
#include "core/validator.h"
#include "nn/reference.h"
#include "obs/prof.h"
#include "sim/simulator.h"

namespace helix::check {

using runtime::ScheduleFamily;
using runtime::Trainer;
using runtime::TrainerOptions;

namespace {

bool bitwise_equal(const tensor::Tensor& a, const tensor::Tensor& b) {
  // Stricter than max_diff == 0: NaN-safe and sign-of-zero-safe. The
  // determinism contract promises identical bits, so ask for identical bits.
  return a.shape() == b.shape() &&
         (a.numel() == 0 ||
          std::memcmp(a.data(), b.data(),
                      static_cast<std::size_t>(a.numel()) * sizeof(float)) == 0);
}

/// All parameter tensors of a ModelParams, in one flat list.
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

TrainerOptions options_for(const CheckConfig& c, ScheduleFamily f) {
  return {.family = f,
          .pipeline_stages = c.p,
          .recompute_without_attention = c.recompute,
          .mlp_chunks = c.mlp_chunks,
          .optimizer = c.adam ? runtime::OptimizerKind::kAdam
                              : runtime::OptimizerKind::kSgd,
          .threads = c.threads,
          .comm_lookahead = c.lookahead};
}

void check_ir(const core::Schedule& sched, FamilyReport& rep) {
  const core::ValidationResult results[] = {core::validate_structure(sched),
                                            core::validate_semantics(sched),
                                            core::validate_coverage(sched)};
  for (const auto& result : results) {
    for (const auto& e : result.errors) rep.errors.push_back("IR: " + e);
  }
}

void check_sim_leaks(const core::Schedule& sched, FamilyReport& rep) {
  const core::UnitCostModel unit;
  const auto sim = sim::Simulator(unit).run(sched);
  for (std::size_t s = 0; s < sim.stages.size(); ++s) {
    if (sim.stages[s].final_memory != 0) {
      rep.errors.push_back("sim: stage " + std::to_string(s) +
                           " leaks " + std::to_string(sim.stages[s].final_memory) +
                           " bytes (final_memory != base)");
    }
  }
}

/// Compare the union of per-rank Adam states against the reference state:
/// disjoint ownership, identical step counters, bitwise-equal moments, and
/// full coverage of the reference's parameter set.
void check_adam_union(const std::vector<nn::AdamState>& ranks,
                      const nn::AdamState& ref, FamilyReport& rep) {
  std::set<std::string> seen;
  for (std::size_t r = 0; r < ranks.size(); ++r) {
    const auto& st = ranks[r];
    if (st.moments.empty()) continue;
    if (st.step != ref.step) {
      rep.errors.push_back("adam: rank " + std::to_string(r) + " step " +
                           std::to_string(st.step) + " != reference " +
                           std::to_string(ref.step));
    }
    for (const auto& [name, mv] : st.moments) {
      if (!seen.insert(name).second) {
        rep.errors.push_back("adam: parameter " + name +
                             " owned by two ranks (double update)");
        continue;
      }
      const auto it = ref.moments.find(name);
      if (it == ref.moments.end()) {
        rep.errors.push_back("adam: rank " + std::to_string(r) +
                             " has state for unknown parameter " + name);
        continue;
      }
      if (!bitwise_equal(mv.first, it->second.first) ||
          !bitwise_equal(mv.second, it->second.second)) {
        rep.errors.push_back("adam: moments diverge for " + name);
      }
    }
  }
  for (const auto& [name, mv] : ref.moments) {
    (void)mv;
    if (seen.find(name) == seen.end()) {
      rep.errors.push_back("adam: no rank owns parameter " + name);
    }
  }
}

void check_losses(const std::vector<std::vector<double>>& got,
                  const std::vector<std::vector<double>>& want,
                  const std::string& label, FamilyReport& rep) {
  for (std::size_t step = 0; step < want.size(); ++step) {
    if (step >= got.size() || got[step].size() != want[step].size()) {
      rep.errors.push_back(label + ": step " + std::to_string(step) +
                           " loss count mismatch");
      return;
    }
    for (std::size_t mb = 0; mb < want[step].size(); ++mb) {
      if (got[step][mb] != want[step][mb]) {
        std::ostringstream os;
        os.precision(17);
        os << label << ": step " << step << " mb " << mb << " loss "
           << got[step][mb] << " != " << want[step][mb];
        rep.errors.push_back(os.str());
      }
    }
  }
}

/// The sequential reference (plain loops, no pipeline machinery): k steps
/// on cfg's data and init seeds.
struct Reference {
  nn::Batch batch;
  nn::ModelParams params;
  nn::AdamState adam;
  std::vector<std::vector<double>> losses;
};

Reference train_reference(const CheckConfig& cfg) {
  const nn::MiniGptConfig model = cfg.model();
  Reference ref{nn::Batch::random(model, cfg.data_seed),
                nn::ModelParams::init(model, cfg.init_seed), {}, {}};
  for (int s = 0; s < cfg.steps; ++s) {
    const nn::StepResult r =
        cfg.adam ? nn::reference_train_step_adam(ref.params, ref.batch,
                                                 ref.adam, cfg.mlp_chunks)
                 : nn::reference_train_step(ref.params, ref.batch,
                                            cfg.mlp_chunks);
    ref.losses.push_back(r.micro_batch_losses);
  }
  return ref;
}

/// Train `opt` under the blocking engine, then under the async engine, and
/// apply every check of the contract. Builder and runtime exceptions become
/// errors, so one bad run cannot mask the others.
FamilyReport check_run(const CheckConfig& cfg, const Reference& ref,
                       std::string name, TrainerOptions opt) {
  HELIX_PROF_SCOPE("check.family");
  FamilyReport rep;
  rep.family = std::move(name);
  const nn::MiniGptConfig model = cfg.model();
  try {
    // Blocking engine.
    nn::ModelParams params = nn::ModelParams::init(model, cfg.init_seed);
    Trainer trainer(params, opt);
    check_ir(trainer.schedule(), rep);
    check_sim_leaks(trainer.schedule(), rep);
    std::vector<std::vector<double>> losses;
    for (int s = 0; s < cfg.steps; ++s) {
      losses.push_back(trainer.train_step(ref.batch).micro_batch_losses);
    }
    check_losses(losses, ref.losses, "blocking vs reference", rep);
    if (!params_bitwise_equal(params, ref.params)) {
      rep.errors.push_back(
          "blocking vs reference: final weights diverge (max |d| = " +
          std::to_string(params.max_diff(ref.params)) + ")");
    }
    if (cfg.adam) check_adam_union(trainer.adam_states(), ref.adam, rep);

    // Async engine rerun: must agree bit-identically with the blocking
    // engine (and therefore the reference).
    opt.async_comm = true;
    nn::ModelParams params_async = nn::ModelParams::init(model, cfg.init_seed);
    Trainer async_trainer(params_async, opt);
    std::vector<std::vector<double>> async_losses;
    for (int s = 0; s < cfg.steps; ++s) {
      async_losses.push_back(
          async_trainer.train_step(ref.batch).micro_batch_losses);
    }
    check_losses(async_losses, losses, "async vs blocking", rep);
    if (!params_bitwise_equal(params_async, params)) {
      rep.errors.push_back(
          "async vs blocking: final weights diverge (max |d| = " +
          std::to_string(params_async.max_diff(params)) + ")");
    }
    if (cfg.adam) check_adam_union(async_trainer.adam_states(), ref.adam, rep);
  } catch (const std::exception& e) {
    rep.errors.push_back(std::string("exception: ") + e.what());
  }
  return rep;
}

}  // namespace

ConfigReport run_config(const CheckConfig& cfg) {
  HELIX_PROF_SCOPE("check.config");
  ConfigReport report;
  report.config = cfg;
  const Reference ref = train_reference(cfg);
  for (const ScheduleFamily family : applicable_families(cfg)) {
    report.families.push_back(
        check_run(cfg, ref, family_name(family), options_for(cfg, family)));
  }
  return report;
}

FamilyReport check_schedule(const CheckConfig& cfg,
                            const core::Schedule& schedule) {
  // With an injected schedule the family only sets the stage count the
  // schedule is checked against; any pipelined family reads pipeline_stages.
  TrainerOptions opt = options_for(cfg, ScheduleFamily::kHelixNaive);
  opt.schedule = &schedule;
  return check_run(cfg, train_reference(cfg), schedule.name, opt);
}

std::string render_report(const ConfigReport& report) {
  std::ostringstream os;
  os << (report.ok() ? "ok  " : "FAIL") << "  " << report.config.name() << "  [";
  for (std::size_t i = 0; i < report.families.size(); ++i) {
    if (i > 0) os << " ";
    os << report.families[i].family
       << (report.families[i].ok() ? "" : "(FAIL)");
  }
  os << "]";
  if (report.families.empty()) os << "  (no applicable families)";
  for (const auto& f : report.families) {
    for (const auto& e : f.errors) {
      os << "\n    " << f.family << ": " << e;
    }
  }
  return os.str();
}

}  // namespace helix::check
