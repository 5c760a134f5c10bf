#include "gen.h"

#include <stdexcept>

namespace perfbench {

using namespace helix;

namespace {

// Per-purpose stream salts, so the plan, tune and train draws of one seed
// are independent of each other.
constexpr std::uint64_t kPlanSalt = 0x706c616e;
constexpr std::uint64_t kTuneSalt = 0x74756e65;
constexpr std::uint64_t kParamSalt = 0x706172616d;
constexpr std::uint64_t kBatchSalt = 0x6261746368;

std::uint64_t mix(std::uint64_t seed, std::uint64_t salt) {
  return Rng(seed ^ (salt * 0x9e3779b97f4a7c15ull)).next();
}

std::uint64_t fnv1a(const void* p, std::size_t n, std::uint64_t h) {
  const auto* b = static_cast<const unsigned char*>(p);
  for (std::size_t i = 0; i < n; ++i) h = (h ^ b[i]) * 0x100000001b3ull;
  return h;
}

std::uint64_t hash_tensor(const tensor::Tensor& t, std::uint64_t h) {
  return fnv1a(t.data(), static_cast<std::size_t>(t.numel()) * sizeof(float), h);
}

}  // namespace

PlanStream::PlanStream(std::uint64_t seed) : rng_(mix(seed, kPlanSalt)) {}

PlanQuery PlanStream::next() {
  const std::int64_t q = issued_++ % kPlanSessionQueries;
  if (q % 4 == 3) {
    const auto last = static_cast<std::int64_t>(shapes_.size()) - 1;
    return {false, true, static_cast<int>(rng_.uniform(session_start_, last))};
  }
  if (q == 0) session_start_ = static_cast<int>(shapes_.size());
  if (block_.empty()) {
    for (int m = 0; m < 4; ++m) {
      for (int k = 0; k < kPlanModelWeights[m]; ++k) {
        block_.push_back({m, rng_.uniform(16, 256) * 1024, k % 2});
      }
    }
    rng_.shuffle(block_);
  }
  shapes_.push_back(block_.back());
  block_.pop_back();
  return {q == 0, false, static_cast<int>(shapes_.size()) - 1};
}

TuneStream::TuneStream(std::uint64_t seed) : rng_(mix(seed, kTuneSalt)) {}

TuneJob TuneStream::next() {
  if (block_.empty()) {
    std::vector<std::uint64_t> seeds;
    for (int i = 1; i <= kTuneSeeds; ++i) seeds.push_back(static_cast<std::uint64_t>(i));
    rng_.shuffle(seeds);
    for (const std::uint64_t ts : seeds) {
      std::vector<TuneJob> round;
      for (int s = 0; s < 3; ++s) round.push_back({s, ts});
      rng_.shuffle(round);
      block_.insert(block_.begin(), round.begin(), round.end());
    }
  }
  const TuneJob job = block_.back();
  block_.pop_back();
  return job;
}

TrainSetup train_setup(const std::string& workload) {
  TrainSetup s;
  if (workload == "train_long_seq") {
    // seq = 8h: attention and the pre->attn->post transfers dominate.
    s.cfg = {.layers = 4, .hidden = 32, .heads = 4, .seq = 256, .batch = 1,
             .vocab = 64, .micro_batches = 4, .lr = 0.05f};
    s.stages = 2;
    s.async_comm = true;
  } else if (workload == "train_short_seq") {
    // h = 2 seq and ~1800 ops per step: pre/post kernels and per-op
    // bookkeeping dominate, attention is a small share. Two ranks, not
    // four: a blocking pipeline that fills every CPU doubles its step time
    // whenever the host takes one of them away.
    s.cfg = {.layers = 8, .hidden = 32, .heads = 4, .seq = 16, .batch = 1,
             .vocab = 64, .micro_batches = 16, .lr = 0.05f};
    s.stages = 2;
    s.async_comm = false;
  } else {
    throw std::invalid_argument("not a train workload: " + workload);
  }
  return s;
}

std::uint64_t param_seed(std::uint64_t seed) { return mix(seed, kParamSalt); }

nn::Batch train_batch(const nn::MiniGptConfig& cfg, std::uint64_t seed,
                      std::int64_t step) {
  return nn::Batch::random(
      cfg, mix(seed, kBatchSalt) + static_cast<std::uint64_t>(step));
}

void dump_inputs(const std::string& workload, std::uint64_t seed, std::ostream& out) {
  out << "workload " << workload << " seed " << seed << "\n";
  if (workload == "plan_sweep") {
    PlanStream s(seed);
    for (int i = 0; i < 64; ++i) {
      const PlanQuery q = s.next();
      const PlanShape& sh = s.shapes()[static_cast<std::size_t>(q.shape)];
      out << (q.new_session ? "session " : "") << (q.repeat ? "repeat " : "new ")
          << q.shape << " "
          << kPlanModels[sh.model] << " " << sh.seq << " "
          << kPlanClusters[sh.cluster] << "\n";
    }
  } else if (workload == "tune_search") {
    TuneStream s(seed);
    for (int i = 0; i < 3 * kTuneSeeds * 2; ++i) {
      const TuneJob j = s.next();
      const TuneShape& sh = kTuneShapes[j.shape];
      out << "p " << sh.p << " L " << sh.L << " m " << 2 * sh.p << " tune_seed "
          << j.tune_seed << "\n";
    }
  } else {
    const TrainSetup ts = train_setup(workload);
    const nn::ModelParams params = nn::ModelParams::init(ts.cfg, param_seed(seed));
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (const nn::LayerParams& l : params.layers) {
      for (const tensor::Tensor* t : {&l.ln1_g, &l.ln1_b, &l.wqkv, &l.wo, &l.ln2_g,
                                      &l.ln2_b, &l.w1, &l.w2}) {
        h = hash_tensor(*t, h);
      }
    }
    h = hash_tensor(params.wlm, hash_tensor(params.wpe, hash_tensor(params.wte, h)));
    out << "params " << params.layers.size() << " layers fnv1a " << h << "\n";
    for (int step = 0; step < 2; ++step) {
      const nn::Batch b = train_batch(ts.cfg, seed, step);
      for (std::size_t mb = 0; mb < b.tokens.size(); ++mb) {
        out << "step " << step << " mb " << mb << " tokens";
        for (const int t : b.tokens[mb]) out << " " << t;
        out << " targets";
        for (const int t : b.targets[mb]) out << " " << t;
        out << "\n";
      }
    }
  }
}

}  // namespace perfbench
