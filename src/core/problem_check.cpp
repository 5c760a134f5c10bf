#include "core/problem_check.h"

#include <sstream>
#include <stdexcept>

namespace helix::core {

namespace {

[[noreturn]] void reject(const ScheduleRequirements& req, const std::string& what) {
  throw std::invalid_argument(req.family + ": " + what);
}

std::string nearest_multiples(int divisor) {
  std::ostringstream os;
  os << divisor << ", " << 2 * divisor << ", " << 3 * divisor << ", ...";
  return os.str();
}

}  // namespace

void validate_problem(const PipelineProblem& pr, const ScheduleRequirements& req) {
  if (pr.p < 1) {
    reject(req, "pipeline stages p=" + std::to_string(pr.p) +
                    " must be >= 1 (one thread/device per stage)");
  }
  if (pr.m < 1) {
    reject(req, "micro batches m=" + std::to_string(pr.m) +
                    " must be >= 1 (one iteration trains at least one micro batch)");
  }
  if (pr.L < 1) {
    reject(req, "transformer layers L=" + std::to_string(pr.L) + " must be >= 1");
  }
  // Op::stage, Op::mb and Op::layer are 16-bit: refuse a larger shape here,
  // before a builder allocates for every stage, micro batch and layer.
  const auto limit = [&](const char* field, int v) {
    if (v > kMaxShape) {
      reject(req, std::string(field) + "=" + std::to_string(v) + " exceeds " +
                      std::to_string(kMaxShape) + ", the IR's 16-bit limit");
    }
  };
  limit("pipeline stages p", pr.p);
  limit("micro batches m", pr.m);
  limit("transformer layers L", pr.L);
  const int chunk = req.layer_divisor_per_stage;
  if (chunk < 1) {
    reject(req, "layer_divisor_per_stage=" + std::to_string(chunk) +
                    " must be >= 1 (builder misconfiguration)");
  }
  if (!req.uniform_layer_partition) {
    if (pr.L < pr.p) {
      reject(req, "L=" + std::to_string(pr.L) + " layers cannot give each of p=" +
                      std::to_string(pr.p) +
                      " stages at least one layer: need L >= p");
    }
  } else if (pr.L % (pr.p * chunk) != 0) {
    std::ostringstream os;
    os << "L=" << pr.L << " layers cannot be split evenly across p=" << pr.p
       << " stages";
    if (chunk > 1) os << " x " << chunk << " virtual chunks";
    os << ": L must be a multiple of " << pr.p * chunk << " (valid L: "
       << nearest_multiples(pr.p * chunk) << ")";
    reject(req, os.str());
  }
  if (req.micro_batch_divisor > 1 && pr.m % req.micro_batch_divisor != 0) {
    std::ostringstream os;
    os << "m=" << pr.m << " micro batches is not a multiple of "
       << req.micro_batch_divisor;
    if (!req.micro_batch_reason.empty()) os << " (" << req.micro_batch_reason << ")";
    os << "; valid m: " << nearest_multiples(req.micro_batch_divisor);
    reject(req, os.str());
  }
}

ScheduleRequirements layerwise_requirements(std::string family) {
  ScheduleRequirements req;
  req.family = std::move(family);
  return req;
}

ScheduleRequirements adapipe_requirements() {
  ScheduleRequirements req;
  req.family = "AdaPipe";
  req.uniform_layer_partition = false;
  return req;
}

ScheduleRequirements interleaved_requirements(int virtual_chunks, int p) {
  ScheduleRequirements req;
  req.family = "interleaved-1f1b-v" + std::to_string(virtual_chunks);
  req.layer_divisor_per_stage = virtual_chunks;
  req.micro_batch_divisor = p;
  req.micro_batch_reason = "Megatron's interleaved order groups micro batches "
                           "in rounds of p=" + std::to_string(p);
  return req;
}

ScheduleRequirements helix_requirements(bool two_fold, int p) {
  ScheduleRequirements req;
  req.family = two_fold ? "helix-two-fold" : "helix-naive";
  req.micro_batch_divisor = two_fold ? 2 * p : p;
  std::ostringstream os;
  os << "one " << (two_fold ? "two-fold " : "") << "FILO loop admits exactly "
     << (two_fold ? "2 micro batches per fold slot, 2p=" : "1 micro batch per fold slot, p=")
     << (two_fold ? 2 * p : p) << " per loop";
  req.micro_batch_reason = os.str();
  return req;
}

}  // namespace helix::core
