#pragma once

#include <string>
#include <vector>

#include "core/ir.h"
#include "nn/reference.h"
#include "runtime/trainer.h"

// Differential semantics gate for tuner-emitted schedules (the numeric half
// of the helix_check contract). Where the search's in-loop IR gate proves a
// candidate *structurally* sound, this gate *executes* it: the schedule is
// injected into runtime::Trainer (TrainerOptions::schedule), trained for a
// few steps on a real mini-GPT under both comm engines, and compared
// bit-for-bit — per-micro-batch losses, final weights and (under Adam) the
// union of per-rank optimizer moments — against the sequential reference.
// A schedule that passes computes exactly what an unpiplined iteration
// does, whatever order the tuner put its cells in.
namespace helix::tune {

struct GateConfig {
  nn::MiniGptConfig model;  ///< must match the schedule's p/m/L
  int pipeline_stages = 2;
  int mlp_chunks = 1;  ///< must match how the schedule's ops were generated
  bool adam = false;
  int steps = 2;
  std::uint64_t data_seed = 1234;
};

struct GateResult {
  std::vector<std::string> errors;  ///< empty = bit-identical everywhere
  bool ok() const { return errors.empty(); }
};

GateResult differential_gate(const core::Schedule& schedule,
                             const GateConfig& cfg);

}  // namespace helix::tune
