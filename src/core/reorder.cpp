#include "core/reorder.h"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <vector>

namespace helix::core {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();
}

Schedule reorder_stage_programs(Schedule sched, const CostModel& cost) {
  const std::vector<Op>& ops = sched.ops;
  const std::size_t n = ops.size();
  const DepLists deps = pack_deps(sched);

  // Dependency edges: explicit deps plus the send->recv tag edge (a recv may
  // be *picked* before its send completes — it then blocks its comm lane —
  // but scheduling it before the send exists would be meaningless, so treat
  // the send as a dependency for candidacy while using its end time only for
  // the recv's completion).
  // Dense tag table (builder tags start at 0 and stay dense).
  std::int32_t max_tag = -1;
  for (const Op& op : ops) {
    if (is_comm(op.kind)) max_tag = std::max(max_tag, op.tag);
  }
  std::vector<OpId> send_by_tag(static_cast<std::size_t>(max_tag + 1), kNoOp);
  for (const Op& op : ops) {
    if (op.kind == OpKind::kSend && op.tag >= 0) {
      send_by_tag[static_cast<std::size_t>(op.tag)] = op.id;
    }
  }
  std::vector<int> missing(n, 0);
  std::vector<std::vector<OpId>> succ(n);
  std::vector<OpId> matching_send(n, kNoOp);
  for (const Op& op : ops) {
    const auto ui = static_cast<std::size_t>(op.id);
    for (std::uint32_t e = deps.offset[ui]; e < deps.offset[ui + 1]; ++e) {
      succ[static_cast<std::size_t>(deps.edges[e])].push_back(op.id);
      ++missing[ui];
    }
    if (op.kind == OpKind::kRecv) {
      const OpId s = op.tag < 0
                         ? kNoOp
                         : send_by_tag[static_cast<std::size_t>(op.tag)];
      if (s == kNoOp) throw std::logic_error("reorder: recv without send");
      matching_send[ui] = s;
      succ[static_cast<std::size_t>(s)].push_back(op.id);
      ++missing[ui];
    }
  }

  std::vector<double> dep_ready(n, 0.0);
  std::vector<double> data_ready(n, 0.0);  // recv: matching send end
  std::vector<double> lane_free(static_cast<std::size_t>(sched.num_stages) * 2, 0.0);
  const auto lane = [&](const Op& op) {
    return static_cast<std::size_t>(op.stage) * 2 + (is_comm(op.kind) ? 1 : 0);
  };

  std::vector<OpId> candidates;
  for (std::size_t i = 0; i < n; ++i) {
    if (missing[i] == 0) candidates.push_back(static_cast<OpId>(i));
  }

  struct Placed {
    double start;
    std::size_t seq;
    OpId id;
  };
  std::vector<std::vector<Placed>> placed(static_cast<std::size_t>(sched.num_stages));

  std::size_t seq = 0;
  std::size_t done = 0;
  while (done < n) {
    // Pick the candidate with the earliest feasible start; break ties by
    // earliest completion, then generator order.
    std::size_t best = candidates.size();
    double best_start = kInf, best_end = kInf;
    for (std::size_t ci = 0; ci < candidates.size(); ++ci) {
      const OpId id = candidates[ci];
      const Op& op = ops[static_cast<std::size_t>(id)];
      const std::size_t ui = static_cast<std::size_t>(id);
      const double start = std::max(lane_free[lane(op)], dep_ready[ui]);
      double end;
      if (op.kind == OpKind::kRecv) {
        end = std::max(start, data_ready[ui]);
      } else if (op.kind == OpKind::kSend) {
        end = start + cost.transfer_seconds(op.comm_elems);
      } else {
        end = start + cost.compute_seconds(op);
      }
      if (best == candidates.size() || start < best_start ||
          (start == best_start &&
           (end < best_end || (end == best_end && id < candidates[best])))) {
        best = ci;
        best_start = start;
        best_end = end;
      }
    }
    if (best == candidates.size()) {
      throw std::logic_error("reorder: dependency cycle");
    }
    const OpId id = candidates[best];
    candidates[best] = candidates.back();
    candidates.pop_back();
    const Op& op = ops[static_cast<std::size_t>(id)];
    const std::size_t ui = static_cast<std::size_t>(id);
    lane_free[lane(op)] = best_end;
    placed[static_cast<std::size_t>(op.stage)].push_back({best_start, seq++, id});
    ++done;
    for (OpId s : succ[ui]) {
      const std::size_t us = static_cast<std::size_t>(s);
      for (std::uint32_t e = deps.offset[us]; e < deps.offset[us + 1]; ++e) {
        if (deps.edges[e] == id) dep_ready[us] = std::max(dep_ready[us], best_end);
      }
      if (matching_send[us] == id) data_ready[us] = best_end;
      if (--missing[us] == 0) candidates.push_back(s);
    }
  }

  sched.programs.resize(static_cast<std::size_t>(sched.num_stages));
  for (int s = 0; s < sched.num_stages; ++s) {
    auto& v = placed[static_cast<std::size_t>(s)];
    std::sort(v.begin(), v.end(), [](const Placed& a, const Placed& b) {
      return a.start != b.start ? a.start < b.start : a.seq < b.seq;
    });
    std::vector<OpId>& program = sched.programs[static_cast<std::size_t>(s)];
    program.clear();
    for (const Placed& pl : v) program.push_back(pl.id);
  }
  return sched;
}

}  // namespace helix::core
