#include "core/reorder.h"

#include <algorithm>
#include <limits>
#include <numeric>
#include <stdexcept>
#include <vector>

namespace helix::core {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();
}

Schedule reorder_stage_programs(Schedule sched, const CostModel& cost) {
  const std::vector<Op>& ops = sched.ops;
  const std::size_t n = ops.size();

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
  const auto matching_send = [&](const Op& recv) {
    const OpId s = recv.tag < 0 ? kNoOp : send_by_tag[static_cast<std::size_t>(recv.tag)];
    if (s == kNoOp) throw std::logic_error("reorder: recv without send");
    return s;
  };

  // Successor edges, CSR-packed by source: the explicit deps, plus the
  // send->recv tag edge (a recv may be *picked* before its send completes —
  // it then blocks its comm lane — but scheduling it before the send exists
  // would be meaningless, so treat the send as a dependency for candidacy
  // while using its end time only for the recv's completion). Each entry
  // records which edge it is.
  struct Succ {
    OpId to;
    bool data;  ///< the send->recv edge: sets data_ready, not dep_ready
  };
  const auto known = [n](OpId id) { return id >= 0 && static_cast<std::size_t>(id) < n; };
  std::vector<std::uint32_t> succ_begin(n + 1, 0);
  std::vector<int> missing(n, 0);
  for (const Dep& d : sched.deps) {
    if (!known(d.op)) continue;
    if (!known(d.dep)) throw std::logic_error("reorder: dependency on an unknown op");
    ++succ_begin[static_cast<std::size_t>(d.dep) + 1];
    ++missing[static_cast<std::size_t>(d.op)];
  }
  for (const Op& op : ops) {
    if (op.kind != OpKind::kRecv) continue;
    ++succ_begin[static_cast<std::size_t>(matching_send(op)) + 1];
    ++missing[static_cast<std::size_t>(op.id)];
  }
  std::partial_sum(succ_begin.begin(), succ_begin.end(), succ_begin.begin());
  std::vector<Succ> succ(succ_begin[n]);
  {
    std::vector<std::uint32_t> at(succ_begin.begin(), succ_begin.end() - 1);
    for (const Dep& d : sched.deps) {
      if (known(d.op)) succ[at[static_cast<std::size_t>(d.dep)]++] = {d.op, false};
    }
    for (const Op& op : ops) {
      if (op.kind == OpKind::kRecv) {
        succ[at[static_cast<std::size_t>(matching_send(op))]++] = {op.id, true};
      }
    }
  }

  std::vector<double> dep_ready(n, 0.0);
  std::vector<double> data_ready(n, 0.0);  // recv: matching send end
  std::vector<double> lane_free(static_cast<std::size_t>(sched.num_stages) * 2, 0.0);

  // What the pick reads of a ready op, all final once its last predecessor
  // is placed. A recv ends at max(start, data); any other op at start + dur,
  // so its `data` is -inf and one formula serves both.
  struct Candidate {
    double ready;  ///< latest end of its dependencies
    double data;   ///< recv: its send's end; else -inf
    double dur;    ///< recv: 0
    std::uint32_t lane;
    OpId id;
  };
  const auto candidate = [&](OpId id) {
    const auto ui = static_cast<std::size_t>(id);
    const Op& op = ops[ui];
    const bool recv = op.kind == OpKind::kRecv;
    return Candidate{
        dep_ready[ui], recv ? data_ready[ui] : -kInf,
        recv ? 0.0
             : op.kind == OpKind::kSend ? cost.transfer_seconds(op.comm_elems)
                                        : cost.compute_seconds(op),
        static_cast<std::uint32_t>(op.stage) * 2 + (is_comm(op.kind) ? 1 : 0), id};
  };
  std::vector<Candidate> candidates;
  for (std::size_t i = 0; i < n; ++i) {
    if (missing[i] == 0) candidates.push_back(candidate(static_cast<OpId>(i)));
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
      const Candidate& c = candidates[ci];
      const double start = std::max(lane_free[c.lane], c.ready);
      const double end = std::max(start + c.dur, c.data);
      if (best == candidates.size() || start < best_start ||
          (start == best_start &&
           (end < best_end || (end == best_end && c.id < candidates[best].id)))) {
        best = ci;
        best_start = start;
        best_end = end;
      }
    }
    if (best == candidates.size()) {
      throw std::logic_error("reorder: dependency cycle");
    }
    const Candidate c = candidates[best];
    candidates[best] = candidates.back();
    candidates.pop_back();
    lane_free[c.lane] = best_end;
    placed[c.lane / 2].push_back({best_start, seq++, c.id});
    ++done;
    const auto ui = static_cast<std::size_t>(c.id);
    for (std::uint32_t e = succ_begin[ui]; e < succ_begin[ui + 1]; ++e) {
      const auto us = static_cast<std::size_t>(succ[e].to);
      if (succ[e].data) {
        data_ready[us] = best_end;
      } else {
        dep_ready[us] = std::max(dep_ready[us], best_end);
      }
      if (--missing[us] == 0) candidates.push_back(candidate(succ[e].to));
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
