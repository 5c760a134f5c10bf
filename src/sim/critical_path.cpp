#include "sim/critical_path.h"

#include <algorithm>
#include <cstdio>
#include <sstream>
#include <stdexcept>

#include "obs/prof.h"
#include "sim/trace.h"

namespace helix::sim {

using core::CompiledSchedule;
using core::Op;
using core::OpId;
using core::OpKind;

const char* to_string(PathSegment s) noexcept {
  switch (s) {
    case PathSegment::kCompute: return "compute";
    case PathSegment::kComm: return "comm";
    case PathSegment::kWait: return "wait";
  }
  return "?";
}

namespace {

PathSegment segment_of(OpKind kind) noexcept {
  if (kind == OpKind::kSend) return PathSegment::kComm;
  if (kind == OpKind::kRecv) return PathSegment::kWait;
  return PathSegment::kCompute;
}

/// The predecessor whose completion bound op `id`'s start (or, for a Recv
/// whose wait ended at data arrival, its end), or kNoOp at the chain head.
/// Binding times are exact double copies of the predecessor's end (the
/// relaxation propagates them through std::max), so equality comparison is
/// exact; `slack` only guards against future cost models doing arithmetic.
OpId binding_pred(const CompiledSchedule& cs, const SimResult& res, OpId id,
                  double slack) {
  const std::size_t ui = static_cast<std::size_t>(id);
  const OpKind kind = cs.op(id).kind;
  const double start = res.op_times[ui].start;
  const double end = res.op_times[ui].end;

  // A Recv that actually waited ended at the matching Send's completion.
  if (kind == OpKind::kRecv) {
    const OpId send = cs.matching_send[ui];
    if (send != core::kNoOp && end > start &&
        res.op_times[static_cast<std::size_t>(send)].end >= end - slack) {
      return send;
    }
  }
  if (start <= slack) return core::kNoOp;  // chain head: started at time 0

  // Prefer explicit dependencies over stream occupancy: "B waited for its
  // producer" names a cause, "B waited for the previous op on the stream"
  // merely restates in-order execution.
  for (const OpId* it = cs.deps_begin(id); it != cs.deps_end(id); ++it) {
    if (res.op_times[static_cast<std::size_t>(*it)].end >= start - slack) {
      return *it;
    }
  }
  const OpId sp = cs.stream_pred[ui];
  if (sp != core::kNoOp &&
      res.op_times[static_cast<std::size_t>(sp)].end >= start - slack) {
    return sp;
  }
  // Recv whose start (not end) was bound by nothing but data arrival can
  // still be data-bound when the wait was zero.
  if (kind == OpKind::kRecv) {
    const OpId send = cs.matching_send[ui];
    if (send != core::kNoOp &&
        res.op_times[static_cast<std::size_t>(send)].end >= start - slack) {
      return send;
    }
  }
  return core::kNoOp;
}

}  // namespace

CriticalPathReport critical_path(const CompiledSchedule& cs,
                                 const SimResult& result) {
  HELIX_PROF_SCOPE("sim.critical_path");
  const std::size_t n = cs.num_ops();
  if (result.op_times.size() != n) {
    throw std::invalid_argument(
        "critical_path: SimResult does not match the schedule (op count " +
        std::to_string(result.op_times.size()) + " vs " + std::to_string(n) +
        ")");
  }

  CriticalPathReport report;
  report.makespan = result.makespan;
  if (n == 0) return report;
  const double slack = 1e-12 * (result.makespan + 1.0);

  // Walk back from the op that ends at the makespan.
  OpId tail = 0;
  for (std::size_t i = 1; i < n; ++i) {
    if (result.op_times[i].end > result.op_times[static_cast<std::size_t>(tail)].end) {
      tail = static_cast<OpId>(i);
    }
  }
  for (OpId cur = tail; cur != core::kNoOp;) {
    const std::size_t ui = static_cast<std::size_t>(cur);
    const Op& op = cs.op(cur);
    report.chain.push_back({cur, op.stage, op.kind, result.op_times[ui].start,
                            result.op_times[ui].end, segment_of(op.kind)});
    if (report.chain.size() > n) {
      throw std::logic_error("critical_path: chain longer than the op count");
    }
    cur = binding_pred(cs, result, cur, slack);
  }
  std::reverse(report.chain.begin(), report.chain.end());
  // A node's recorded interval can overlap its binding predecessor (a
  // blocking Recv is queued long before the Send that releases it finishes).
  // Clamp each start to the predecessor's end so the chain stores only the
  // binding portion of every op: the intervals then tile [0, makespan) and
  // the segment sums decompose the makespan instead of double counting.
  for (std::size_t i = 1; i < report.chain.size(); ++i) {
    report.chain[i].start =
        std::max(report.chain[i].start, report.chain[i - 1].end);
    report.chain[i].end = std::max(report.chain[i].end, report.chain[i].start);
  }
  for (const CriticalPathNode& node : report.chain) {
    const double d = node.end - node.start;
    switch (node.segment) {
      case PathSegment::kCompute: report.compute_s += d; break;
      case PathSegment::kComm: report.comm_s += d; break;
      case PathSegment::kWait: report.wait_s += d; break;
    }
  }
  HELIX_PROF_COUNT("sim.critical_path.chain_ops", report.chain.size());

  // Per-stage bubble attribution: walk each compute stream's gaps and
  // charge each gap interval to the bound that was still outstanding there.
  for (int s = 0; s < cs.num_stages; ++s) {
    StageBubble sb;
    sb.stage = s;
    sb.bubble_s = result.stages[static_cast<std::size_t>(s)].bubble;
    double prev_end = 0;
    for (const OpId* it = cs.compute_begin(s); it != cs.compute_end(s); ++it) {
      const OpId id = *it;
      const auto& t = result.op_times[static_cast<std::size_t>(id)];
      if (t.start > prev_end) {
        // The gap [prev_end, start) exists because start = max(stream pred
        // end = prev_end, dep ends): charge [prev_end, other_bound) to
        // dependency stall and the rest, up to the latest Recv-delivered
        // dependency, to comm (the data was not on this rank yet).
        double other_bound = 0;
        double recv_bound = 0;
        for (const OpId* d = cs.deps_begin(id); d != cs.deps_end(id); ++d) {
          const double end = result.op_times[static_cast<std::size_t>(*d)].end;
          if (cs.op(*d).kind == OpKind::kRecv) {
            recv_bound = std::max(recv_bound, end);
          } else {
            other_bound = std::max(other_bound, end);
          }
        }
        double at = prev_end;
        if (other_bound > at) {
          const double to = std::min(t.start, other_bound);
          sb.dependency_s += to - at;
          at = to;
        }
        if (recv_bound > at) {
          const double to = std::min(t.start, recv_bound);
          sb.comm_s += to - at;
          at = to;
        }
        sb.idle_s += t.start - at;  // fp residue only: start = max(bounds)
      }
      prev_end = t.end;
    }
    sb.idle_s += std::max(0.0, result.makespan - prev_end);  // cooldown
    report.stages.push_back(sb);
  }
  return report;
}

CriticalPathReport critical_path(const core::Schedule& sched,
                                 const SimResult& result) {
  return critical_path(CompiledSchedule::build(sched), result);
}

std::string render_critical_path(const CriticalPathReport& report) {
  std::ostringstream os;
  char line[192];
  std::snprintf(line, sizeof(line),
                "critical path: %zu ops bind the %.6g-unit makespan — "
                "compute %.6g (%.1f%%), comm %.6g (%.1f%%), data wait %.6g "
                "(%.1f%%)\n",
                report.chain.size(), report.makespan, report.compute_s,
                report.makespan > 0 ? 100 * report.compute_s / report.makespan : 0,
                report.comm_s,
                report.makespan > 0 ? 100 * report.comm_s / report.makespan : 0,
                report.wait_s,
                report.makespan > 0 ? 100 * report.wait_s / report.makespan : 0);
  os << line;
  os << "  bubble attribution per stage (of makespan - compute_busy)\n";
  os << "  stage     bubble  dependency        comm        idle  attributed\n";
  for (const auto& s : report.stages) {
    std::snprintf(line, sizeof(line),
                  "  P%-4d %10.6g  %10.6g  %10.6g  %10.6g      %5.1f%%\n",
                  s.stage, s.bubble_s, s.dependency_s, s.comm_s, s.idle_s,
                  s.bubble_s > 0 ? 100 * s.attributed_s() / s.bubble_s : 100.0);
    os << line;
  }
  std::snprintf(line, sizeof(line),
                "  total bubble %.6g, attributed %.6g (%.1f%%)\n",
                report.total_bubble(), report.attributed_bubble(),
                100 * report.attributed_fraction());
  os << line;
  return os.str();
}

std::string render_critical_path(const CriticalPathReport& report,
                                 const core::Schedule& sched,
                                 std::size_t max_chain_rows) {
  std::ostringstream os;
  os << render_critical_path(report);
  char line[192];
  if (max_chain_rows > 0) {
    os << "  chain (time order):\n";
    std::size_t shown = 0;
    for (const CriticalPathNode& node : report.chain) {
      if (shown++ >= max_chain_rows) {
        std::snprintf(line, sizeof(line), "  ... %zu more\n",
                      report.chain.size() - max_chain_rows);
        os << line;
        break;
      }
      std::snprintf(line, sizeof(line),
                    "  [%10.6g, %10.6g) P%-3d %-8s %s\n", node.start, node.end,
                    node.stage, to_string(node.segment),
                    op_event_name(sched.ops[static_cast<std::size_t>(node.op)]).c_str());
      os << line;
    }
  }
  return os.str();
}

}  // namespace helix::sim
