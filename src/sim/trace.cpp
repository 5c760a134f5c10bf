#include "sim/trace.h"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <vector>

namespace helix::sim {

using core::Op;
using core::OpKind;

namespace {

char mb_digit(int mb) {
  if (mb < 0) return '#';
  if (mb < 10) return static_cast<char>('0' + mb);
  if (mb < 36) return static_cast<char>('a' + mb - 10);
  return '+';
}

/// One fill character per op kind; micro batch digit used for fwd/bwd parts.
char op_char(const Op& op) {
  switch (op.kind) {
    case OpKind::kEmbedFwd:
    case OpKind::kEmbedBwd:
      return 'e';
    case OpKind::kFwdPre:
    case OpKind::kFwdPost:
    case OpKind::kFwdAttn:
    case OpKind::kBwdPre:
    case OpKind::kBwdPost:
    case OpKind::kBwdAttn:
      return mb_digit(op.mb);
    case OpKind::kLmHeadLoss:
      return 'L';
    case OpKind::kBwdWPre:
    case OpKind::kBwdWPost:
      return 'w';
    case OpKind::kRecomputePre:
    case OpKind::kRecomputeAttn:
    case OpKind::kRecomputePost:
      return 'r';
    case OpKind::kOptimStep:
      return 'O';
    case OpKind::kSend:
      return '>';
    case OpKind::kRecv:
      return '<';
  }
  return '?';
}

}  // namespace

std::string render_ascii_timeline(const core::Schedule& sched,
                                  const SimResult& result,
                                  const TimelineOptions& opt) {
  const int cols = std::min<int>(
      opt.max_cols, static_cast<int>(std::ceil(result.makespan / opt.time_per_col)));
  std::ostringstream os;
  for (int s = 0; s < sched.num_stages; ++s) {
    std::string compute(static_cast<std::size_t>(cols), '.');
    std::string comm(static_cast<std::size_t>(cols), '.');
    for (const core::OpId id : sched.programs[static_cast<std::size_t>(s)]) {
      const Op& op = sched.ops[static_cast<std::size_t>(id)];
      const auto& t = result.op_times[static_cast<std::size_t>(id)];
      int c0 = static_cast<int>(std::floor(t.start / opt.time_per_col));
      int c1 = static_cast<int>(std::ceil(t.end / opt.time_per_col));
      c0 = std::clamp(c0, 0, cols);
      c1 = std::clamp(std::max(c1, c0 + (t.end > t.start ? 1 : 0)), 0, cols);
      std::string& row = core::is_comm(op.kind) ? comm : compute;
      const char ch = op_char(op);
      for (int c = c0; c < c1; ++c) row[static_cast<std::size_t>(c)] = ch;
    }
    os << "P" << s << " |" << compute << "|\n";
    if (opt.show_comm) os << "   |" << comm << "| (comm)\n";
  }
  return os.str();
}

std::string op_event_name(const core::Op& op) {
  std::ostringstream os;
  os << core::to_string(op.kind) << " mb" << op.mb << " l" << op.layer;
  return os.str();
}

std::string chrome_trace_json(const std::vector<ChromeEvent>& events) {
  return chrome_trace_json(events, {});
}

std::string chrome_trace_json(const std::vector<ChromeEvent>& events,
                              const std::vector<ChromeCounterEvent>& counters) {
  std::ostringstream os;
  os << "[";
  bool first = true;
  for (const ChromeEvent& e : events) {
    if (!first) os << ",";
    first = false;
    os << "\n{\"name\":\"" << e.name << "\",\"ph\":\"X\",\"pid\":" << e.pid
       << ",\"tid\":" << e.tid << ",\"ts\":" << e.ts_us << ",\"dur\":" << e.dur_us
       << "}";
  }
  for (const ChromeCounterEvent& c : counters) {
    if (!first) os << ",";
    first = false;
    os << "\n{\"name\":\"" << c.name << "\",\"ph\":\"C\",\"pid\":" << c.pid
       << ",\"tid\":0,\"ts\":" << c.ts_us << ",\"args\":{";
    bool first_series = true;
    for (const auto& [series, value] : c.series) {
      if (!first_series) os << ",";
      first_series = false;
      os << "\"" << series << "\":";
      // Byte counters must not lose digits to the stream's 6-significant-
      // figure double formatting; emit whole-number samples as integers.
      const double rounded = std::floor(value);
      if (rounded == value && std::abs(value) < 9.0e15) {
        os << static_cast<long long>(value);
      } else {
        os << value;
      }
    }
    os << "}}";
  }
  os << "\n]\n";
  return os.str();
}

std::string to_chrome_trace(const core::Schedule& sched, const SimResult& result) {
  std::vector<ChromeEvent> events;
  events.reserve(sched.total_ops());
  for (const auto& program : sched.programs) {
    for (const core::OpId id : program) {
      const Op& op = sched.ops[static_cast<std::size_t>(id)];
      const auto& t = result.op_times[static_cast<std::size_t>(id)];
      events.push_back({op_event_name(op), op.stage,
                        core::is_comm(op.kind) ? kChromeCommTid : kChromeComputeTid,
                        t.start * 1e6, (t.end - t.start) * 1e6});
    }
  }
  return chrome_trace_json(events);
}

std::string dump_op_log(const core::Schedule& sched, const SimResult& result) {
  struct Row {
    double start, end;
    const Op* op;
  };
  std::vector<Row> rows;
  for (const auto& program : sched.programs) {
    for (const core::OpId id : program) {
      const auto& t = result.op_times[static_cast<std::size_t>(id)];
      rows.push_back({t.start, t.end, &sched.ops[static_cast<std::size_t>(id)]});
    }
  }
  std::sort(rows.begin(), rows.end(), [](const Row& a, const Row& b) {
    return a.start != b.start ? a.start < b.start : a.op->id < b.op->id;
  });
  std::ostringstream os;
  for (const Row& r : rows) {
    os << "[" << r.start << ", " << r.end << ") P" << r.op->stage << " "
       << core::to_string(r.op->kind) << " mb=" << r.op->mb
       << " layer=" << r.op->layer;
    if (core::is_comm(r.op->kind)) os << " peer=" << r.op->peer << " tag=" << r.op->tag;
    os << "\n";
  }
  return os.str();
}

}  // namespace helix::sim
