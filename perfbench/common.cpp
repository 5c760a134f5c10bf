#include "common.h"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <stdexcept>

namespace perfbench {

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

namespace {

std::string number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(v) ? v : 0.0);
  return buf;
}

std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  return out + "\"";
}

}  // namespace

Budget::Budget(double seconds)
    : budget_ns_(static_cast<std::int64_t>(seconds * 1e9)),
      wall_deadline_ns_(now_ns() + 4 * budget_ns_) {}

bool Budget::more() const {
  return spent_ns_ < budget_ns_ && now_ns() < wall_deadline_ns_;
}

void Result::record(bool ok, const std::string& what) {
  ++attempted_;
  if (ok) return;
  ++failed_;
  if (failed_ <= 10) std::fprintf(stderr, "perfbench: FAILED %s\n", what.c_str());
}

std::string Result::json(const std::vector<MetricSpec>& specs, bool zero_fill) const {
  std::string out = "{\"correct\": ";
  out += failed_ == 0 && attempted_ > 0 ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted_);
  out += ", \"failed\": " + std::to_string(failed_);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const auto it = values_.find(specs[i].name);
    if (it == values_.end() && !zero_fill) {
      throw std::runtime_error(std::string("metric not measured: ") + specs[i].name);
    }
    if (i > 0) out += ", ";
    out += quoted(specs[i].name) + ": {\"value\": " +
           number(it == values_.end() ? 0.0 : it->second) +
           ", \"unit\": " + quoted(specs[i].unit) + "}";
  }
  return out + "}}";
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double tail(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double n = static_cast<double>(v.size());
  const double q = std::clamp(1.0 - 10.0 / n, 0.5, 0.9);
  const auto rank = static_cast<std::size_t>(std::ceil(q * n));  // nearest rank
  return std::max(median(v), v[std::max<std::size_t>(rank, 1) - 1]);
}

double geomean(const std::vector<double>& v) {
  if (v.empty()) return 0;
  double logs = 0;
  for (const double x : v) logs += std::log(x);
  return std::exp(logs / static_cast<double>(v.size()));
}

double sum(const std::vector<double>& v) {
  double s = 0;
  for (const double x : v) s += x;
  return s;
}

double mean(const std::vector<double>& v) {
  return v.empty() ? 0 : sum(v) / static_cast<double>(v.size());
}

int available_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 1;
  return std::max(1, CPU_COUNT(&set));
}

void check_thread_budget(int rank_threads, int comm_workers, int pool_threads) {
  const int total = std::max(rank_threads, 1) + comm_workers + (pool_threads - 1);
  const int cpus = available_cpus();
  std::fprintf(stderr,
               "perfbench: thread budget %d rank + %d comm worker + %d pool "
               "worker = %d of %d CPUs\n",
               std::max(rank_threads, 1), comm_workers, pool_threads - 1, total,
               cpus);
  if (total > cpus) {
    throw std::runtime_error("thread budget " + std::to_string(total) +
                             " exceeds the " + std::to_string(cpus) +
                             " available CPUs");
  }
}

std::int64_t peak_rss_bytes() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<std::int64_t>(ru.ru_maxrss) * 1024;  // Linux: KiB
}

std::uint64_t Rng::next() {
  std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

std::int64_t Rng::uniform(std::int64_t lo, std::int64_t hi) {
  return lo + static_cast<std::int64_t>(next() % static_cast<std::uint64_t>(hi - lo + 1));
}

int Trace::begin(const std::string& name, int pid, int tid, std::int64_t start_ns,
                 int parent) {
  spans_.push_back({name, pid, tid, start_ns, start_ns, parent, ""});
  return static_cast<int>(spans_.size()) - 1;
}

void Trace::end(int id, std::int64_t end_ns, const std::string& args) {
  Span& s = spans_[static_cast<std::size_t>(id)];
  s.end_ns = end_ns;
  s.args = args;
}

int Trace::span(const std::string& name, int pid, int tid, std::int64_t start_ns,
                std::int64_t end_ns, int parent, const std::string& args) {
  const int id = begin(name, pid, tid, start_ns, parent);
  end(id, end_ns, args);
  return id;
}

void Trace::write(const std::string& path) const {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write trace file " + path);
  std::int64_t epoch = spans_.empty() ? 0 : spans_.front().start_ns;
  for (const Span& s : spans_) epoch = std::min(epoch, s.start_ns);
  out << "{\"traceEvents\": [\n";
  char buf[160];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::snprintf(buf, sizeof(buf),
                  "\"ph\": \"X\", \"pid\": %d, \"tid\": %d, \"ts\": %.3f, "
                  "\"dur\": %.3f",
                  s.pid, s.tid, static_cast<double>(s.start_ns - epoch) * 1e-3,
                  static_cast<double>(s.end_ns - s.start_ns) * 1e-3);
    out << (i == 0 ? "" : ",\n") << "{\"name\": " << quoted(s.name) << ", "
        << buf << ", \"args\": {\"id\": " << i << ", \"parent\": " << s.parent
        << (s.args.empty() ? "" : ", ") << s.args << "}}";
  }
  out << "\n]}\n";
}

std::string arg(const std::string& key, double value) {
  return quoted(key) + ": " + number(value);
}

}  // namespace perfbench
