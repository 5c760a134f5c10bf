// Diff two BENCH_*.json files produced by bench_selfperf (or any bench using
// the same schema) and report per-metric regressions beyond a noise
// threshold.
//
//   perf_compare BASELINE.json CANDIDATE.json [--threshold FRAC]
//                [--fail-on-regression] [--only PREFIX]...
//
// --only (repeatable) restricts the diff to metric/counter keys with the
// given prefix, e.g. `--only build/ --only sim/` gates CI on the
// deterministic sections while train/ timings stay informational.
//
// A metric regresses when candidate.trimmed_mean_s exceeds
// baseline.trimmed_mean_s by more than --threshold (default 0.25 — self-timed
// CI machines are noisy; the default errs toward silence). Counters compare
// exactly: any drift in a deterministic counter (op counts, graph edges,
// realloc canaries) is reported regardless of threshold. Exit code is 0
// unless --fail-on-regression is given and a regression (or counter drift)
// was found — the informational default lets CI upload the comparison
// without gating merges on wall-clock noise. A --threshold that is not a
// finite number >= 0 read whole, a flag without its value, an unknown flag
// or a third file prints the message and the usage and exits 2.
//
// The parser covers exactly the JSON subset bench/json.h emits: objects,
// arrays, strings with escapes, numbers, booleans, null. Unknown keys are
// ignored, so schema growth stays backward compatible.
#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "only_filter.h"

namespace {

// ------------------------------------------------------- minimal JSON value

struct JsonValue {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0;
  std::string str;
  std::vector<JsonValue> array;
  std::map<std::string, JsonValue> object;

  const JsonValue* get(const std::string& key) const {
    const auto it = object.find(key);
    return it != object.end() ? &it->second : nullptr;
  }
};

class Parser {
 public:
  explicit Parser(const std::string& text) : text_(text) {}

  JsonValue parse() {
    JsonValue v = value();
    skip_ws();
    if (pos_ != text_.size()) fail("trailing content");
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& what) const {
    throw std::runtime_error("perf_compare: JSON error at byte " +
                             std::to_string(pos_) + ": " + what);
  }
  void skip_ws() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }
  char peek() {
    skip_ws();
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }
  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  JsonValue value() {
    const char c = peek();
    if (c == '{') return object();
    if (c == '[') return array();
    if (c == '"') {
      JsonValue v;
      v.kind = JsonValue::Kind::kString;
      v.str = string();
      return v;
    }
    if (c == 't' || c == 'f') return boolean();
    if (c == 'n') {
      literal("null");
      return JsonValue{};
    }
    return number();
  }

  void literal(const char* word) {
    skip_ws();
    const std::size_t len = std::strlen(word);
    if (text_.compare(pos_, len, word) != 0) fail("bad literal");
    pos_ += len;
  }

  JsonValue boolean() {
    JsonValue v;
    v.kind = JsonValue::Kind::kBool;
    if (peek() == 't') {
      literal("true");
      v.boolean = true;
    } else {
      literal("false");
    }
    return v;
  }

  JsonValue number() {
    skip_ws();
    const std::size_t start = pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            std::strchr("+-.eE", text_[pos_]) != nullptr)) {
      ++pos_;
    }
    if (pos_ == start) fail("expected a value");
    JsonValue v;
    v.kind = JsonValue::Kind::kNumber;
    try {
      v.number = std::stod(text_.substr(start, pos_ - start));
    } catch (const std::exception&) {
      fail("bad number");
    }
    return v;
  }

  std::string string() {
    expect('"');
    std::string out;
    while (true) {
      if (pos_ >= text_.size()) fail("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= text_.size()) fail("unterminated escape");
      const char e = text_[pos_++];
      switch (e) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          if (pos_ + 4 > text_.size()) fail("bad \\u escape");
          const unsigned code = static_cast<unsigned>(
              std::stoul(text_.substr(pos_, 4), nullptr, 16));
          pos_ += 4;
          if (code < 0x80) {
            out += static_cast<char>(code);
          } else {  // bench names are ASCII; keep non-ASCII lossy but valid
            out += '?';
          }
          break;
        }
        default: fail("unknown escape");
      }
    }
  }

  JsonValue array() {
    expect('[');
    JsonValue v;
    v.kind = JsonValue::Kind::kArray;
    if (peek() == ']') {
      ++pos_;
      return v;
    }
    while (true) {
      v.array.push_back(value());
      const char c = peek();
      ++pos_;
      if (c == ']') return v;
      if (c != ',') fail("expected ',' or ']'");
    }
  }

  JsonValue object() {
    expect('{');
    JsonValue v;
    v.kind = JsonValue::Kind::kObject;
    if (peek() == '}') {
      ++pos_;
      return v;
    }
    while (true) {
      std::string key = string();
      expect(':');
      v.object.emplace(std::move(key), value());
      const char c = peek();
      ++pos_;
      if (c == '}') return v;
      if (c != ',') fail("expected ',' or '}'");
    }
  }

  const std::string& text_;
  std::size_t pos_ = 0;
};

// -------------------------------------------------------------- comparison

struct MetricRow {
  double trimmed_mean_s = 0;
  double min_s = 0;
  double max_s = 0;
};

struct BenchFile {
  int schema_version = 0;
  std::string mode;
  std::map<std::string, MetricRow> metrics;
  std::map<std::string, long long> counters;
};

BenchFile load(const char* path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error(std::string("cannot open ") + path);
  std::ostringstream ss;
  ss << in.rdbuf();
  const std::string text = ss.str();
  const JsonValue root = Parser(text).parse();
  if (root.kind != JsonValue::Kind::kObject) {
    throw std::runtime_error(std::string(path) + ": top level is not an object");
  }

  BenchFile out;
  if (const JsonValue* v = root.get("schema_version")) {
    out.schema_version = static_cast<int>(v->number);
  }
  if (out.schema_version != 1) {
    throw std::runtime_error(std::string(path) + ": unsupported schema_version " +
                             std::to_string(out.schema_version));
  }
  if (const JsonValue* v = root.get("mode")) out.mode = v->str;
  if (const JsonValue* arr = root.get("metrics")) {
    for (const JsonValue& e : arr->array) {
      const JsonValue* key = e.get("key");
      const JsonValue* mean = e.get("trimmed_mean_s");
      if (key == nullptr || mean == nullptr) continue;
      MetricRow row;
      row.trimmed_mean_s = mean->number;
      if (const JsonValue* v = e.get("min_s")) row.min_s = v->number;
      if (const JsonValue* v = e.get("max_s")) row.max_s = v->number;
      out.metrics[key->str] = row;
    }
  }
  if (const JsonValue* arr = root.get("counters")) {
    for (const JsonValue& e : arr->array) {
      const JsonValue* key = e.get("key");
      const JsonValue* val = e.get("value");
      if (key == nullptr || val == nullptr) continue;
      out.counters[key->str] = static_cast<long long>(val->number);
    }
  }
  return out;
}

/// Print `why` and the usage to stderr; returns the exit code 2.
int usage(const std::string& why) {
  std::fprintf(stderr,
               "%s\n"
               "usage: perf_compare BASELINE.json CANDIDATE.json "
               "[--threshold FRAC] [--fail-on-regression] "
               "[--only PREFIX]...\n"
               "  --threshold   finite number >= 0 (default 0.25)\n",
               why.c_str());
  return 2;
}

/// `text` as a finite number >= 0, read whole; nullopt otherwise.
std::optional<double> parse_nonnegative(const std::string& text) {
  double v = 0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, v);
  if (ec != std::errc() || ptr != end || !std::isfinite(v) || v < 0) return std::nullopt;
  return v;
}

}  // namespace

int main(int argc, char** argv) {
  const char* base_path = nullptr;
  const char* cand_path = nullptr;
  double threshold = 0.25;
  bool fail_on_regression = false;
  std::vector<std::string> only;
  for (int i = 1; i < argc; ++i) {
    const char* f = argv[i];
    const bool takes_value =
        std::strcmp(f, "--threshold") == 0 || std::strcmp(f, "--only") == 0;
    if (takes_value && i + 1 >= argc) return usage(std::string("missing value for ") + f);
    if (std::strcmp(f, "--threshold") == 0) {
      const std::string text = argv[++i];
      const std::optional<double> v = parse_nonnegative(text);
      if (!v) return usage("bad --threshold '" + text + "': expected a finite number >= 0");
      threshold = *v;
    } else if (std::strcmp(f, "--only") == 0) {
      only.emplace_back(argv[++i]);
    } else if (std::strcmp(f, "--fail-on-regression") == 0) {
      fail_on_regression = true;
    } else if (std::strncmp(f, "--", 2) == 0) {
      return usage(std::string("unknown flag ") + f);
    } else if (base_path == nullptr) {
      base_path = f;
    } else if (cand_path == nullptr) {
      cand_path = f;
    } else {
      return usage(std::string("unexpected argument: ") + f);
    }
  }
  if (base_path == nullptr || cand_path == nullptr) {
    return usage("two bench files are required");
  }
  // --only restricts the comparison (metrics and counters alike) to keys
  // under any given prefix — so CI can gate on the stable deterministic
  // sections (build/, sim/) while the timing-noisy train/ section stays
  // informational. Matching is anchored at section separators (see
  // only_filter.h): `--only sim` gates sim/... but not a sim_legacy/...
  // section.
  const auto selected = [&only](const std::string& key) {
    return helix::tools::only_selects(only, key);
  };

  try {
    const BenchFile base = load(base_path);
    const BenchFile cand = load(cand_path);
    if (base.mode != cand.mode) {
      std::printf("note: comparing mode '%s' baseline against mode '%s' "
                  "candidate\n",
                  base.mode.c_str(), cand.mode.c_str());
    }

    int regressions = 0;
    int improvements = 0;
    int missing = 0;
    int added = 0;
    std::printf("perf_compare: %s -> %s (threshold %.0f%%)\n", base_path,
                cand_path, 100 * threshold);
    std::printf("  %-44s %12s %12s %9s\n", "metric", "base ms", "cand ms",
                "delta");
    for (const auto& [key, b] : base.metrics) {
      if (!selected(key)) continue;
      const auto it = cand.metrics.find(key);
      if (it == cand.metrics.end()) {
        std::printf("  %-44s %12.3f %12s   MISSING\n", key.c_str(),
                    1e3 * b.trimmed_mean_s, "-");
        ++missing;
        continue;
      }
      const MetricRow& c = it->second;
      const double delta = b.trimmed_mean_s > 0
                               ? c.trimmed_mean_s / b.trimmed_mean_s - 1.0
                               : 0.0;
      const char* flag = "";
      if (delta > threshold) {
        flag = "  REGRESSED";
        ++regressions;
      } else if (delta < -threshold) {
        flag = "  improved";
        ++improvements;
      }
      std::printf("  %-44s %12.3f %12.3f %+8.1f%%%s\n", key.c_str(),
                  1e3 * b.trimmed_mean_s, 1e3 * c.trimmed_mean_s, 100 * delta,
                  flag);
    }
    for (const auto& [key, c] : cand.metrics) {
      if (!selected(key)) continue;
      if (base.metrics.find(key) == base.metrics.end()) {
        std::printf("  %-44s %12s %12.3f   NEW\n", key.c_str(), "-",
                    1e3 * c.trimmed_mean_s);
        ++added;
      }
    }

    // Per-section rollup (section = key prefix before the first '/'):
    // aggregate base/candidate time and the speedup ratio, so a perf PR's
    // headline ("sim/ got 3x faster") is readable without summing rows.
    struct SectionSums {
      double base_s = 0;
      double cand_s = 0;
      int keys = 0;
    };
    std::map<std::string, SectionSums> sections;
    for (const auto& [key, b] : base.metrics) {
      if (!selected(key)) continue;
      const auto it = cand.metrics.find(key);
      if (it == cand.metrics.end()) continue;
      const std::string section = key.substr(0, key.find('/'));
      SectionSums& s = sections[section];
      s.base_s += b.trimmed_mean_s;
      s.cand_s += it->second.trimmed_mean_s;
      ++s.keys;
    }
    if (!sections.empty()) {
      std::printf("\n  %-16s %12s %12s %9s %6s\n", "section", "base ms",
                  "cand ms", "speedup", "keys");
      for (const auto& [name, s] : sections) {
        std::printf("  %-16s %12.3f %12.3f %8.2fx %6d\n", name.c_str(),
                    1e3 * s.base_s, 1e3 * s.cand_s,
                    s.cand_s > 0 ? s.base_s / s.cand_s : 0.0, s.keys);
      }
      std::printf("\n");
    }

    int counter_drift = 0;
    for (const auto& [key, b] : base.counters) {
      if (!selected(key)) continue;
      const auto it = cand.counters.find(key);
      if (it == cand.counters.end()) continue;  // grid changed; keys reported above
      if (it->second != b) {
        std::printf("  counter %-36s %12lld %12lld   DRIFTED\n", key.c_str(), b,
                    it->second);
        ++counter_drift;
      }
    }

    std::printf(
        "summary: %d regressed, %d improved, %d missing, %d new, %d counter "
        "drift(s)%s\n",
        regressions, improvements, missing, added, counter_drift,
        fail_on_regression ? "" : " (informational)");
    if (fail_on_regression && (regressions > 0 || counter_drift > 0)) return 1;
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }
}
