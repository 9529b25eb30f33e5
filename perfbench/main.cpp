// perfbench: the repository's end-to-end benchmark driver. run.py builds
// this binary and calls it once per run:
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--toy] [--expect FILE] [--write-expect FILE] [--spans FILE]
//
// It prints human-readable lines, then one JSON line with `correct`,
// `attempted`, `failed` and `metrics` (end-to-end metrics untraced,
// per-layer metrics traced). See README.md.
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "bench.hpp"

namespace {

bool parse_u64(const char* s, std::uint64_t* out) {
  if (s == nullptr || *s == '\0') return false;
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(s, &end, 10);
  if (errno != 0 || *end != '\0' || *s == '-') return false;
  *out = v;
  return true;
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload parallel_4k|scenario_sweep|"
               "paper_stack --seed N --seconds S --trace 0|1 [--toy] "
               "[--expect FILE] [--write-expect FILE] [--spans FILE]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  pb::Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const char* v = i + 1 < argc ? argv[i + 1] : nullptr;
    std::uint64_t n = 0;
    if (a == "--toy") {
      opt.toy = true;
      continue;
    }
    if (v == nullptr) return usage();
    ++i;
    if (a == "--workload") {
      opt.workload = v;
    } else if (a == "--seed" && parse_u64(v, &n)) {
      opt.seed = n;
    } else if (a == "--seconds" && parse_u64(v, &n) && n > 0 && n <= 3600) {
      opt.seconds = static_cast<double>(n);
    } else if (a == "--trace" && parse_u64(v, &n) && n <= 1) {
      opt.trace = n == 1;
    } else if (a == "--expect") {
      opt.expect_path = v;
    } else if (a == "--write-expect") {
      opt.write_expect_path = v;
    } else if (a == "--spans") {
      opt.spans_path = v;
    } else {
      return usage();
    }
  }

  pb::Report rep;
  if (!opt.expect_path.empty()) rep.load_expect(opt.expect_path);
  if (opt.trace) {
    pb::spans::enable(true);
    pb::zero_layer_metrics(rep);
  }

  int rc = 2;
  if (opt.workload == "parallel_4k") {
    rc = pb::run_parallel_4k(opt, rep);
  } else if (opt.workload == "scenario_sweep") {
    rc = pb::run_scenario_sweep(opt, rep);
  } else if (opt.workload == "paper_stack") {
    rc = pb::run_paper_stack(opt, rep);
  } else {
    return usage();
  }
  if (rc != 0) return rc;

  if (!opt.write_expect_path.empty()) {
    rep.write_first_results(opt.write_expect_path);
  }
  if (opt.trace && !opt.spans_path.empty() &&
      !pb::spans::write_chrome(opt.spans_path)) {
    std::fprintf(stderr, "perfbench: cannot write %s\n",
                 opt.spans_path.c_str());
    return 2;
  }

  const double fail_rate =
      rep.attempted() == 0 ? 1.0
                           : static_cast<double>(rep.failed()) /
                                 static_cast<double>(rep.attempted());
  std::printf("%-34s %.6g %s\n", "fail_rate", fail_rate, "fraction");
  for (const auto& [name, vu] : rep.metrics()) {
    std::printf("%-34s %.6g %s\n", name.c_str(), vu.first, vu.second);
  }

  std::string json = "{\"correct\": ";
  json += rep.failed() == 0 && rep.attempted() > 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(rep.attempted());
  json += ", \"failed\": " + std::to_string(rep.failed());
  json += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, vu] : rep.metrics()) {
    const double value = std::isfinite(vu.first) ? vu.first : 0.0;
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", value);
    json += first ? "" : ", ";
    json += "\"" + name + "\": {\"value\": " + buf + ", \"unit\": \"" +
            vu.second + "\"}";
    first = false;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return 0;
}
