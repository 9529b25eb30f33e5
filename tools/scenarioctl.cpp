// scenarioctl: command-line front end for the scenario server.
//
// Builds a scenario matrix over the shared heartbeat replay workload
// (replay_workload.hpp), warms ONE donor machine, serializes it, and
// lets the worker pool burn through the cells — every run hydrating a
// fresh Machine from the same snapshot-v2 image and diverging only
// through its installed fault plan. The JSONL it writes is
// byte-identical for any --workers value; `summarize` re-checks a
// results file after the fact.
//
// Usage:
//   scenarioctl run [--cores=N] [--warm-rounds=N] [--run-rounds=N]
//                   [--drops=P,P,...] [--seeds=N] [--strategies=all|seq]
//                   [--workers=N] [--out=FILE.jsonl]
//   scenarioctl summarize FILE.jsonl
//   scenarioctl --selftest
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "hwsim/machine.hpp"
#include "hwsim/snapshot.hpp"
#include "scenarioserver/server.hpp"

#include "replay_workload.hpp"

using namespace iw;
using namespace iw::scenarioserver;

namespace {

int usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s run [--cores=N] [--warm-rounds=N] [--run-rounds=N]\n"
      "              [--drops=P,P,...] [--seeds=N] [--strategies=all|seq]\n"
      "              [--workers=N] [--out=FILE.jsonl]\n"
      "       %s summarize FILE.jsonl\n"
      "       %s --selftest\n",
      argv0, argv0, argv0);
  return 2;
}

struct RunOptions {
  unsigned cores{4};
  std::uint64_t warm_rounds{30};
  std::uint64_t run_rounds{50};
  std::vector<double> drops{0.0, 0.05, 0.10};
  std::uint64_t seeds{4};
  bool all_strategies{true};
  unsigned workers{2};
  std::string out{"scenarios.jsonl"};
};

bool parse_u64(const char* s, std::uint64_t* out) {
  if (*s == '\0' || *s == '-') return false;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(s, &end, 10);
  if (end == s || *end != '\0') return false;
  *out = v;
  return true;
}

bool parse_drops(const char* s, std::vector<double>* out) {
  out->clear();
  std::stringstream ss(s);
  std::string item;
  while (std::getline(ss, item, ',')) {
    char* end = nullptr;
    const double v = std::strtod(item.c_str(), &end);
    if (end == item.c_str() || *end != '\0' || v < 0.0 || v > 1.0) {
      return false;
    }
    out->push_back(v);
  }
  return !out->empty();
}

class ReplayHarness final : public ScenarioHarness {
 public:
  ReplayHarness(hwsim::Machine& m, Cycles period)
      : workload_(m, period, /*fault_tolerant=*/true) {}
  void collect(std::vector<std::pair<std::string, double>>& out) override {
    out.emplace_back("max_gap_periods", workload_.max_gap_periods());
    out.emplace_back(
        "polled_beats",
        static_cast<double>(workload_.heartbeat().polled_beats()));
    out.emplace_back(
        "missed_beats",
        static_cast<double>(workload_.heartbeat().missed_beats()));
  }

 private:
  tools::ReplayWorkload workload_;
};

struct Matrix {
  ScenarioBatch batch;
  std::vector<ScenarioSpec> specs;
  Cycles horizon{0};
};

/// Warm one donor and lay out the drops x seeds x strategies matrix.
/// Every (drop, seed) pair is one digest-equivalence group; the
/// strategy axis fans out inside it.
Matrix build_matrix(const RunOptions& opt) {
  Matrix mx;
  mx.batch.base.num_cores = opt.cores;
  mx.batch.base.seed = 42;
  mx.batch.base.max_advances = 4'000'000'000ULL;
  const Cycles period = mx.batch.base.costs.freq.us_to_cycles(20.0);
  const Cycles warm = opt.warm_rounds * period;
  mx.horizon = warm + opt.run_rounds * period;

  {
    hwsim::Machine donor(mx.batch.base);
    tools::ReplayWorkload w(donor, period, /*fault_tolerant=*/true);
    if (!donor.run_until(warm)) {
      std::fprintf(stderr, "scenarioctl: donor warm-up hit a limit\n");
      std::exit(1);
    }
    mx.batch.image = donor.snapshot().serialize();
  }
  mx.batch.factory = [period](hwsim::Machine& m) {
    return std::make_unique<ReplayHarness>(m, period);
  };

  struct Strategy {
    hwsim::SchedulerKind sched;
    unsigned threads;
    bool ff;
  };
  std::vector<Strategy> strategies{
      {hwsim::SchedulerKind::kFrontier, 1, false},
  };
  if (opt.all_strategies) {
    strategies.push_back({hwsim::SchedulerKind::kLinearScan, 1, false});
    strategies.push_back({hwsim::SchedulerKind::kParallelEpoch, 2, false});
    strategies.push_back({hwsim::SchedulerKind::kFrontier, 1, true});
  }

  std::uint64_t id = 0, group = 0;
  for (const double drop : opt.drops) {
    for (std::uint64_t seed = 0; seed < opt.seeds; ++seed) {
      for (const Strategy& st : strategies) {
        ScenarioSpec s;
        s.id = id++;
        s.group = group;
        char label[64];
        std::snprintf(label, sizeof label, "drop%g/seed%llu", drop,
                      static_cast<unsigned long long>(seed));
        s.label = label;
        s.scheduler = st.sched;
        s.threads = st.threads;
        s.fast_forward = st.ff;
        s.plan.enabled = drop > 0.0;
        s.plan.ipi_drop_rate = drop;
        s.fault_seed = 0xC0FFEE + seed;
        s.horizon = mx.horizon;
        mx.specs.push_back(std::move(s));
      }
      ++group;
    }
  }
  return mx;
}

int cmd_run(const RunOptions& opt) {
  Matrix mx = build_matrix(opt);
  const std::size_t cells = mx.specs.size();
  std::printf("scenarioctl: %zu cells (%zu drops x %llu seeds), image %zu "
              "words, %u workers\n",
              cells, opt.drops.size(),
              static_cast<unsigned long long>(opt.seeds),
              mx.batch.image.size(), opt.workers);

  ScenarioServer server(ScenarioServerConfig{opt.workers});
  ResultsStore results = server.run(mx.batch, std::move(mx.specs));
  const auto agree = results.group_agreement();

  std::ofstream os(opt.out);
  if (!os) {
    std::fprintf(stderr, "scenarioctl: cannot write %s\n", opt.out.c_str());
    return 1;
  }
  results.write_jsonl(os);

  std::printf("scenarioctl: %zu results -> %s\n", results.size(),
              opt.out.c_str());
  std::printf("  scenarios_per_sec: %.1f\n", server.scenarios_per_sec());
  std::printf("  arena_high_water:  %zu bytes\n", server.arena_high_water());
  std::printf("  digest groups:     %zu (%zu disagreeing)\n", agree.groups,
              agree.disagreeing);
  if (agree.disagreeing != 0) {
    std::fprintf(stderr,
                 "scenarioctl: FAIL — execution strategies disagree inside "
                 "%zu group(s)\n",
                 agree.disagreeing);
    return 1;
  }
  return 0;
}

/// Minimal JSONL field scrape (the records are written by
/// format_record, so the layout is fixed — no general JSON parser
/// needed for a summary).
bool scrape_u64(const std::string& line, const char* key, std::uint64_t* out,
                int base = 10) {
  const std::string needle = std::string("\"") + key + "\":";
  const std::size_t at = line.find(needle);
  if (at == std::string::npos) return false;
  const char* p = line.c_str() + at + needle.size();
  if (*p == '"') ++p;  // digests are quoted hex
  char* end = nullptr;
  *out = std::strtoull(p, &end, base);
  return end != p;
}

int cmd_summarize(const char* path) {
  std::ifstream is(path);
  if (!is) {
    std::fprintf(stderr, "scenarioctl: cannot read %s\n", path);
    return 1;
  }
  ResultsStore rs;
  std::string line;
  std::uint64_t lineno = 0;
  while (std::getline(is, line)) {
    if (line.empty()) continue;
    std::uint64_t id = 0, group = 0, digest = 0;
    if (!scrape_u64(line, "id", &id) || !scrape_u64(line, "group", &group) ||
        !scrape_u64(line, "digest", &digest, 16)) {
      std::fprintf(stderr, "scenarioctl: %s:%llu: not a scenario record\n",
                   path, static_cast<unsigned long long>(lineno + 1));
      return 1;
    }
    rs.add(id, group, digest, line);
    ++lineno;
  }
  rs.finalize();
  const auto agree = rs.group_agreement();
  std::set<std::uint64_t> digests;
  for (const auto& e : rs.entries()) digests.insert(e.digest);
  std::printf("%s: %zu records, %zu groups (%zu disagreeing), %zu distinct "
              "digests\n",
              path, rs.size(), agree.groups, agree.disagreeing,
              digests.size());
  return agree.disagreeing == 0 ? 0 : 1;
}

int selftest() {
  // Small matrix, twice, at different worker counts: the JSONL must be
  // byte-identical and every group must digest-agree.
  RunOptions opt;
  opt.cores = 4;
  opt.warm_rounds = 20;
  opt.run_rounds = 30;
  opt.drops = {0.0, 0.10};
  opt.seeds = 2;
  opt.workers = 1;

  Matrix mx = build_matrix(opt);
  ScenarioServer one(ScenarioServerConfig{1});
  ScenarioServer four(ScenarioServerConfig{4});
  std::vector<ScenarioSpec> specs2 = mx.specs;  // run() consumes
  ResultsStore a = one.run(mx.batch, std::move(mx.specs));
  ResultsStore b = four.run(mx.batch, std::move(specs2));

  std::ostringstream oa, ob;
  a.write_jsonl(oa);
  b.write_jsonl(ob);
  if (oa.str() != ob.str()) {
    std::fprintf(stderr, "selftest: FAIL — JSONL differs across worker "
                         "counts\n");
    return 1;
  }
  const auto agree = a.group_agreement();
  if (agree.groups != 4 || agree.disagreeing != 0) {
    std::fprintf(stderr, "selftest: FAIL — %zu groups, %zu disagreeing\n",
                 agree.groups, agree.disagreeing);
    return 1;
  }
  if (a.size() != 16) {  // 2 drops x 2 seeds x 4 strategies
    std::fprintf(stderr, "selftest: FAIL — %zu records, want 16\n", a.size());
    return 1;
  }
  // The faulted groups must diverge from the clean ones.
  if (a.entries().front().digest == a.entries().back().digest) {
    std::fprintf(stderr, "selftest: FAIL — faults did not diverge\n");
    return 1;
  }
  std::printf("selftest: PASS (16 cells, %zu groups, worker-count "
              "invariant, %.1f scen/s)\n",
              agree.groups, four.scenarios_per_sec());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc >= 2 && std::strcmp(argv[1], "--selftest") == 0) {
    return selftest();
  }
  if (argc >= 3 && std::strcmp(argv[1], "summarize") == 0) {
    return cmd_summarize(argv[2]);
  }
  if (argc >= 2 && std::strcmp(argv[1], "run") == 0) {
    RunOptions opt;
    for (int i = 2; i < argc; ++i) {
      const char* a = argv[i];
      std::uint64_t v = 0;
      if (std::strncmp(a, "--cores=", 8) == 0 && parse_u64(a + 8, &v) &&
          v >= 1 && v <= 1024) {
        opt.cores = static_cast<unsigned>(v);
      } else if (std::strncmp(a, "--warm-rounds=", 14) == 0 &&
                 parse_u64(a + 14, &v) && v >= 1) {
        opt.warm_rounds = v;
      } else if (std::strncmp(a, "--run-rounds=", 13) == 0 &&
                 parse_u64(a + 13, &v) && v >= 1) {
        opt.run_rounds = v;
      } else if (std::strncmp(a, "--drops=", 8) == 0) {
        if (!parse_drops(a + 8, &opt.drops)) {
          std::fprintf(stderr,
                       "scenarioctl: bad --drops (want P,P,... in [0,1])\n");
          return usage(argv[0]);
        }
      } else if (std::strncmp(a, "--seeds=", 8) == 0 && parse_u64(a + 8, &v) &&
                 v >= 1) {
        opt.seeds = v;
      } else if (std::strcmp(a, "--strategies=all") == 0) {
        opt.all_strategies = true;
      } else if (std::strcmp(a, "--strategies=seq") == 0) {
        opt.all_strategies = false;
      } else if (std::strncmp(a, "--workers=", 10) == 0 &&
                 parse_u64(a + 10, &v) && v >= 1 && v <= 256) {
        opt.workers = static_cast<unsigned>(v);
      } else if (std::strncmp(a, "--out=", 6) == 0 && a[6] != '\0') {
        opt.out = a + 6;
      } else {
        std::fprintf(stderr, "scenarioctl: bad argument: %s\n", a);
        return usage(argv[0]);
      }
    }
    return cmd_run(opt);
  }
  return usage(argv[0]);
}
