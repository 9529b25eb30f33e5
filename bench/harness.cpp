#include "harness.hpp"

#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace iw::bench {

bool Harness::parse_scheduler(const char* name, hwsim::SchedulerKind* out) {
  if (std::strcmp(name, "frontier") == 0) {
    *out = hwsim::SchedulerKind::kFrontier;
  } else if (std::strcmp(name, "linear") == 0) {
    *out = hwsim::SchedulerKind::kLinearScan;
  } else if (std::strcmp(name, "parallel") == 0) {
    *out = hwsim::SchedulerKind::kParallelEpoch;
  } else {
    return false;
  }
  return true;
}

bool Harness::parse_count(const char* s, std::uint64_t* out) {
  if (s == nullptr || *s == '\0' || *s == '-' || *s == '+') return false;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(s, &end, 10);
  if (end == s || *end != '\0') return false;
  *out = v;
  return true;
}

const char* Harness::scheduler_name(hwsim::SchedulerKind k) {
  switch (k) {
    case hwsim::SchedulerKind::kFrontier: return "frontier";
    case hwsim::SchedulerKind::kLinearScan: return "linear";
    case hwsim::SchedulerKind::kParallelEpoch: return "parallel";
  }
  return "?";
}

bool Harness::parse(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    const char* a = argv[i];
    if (std::strncmp(a, "--trace=", 8) == 0) {
      trace_path_ = a + 8;
    } else if (std::strncmp(a, "--metrics-json=", 15) == 0) {
      metrics_path_ = a + 15;
    } else if (std::strncmp(a, "--faults=", 9) == 0) {
      std::string err;
      if (!hwsim::FaultPlan::parse(a + 9, &plan_, &err)) {
        std::fprintf(stderr, "--faults: %s\n", err.c_str());
        return false;
      }
    } else if (std::strncmp(a, "--fault-seed=", 13) == 0) {
      if (!parse_count(a + 13, &fault_seed_)) {
        std::fprintf(stderr,
                     "--fault-seed: expected an unsigned integer, got '%s'\n",
                     a + 13);
        return false;
      }
    } else if (std::strncmp(a, "--seed=", 7) == 0) {
      if (!parse_count(a + 7, &seed_)) {
        std::fprintf(stderr,
                     "--seed: expected an unsigned integer, got '%s'\n",
                     a + 7);
        return false;
      }
      seed_set_ = true;
    } else if (std::strncmp(a, "--scheduler=", 12) == 0) {
      if (!parse_scheduler(a + 12, &scheduler_)) {
        std::fprintf(stderr,
                     "--scheduler: unknown value '%s' (expected frontier, "
                     "linear or parallel)\n",
                     a + 12);
        return false;
      }
      scheduler_set_ = true;
    } else if (std::strncmp(a, "--threads=", 10) == 0) {
      std::uint64_t v = 0;
      if (!parse_count(a + 10, &v) || v == 0 || v > 4096) {
        std::fprintf(stderr,
                     "--threads: expected a positive integer (<= 4096), "
                     "got '%s'\n",
                     a + 10);
        return false;
      }
      threads_ = static_cast<unsigned>(v);
    } else if (std::strncmp(a, "--ff=", 5) == 0) {
      if (std::strcmp(a + 5, "on") == 0) {
        ff_ = true;
      } else if (std::strcmp(a + 5, "off") == 0) {
        ff_ = false;
      } else {
        std::fprintf(stderr, "--ff: expected on or off\n");
        return false;
      }
    } else if (std::strncmp(a, "--checkpoint-every=", 19) == 0) {
      std::uint64_t v = 0;
      if (!parse_count(a + 19, &v) || v == 0) {
        std::fprintf(stderr,
                     "--checkpoint-every: expected a positive cycle count, "
                     "got '%s' (omit the flag to disable checkpointing)\n",
                     a + 19);
        return false;
      }
      checkpoint_every_ = v;
    } else if (std::strncmp(a, "--jobs=", 7) == 0) {
      std::uint64_t v = 0;
      if (!parse_count(a + 7, &v) || v == 0 || v > 1024) {
        std::fprintf(stderr,
                     "--jobs: expected a positive worker count (<= 1024), "
                     "got '%s'\n",
                     a + 7);
        return false;
      }
      jobs_ = static_cast<unsigned>(v);
      jobs_set_ = true;
    } else if (std::strcmp(a, "--trace") == 0 ||
               std::strcmp(a, "--metrics-json") == 0 ||
               std::strcmp(a, "--faults") == 0 ||
               std::strcmp(a, "--fault-seed") == 0 ||
               std::strcmp(a, "--seed") == 0 ||
               std::strcmp(a, "--scheduler") == 0 ||
               std::strcmp(a, "--threads") == 0 ||
               std::strcmp(a, "--ff") == 0 ||
               std::strcmp(a, "--checkpoint-every") == 0 ||
               std::strcmp(a, "--jobs") == 0) {
      std::fprintf(stderr, "%s needs a value (%s=...)\n", a, a);
      return false;
    }
  }
  if (plan_.enabled) {
    analytic_faults_.configure(plan_, seed_, fault_seed_);
  }
  return true;
}

void Harness::begin_run(const std::string& label) {
  if (!trace_path_.empty()) tracer_.begin_process(label);
}

void Harness::attach(hwsim::Machine& m, const std::string& label) {
  begin_run(label);
  m.set_tracer(tracer());
  m.set_metrics(metrics());
}

void Harness::attach(substrate::AnalyticSubstrate& sub,
                     const std::string& label) {
  begin_run(label);
  sub.set_tracer(tracer());
  sub.set_metrics(metrics());
  if (plan_.enabled) sub.set_fault_injector(&analytic_faults_);
}

void Harness::apply(hwsim::MachineConfig& mc) const {
  mc.faults = plan_;
  mc.fault_seed = fault_seed_;
  if (seed_set_) mc.seed = seed_;
  // Only override what the flags actually set: benches that sweep
  // schedulers themselves assign mc.scheduler before/after apply().
  if (scheduler_set_) mc.scheduler = scheduler_;
  mc.threads = threads_;
  mc.fast_forward.enabled = ff_;
}

bool Harness::finish() {
  bool ok = true;
  if (!trace_path_.empty()) {
    if (tracer_.save_chrome_json(trace_path_)) {
      std::printf("trace: %llu events -> %s\n",
                  static_cast<unsigned long long>(tracer_.total_events()),
                  trace_path_.c_str());
    } else {
      std::fprintf(stderr, "trace: cannot write %s\n", trace_path_.c_str());
      ok = false;
    }
  }
  if (!metrics_path_.empty()) {
    if (metrics_.save_json(metrics_path_)) {
      std::printf("metrics: %s\n", metrics_path_.c_str());
    } else {
      std::fprintf(stderr, "metrics: cannot write %s\n",
                   metrics_path_.c_str());
      ok = false;
    }
  }
  return ok;
}

}  // namespace iw::bench
