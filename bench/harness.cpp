#include "harness.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace iw::bench {

namespace {

bool parse_on_off(const char* s, bool* out) {
  *out = std::strcmp(s, "on") == 0;
  return *out || std::strcmp(s, "off") == 0;
}

}  // namespace

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

bool Harness::parse_real(const char* s, double* out) {
  if (s == nullptr || *s == '\0') return false;
  char* end = nullptr;
  const double v = std::strtod(s, &end);
  if (end == s || *end != '\0' || !std::isfinite(v)) return false;
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

std::string count_expectation(std::uint64_t lo, std::uint64_t hi) {
  if (hi != ~std::uint64_t{0}) {
    return "expected an integer in [" + std::to_string(lo) + ", " +
           std::to_string(hi) + "]";
  }
  return lo == 0 ? "expected an unsigned integer"
                 : "expected an integer >= " + std::to_string(lo);
}

Option text_flag(const char* name, const char* value, std::string* out) {
  return {name, value, [out](const char* s, std::string*) {
            *out = s;
            return true;
          }};
}

Option switch_flag(const char* name, bool* out, bool on) {
  return {name, "", [out, on](const char*, std::string*) {
            *out = on;
            return true;
          }};
}

Option Harness::shared_option(Shared s) {
  switch (s) {
    case kTrace: return text_flag("--trace", "FILE", &trace_path_);
    case kMetricsJson:
      return text_flag("--metrics-json", "FILE", &metrics_path_);
    case kFaults:
      return {"--faults", "SPEC", [this](const char* v, std::string* why) {
                hwsim::FaultPlan plan;
                if (!hwsim::FaultPlan::parse(v, &plan, why)) return false;
                plan_ = plan;
                return true;
              }};
    case kFaultSeed: return count_flag("--fault-seed", &fault_seed_);
    case kSeed: return count_flag("--seed", &seed_);
    case kScheduler:
      return parsed_flag("--scheduler", "NAME", "frontier, linear or parallel",
                         &parse_scheduler, &scheduler_);
    case kThreads:
      return count_flag("--threads", &threads_, 1, kMaxThreads);
    case kFastForward:
      return parsed_flag("--ff", "on|off", "on or off", &parse_on_off, &ff_);
  }
  return {};
}

bool Harness::parse(int argc, char** argv,
                    std::initializer_list<Shared> shared,
                    std::vector<Option> own) {
  std::vector<Option> flags;
  for (const Shared s : shared) flags.push_back(shared_option(s));
  for (Option& o : own) flags.push_back(std::move(o));

  auto fail = [&](const std::string& what) {
    std::string usage = std::string("usage: ") + argv[0];
    for (const Option& f : flags) {
      usage += " [" + f.name + (f.value.empty() ? "" : "=" + f.value) + "]";
    }
    std::fprintf(stderr, "%s\n%s\n", what.c_str(), usage.c_str());
    return false;
  };

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const std::size_t eq = arg.find('=');
    const std::string name = arg.substr(0, eq);
    const auto f =
        std::find_if(flags.begin(), flags.end(),
                     [&](const Option& o) { return o.name == name; });
    if (f == flags.end()) {
      bool is_shared = false;
      for (int s = kTrace; s <= kFastForward; ++s) {
        is_shared |= shared_option(static_cast<Shared>(s)).name == name;
      }
      return fail(name + (is_shared ? ": not read by this binary"
                                    : ": unknown flag"));
    }
    if (f->value.empty()) {
      if (eq != std::string::npos) return fail(arg + ": takes no value");
      f->set("", nullptr);
      continue;
    }
    if (eq == std::string::npos || eq + 1 == arg.size()) {
      return fail(name + ": needs a value (" + name + "=" + f->value + ")");
    }
    std::string why;
    if (!f->set(arg.c_str() + eq + 1, &why)) return fail(arg + ": " + why);
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
}

void Harness::apply(hwsim::MachineConfig& mc) const {
  if (plan_) mc.faults = *plan_;
  if (fault_seed_) mc.fault_seed = *fault_seed_;
  if (seed_) mc.seed = *seed_;
  if (scheduler_) mc.scheduler = *scheduler_;
  if (threads_) mc.threads = *threads_;
  if (ff_) mc.fast_forward.enabled = *ff_;
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
