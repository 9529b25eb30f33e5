#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <sstream>

#include "bench.hpp"

namespace pb {

void Report::load_expect(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "perfbench: cannot read pins %s\n", path.c_str());
    std::exit(2);
  }
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    const auto tab = line.find('\t');
    if (tab == std::string::npos) {
      std::fprintf(stderr, "perfbench: malformed pin line '%s'\n",
                   line.c_str());
      std::exit(2);
    }
    expect_[line.substr(0, tab)] = line.substr(tab + 1);
  }
}

bool Report::check(const std::string& id, const std::string& result,
                   const std::string* reference) {
  const std::string* want = reference;
  if (want == nullptr) {
    const auto first = first_.find(id);
    if (first == first_.end()) {
      first_[id] = result;
      order_.push_back(id);
    } else {
      want = &first->second;
    }
    if (pinned()) {
      const auto it = expect_.find(id);
      if (it == expect_.end()) {
        fail(id, "no pinned result");
        return false;
      }
      want = &it->second;
    }
  }
  ++attempted_;
  if (want == nullptr || *want == result) return true;
  ++failed_;
  if (reported_++ < 5) {
    std::fprintf(stderr, "perfbench: %s: expected %s, got %s\n", id.c_str(),
                 want->c_str(), result.c_str());
  }
  return false;
}

void Report::fail(const std::string& id, const std::string& why) {
  ++attempted_;
  ++failed_;
  if (reported_++ < 5) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", id.c_str(),
                 why.c_str());
  }
}

void Report::write_first_results(const std::string& path) const {
  std::ofstream out(path);
  for (const std::string& id : order_) {
    out << id << '\t' << first_.at(id) << '\n';
  }
  if (!out) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
    std::exit(2);
  }
}

const std::vector<LayerMetric> kLayerMetrics = {
    {"hwsim.ns_per_event", "ns"},
    {"hwsim.events", "count"},
    {"hwsim.allocs_per_mevent", "1/Mevent"},
    {"hwsim.parallel.steals_per_mevent", "1/Mevent"},
    {"hwsim.parallel.speedup_vs_1t", "x"},
    {"hwsim.build_ms", "ms"},
    {"hwsim.snapshot.deserialize_ms", "ms"},
    {"hwsim.snapshot.restore_ms", "ms"},
    {"hwsim.snapshot.digest_ms", "ms"},
    {"hwsim.snapshot.image_words", "count"},
    {"hwsim.snapshot.serialize_ms", "ms"},
    {"hwsim.fault.install_us", "us"},
    {"hwsim.fault.ipis_dropped", "count"},
    {"hwsim.fault.ipis_delayed", "count"},
    {"hwsim.fault.ipis_duplicated", "count"},
    {"heartbeat.degraded_cells", "count"},
    {"heartbeat.polled_beats", "count"},
    {"heartbeat.delivered_frac", "fraction"},
    {"scenarioserver.self_ms_per_cell", "ms"},
    {"scenarioserver.arena_high_water", "bytes"},
    {"omp.linux_s", "s"},
    {"omp.kernel_s", "s"},
    {"linuxmodel.syscalls", "count"},
    {"mem.tlb_miss_rate", "fraction"},
    {"heartbeat.tpal_s", "s"},
    {"heartbeat.tpal.promotions_per_poll", "ratio"},
    {"nautilus.context_switches", "count"},
    {"coherence.composed_s", "s"},
    {"coherence.step_share", "fraction"},
    {"coherence.private_hit_frac", "fraction"},
    {"obs.record_overhead_pct", "%"},
    {"bench.trace_overhead_pct", "%"},
};

void zero_layer_metrics(Report& rep) {
  for (const LayerMetric& m : kLayerMetrics) rep.metric(m.name, 0.0, m.unit);
}

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(q / 100.0 * static_cast<double>(v.size()));
  const std::size_t i = rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  return v[std::min(i, v.size() - 1)];
}

double median(std::vector<double> v) { return percentile(std::move(v), 50.0); }

void HostRef::sample() {
  constexpr std::size_t kEntries = (2u << 20) / sizeof(std::uint64_t);
  constexpr int kOps = 30'000;
  auto next = [this] {
    rng_ ^= rng_ << 13;
    rng_ ^= rng_ >> 7;
    rng_ ^= rng_ << 17;
    return rng_;
  };
  heap_.resize(kEntries);
  for (std::uint64_t& t : heap_) t = next() & 0xFFFFFF;
  std::make_heap(heap_.begin(), heap_.end(), std::greater<>());
  const auto t0 = Clock::now();
  for (int i = 0; i < kOps; ++i) {
    std::pop_heap(heap_.begin(), heap_.end(), std::greater<>());
    heap_.back() += 100 + (next() & 0xFFFF);
    std::push_heap(heap_.begin(), heap_.end(), std::greater<>());
  }
  ns_.push_back(
      std::chrono::duration<double, std::nano>(Clock::now() - t0).count() /
      kOps);
  charged_.push_back({});
}

void HostRef::charge(double seconds, Account account) {
  if (charged_.empty()) sample();
  charged_.back()[account] += seconds;
}

double HostRef::factor_near(std::size_t i) const {
  const std::size_t lo = i < 2 ? 0 : i - 2;
  const std::size_t hi = std::min(ns_.size(), i + 3);
  return median(std::vector<double>(ns_.begin() + lo, ns_.begin() + hi)) /
         kNominalNs;
}

double HostRef::corrected_s(Account account, double sensitivity) const {
  double total = 0.0;
  for (std::size_t i = 0; i < charged_.size(); ++i) {
    if (charged_[i][account] != 0.0) {
      total += charged_[i][account] / std::pow(factor_near(i), sensitivity);
    }
  }
  return total;
}

void HostRef::add_setup(double seconds) {
  if (ns_.empty()) sample();
  setups_.emplace_back(ns_.size() - 1, seconds);
}

double HostRef::setup_s() const {
  std::vector<double> s;
  for (const auto& [i, seconds] : setups_) s.push_back(seconds / factor_near(i));
  return median(std::move(s));
}

double HostRef::factor() const { return median(ns_) / kNominalNs; }

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

void release_free_heap() { malloc_trim(0); }

void mix_double(std::uint64_t& h, double d) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &d, sizeof bits);
  mix(h, bits);
}

std::string hex(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t z = seed * 0x9e3779b97f4a7c15ULL + stream * 0xbf58476d1ce4e5b9ULL +
                    0x94d049bb133111ebULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

}  // namespace pb

