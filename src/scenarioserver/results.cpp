#include "scenarioserver/results.hpp"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <unordered_map>

#include "common/assert.hpp"

#include "scenarioserver/arena.hpp"

namespace iw::scenarioserver {

void ResultsStore::add(std::uint64_t id, std::uint64_t group,
                       std::uint64_t digest, std::string_view line) {
  std::lock_guard<std::mutex> lk(*mu_);
  entries_.push_back(Entry{id, group, digest, std::string(line)});
}

void ResultsStore::finalize() {
  std::lock_guard<std::mutex> lk(*mu_);
  std::sort(entries_.begin(), entries_.end(),
            [](const Entry& a, const Entry& b) { return a.id < b.id; });
}

void ResultsStore::write_jsonl(std::ostream& os) const {
  for (const Entry& e : entries_) os << e.line << "\n";
}

ResultsStore::Agreement ResultsStore::group_agreement() const {
  std::unordered_map<std::uint64_t, std::uint64_t> first;
  std::unordered_map<std::uint64_t, bool> split;
  for (const Entry& e : entries_) {
    auto [it, fresh] = first.emplace(e.group, e.digest);
    if (!fresh && it->second != e.digest) split[e.group] = true;
  }
  Agreement a;
  a.groups = first.size();
  a.disagreeing = split.size();
  return a;
}

std::string_view format_record(const ScenarioSpec& spec,
                               const ScenarioResult& res, RunArena& arena) {
  // Records are assembled in the run's arena with snprintf: fixed
  // format, no locale, no heap. Doubles print with %.6g — enough for
  // counter-like metrics, and stable across platforms for the values
  // this simulator emits.
  char head[512];
  int n = std::snprintf(
      head, sizeof head,
      "{\"id\":%" PRIu64 ",\"group\":%" PRIu64
      ",\"label\":\"%s\",\"scheduler\":\"%s\",\"threads\":%u,"
      "\"ff\":%s,\"fault_seed\":%" PRIu64 ",\"at\":%" PRIu64
      ",\"digest\":\"%016" PRIx64 "\"",
      res.id, res.group, spec.label.c_str(), scheduler_name(spec.scheduler),
      spec.threads, spec.fast_forward ? "true" : "false", spec.fault_seed,
      static_cast<std::uint64_t>(res.at), res.digest);
  IW_ASSERT_MSG(n > 0 && static_cast<std::size_t>(n) < sizeof head,
                "scenario record head overflow (label too long?)");

  std::size_t total = static_cast<std::size_t>(n);
  char metric[160];
  std::vector<std::string_view> parts;
  parts.push_back(arena.copy({head, total}));
  for (const auto& [name, value] : res.metrics) {
    const int mn = std::snprintf(metric, sizeof metric,
                                 ",\"%s\":%.6g", name.c_str(), value);
    IW_ASSERT_MSG(mn > 0 && static_cast<std::size_t>(mn) < sizeof metric,
                  "scenario record metric overflow");
    parts.push_back(arena.copy({metric, static_cast<std::size_t>(mn)}));
    total += static_cast<std::size_t>(mn);
  }
  parts.push_back(arena.copy("}"));
  total += 1;

  char* out = arena.alloc(total);
  char* p = out;
  for (std::string_view piece : parts) {
    std::memcpy(p, piece.data(), piece.size());
    p += piece.size();
  }
  return {out, total};
}

}  // namespace iw::scenarioserver
