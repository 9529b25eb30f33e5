// Span recorder for traced runs. Each thread appends to its own buffer
// (no shared buffer on the hot path); buffers are merged only when the
// run reads totals or writes the trace at exit.
#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <mutex>

#include "bench.hpp"

namespace pb::spans {
namespace {

struct Span {
  const char* name;
  std::int64_t t0;
  std::int64_t t1;
  std::int32_t parent;
  std::uint64_t op;
};

struct Buffer {
  std::vector<Span> spans;
  std::int32_t current{-1};
  unsigned tid{0};
};

std::atomic<bool> g_enabled{false};
std::mutex g_mu;
std::vector<std::unique_ptr<Buffer>> g_buffers;  // guarded by g_mu

Buffer& local() {
  thread_local Buffer* buf = [] {
    std::lock_guard<std::mutex> lock(g_mu);
    g_buffers.push_back(std::make_unique<Buffer>());
    g_buffers.back()->tid = static_cast<unsigned>(g_buffers.size());
    g_buffers.back()->spans.reserve(1 << 16);
    return g_buffers.back().get();
  }();
  return *buf;
}

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

}  // namespace

void enable(bool on) { g_enabled.store(on, std::memory_order_relaxed); }
bool enabled() { return g_enabled.load(std::memory_order_relaxed); }

Scope::Scope(const char* name, std::uint64_t op) {
  if (!enabled()) return;
  Buffer& b = local();
  index_ = static_cast<std::int32_t>(b.spans.size());
  b.spans.push_back(Span{name, now_ns(), 0, b.current, op});
  b.current = index_;
}

Scope::~Scope() {
  if (index_ < 0) return;
  Buffer& b = local();
  Span& s = b.spans[static_cast<std::size_t>(index_)];
  s.t1 = now_ns();
  b.current = s.parent;
}

std::map<std::string, Totals> totals() {
  std::lock_guard<std::mutex> lock(g_mu);
  std::map<std::string, Totals> out;
  for (const auto& b : g_buffers) {
    std::vector<double> child_ns(b->spans.size(), 0.0);
    for (const Span& s : b->spans) {
      if (s.parent >= 0) {
        child_ns[static_cast<std::size_t>(s.parent)] +=
            static_cast<double>(s.t1 - s.t0);
      }
    }
    for (std::size_t i = 0; i < b->spans.size(); ++i) {
      const Span& s = b->spans[i];
      Totals& t = out[s.name];
      const double d = static_cast<double>(s.t1 - s.t0);
      ++t.count;
      t.total_ns += d;
      t.self_ns += d - child_ns[i];
    }
  }
  return out;
}

bool write_chrome(const std::string& path) {
  std::lock_guard<std::mutex> lock(g_mu);
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::int64_t base = INT64_MAX;
  for (const auto& b : g_buffers) {
    for (const Span& s : b->spans) base = std::min(base, s.t0);
  }
  std::fprintf(f, "{\"traceEvents\":[\n");
  bool first = true;
  for (const auto& b : g_buffers) {
    for (std::size_t i = 0; i < b->spans.size(); ++i) {
      const Span& s = b->spans[i];
      std::fprintf(f,
                   "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
                   "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                   "\"parent\":%d,\"op\":%llu}}",
                   first ? "" : ",\n", s.name, b->tid,
                   static_cast<double>(s.t0 - base) / 1e3,
                   static_cast<double>(s.t1 - s.t0) / 1e3, i, s.parent,
                   static_cast<unsigned long long>(s.op));
      first = false;
    }
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

}  // namespace pb::spans
