// §V-C extension table: sub-page transparent far memory via compiler
// blending — object granularity (CARAT-informed, trap-free) vs the
// page-granularity swapping baseline, across local-memory fractions and
// access skews. The paper proposes this as blending's first candidate
// application; there is no published figure, so this table records the
// predicted regime map.
#include <cstdio>
#include <vector>

#include "blending/farmem.hpp"
#include "common/rng.hpp"
#include "harness.hpp"

using namespace iw;
using namespace iw::blending;

namespace {

bench::Harness harness;

struct Workload {
  const char* name;
  double hot_fraction;   // fraction of objects that are hot
  double hot_bias;       // probability an access goes to the hot set
};

struct Result {
  double page_avg;
  double page_inj_avg;  // page swap with branch-injected #PF (§V-D)
  double obj_avg;
  double page_amp;
  double obj_amp;
};

Result run(const Workload& w, std::uint64_t local_bytes) {
  FarMemConfig cfg;
  cfg.local_bytes = local_bytes;
  ObjectFarMem ofm(cfg);
  PageSwapFarMem pfm(cfg);
  // Cross-subsystem synthesis: pipeline-injected exceptions (§V-D)
  // collapse the page-fault trap from ~2800 cycles to a predicted-
  // branch-like entry; the transfer amplification remains.
  FarMemConfig inj = cfg;
  inj.fault_trap = 40;
  PageSwapFarMem pfm_inj(inj);

  const int kObjects = 16'384;  // 16k x 64 B = 1 MiB working set
  std::vector<Addr> objs;
  objs.reserve(kObjects);
  for (int i = 0; i < kObjects; ++i) objs.push_back(ofm.alloc(64));

  Rng rng(harness.seed());
  std::vector<int> hot;
  const int hot_n = std::max(1, static_cast<int>(kObjects * w.hot_fraction));
  for (int i = 0; i < hot_n; ++i) {
    hot.push_back(static_cast<int>(rng.uniform(0, kObjects - 1)));
  }

  Cycles oc = 0, pc = 0, pic = 0;
  const int kAccesses = 60'000;
  for (int i = 0; i < kAccesses; ++i) {
    const int idx = rng.chance(w.hot_bias)
                        ? hot[rng.uniform(0, hot.size() - 1)]
                        : static_cast<int>(rng.uniform(0, kObjects - 1));
    const bool wr = rng.chance(0.3);
    oc += ofm.access(objs[idx], 8, wr);
    pc += pfm.access(static_cast<Addr>(idx) * 64, 8, wr);
    pic += pfm_inj.access(static_cast<Addr>(idx) * 64, 8, wr);
  }
  return {static_cast<double>(pc) / kAccesses,
          static_cast<double>(pic) / kAccesses,
          static_cast<double>(oc) / kAccesses,
          pfm.stats().fetch_amplification(),
          ofm.stats().fetch_amplification()};
}

}  // namespace

int main(int argc, char** argv) {
  if (!harness.parse(argc, argv, {bench::kSeed})) return 2;
  std::printf("== far memory: page-granularity swap vs object-granularity "
              "blending ==\n");
  std::printf("(1 MiB of 64 B objects; avg access cycles and network fetch "
              "amplification)\n\n");
  std::printf("%-14s %10s %10s %12s %10s %8s %9s %9s\n", "workload",
              "local_frac", "page_avg", "page+injPF", "obj_avg",
              "speedup", "page_amp", "obj_amp");

  const std::vector<Workload> workloads = {
      {"skewed-90/10", 0.10, 0.90},
      {"skewed-80/20", 0.20, 0.80},
      {"uniform", 1.00, 0.00},
  };
  for (const auto& w : workloads) {
    for (std::uint64_t frac_pct : {50, 25, 12}) {
      const std::uint64_t local = (1u << 20) * frac_pct / 100;
      const auto r = run(w, local);
      std::printf(
          "%-14s %9llu%% %10.0f %12.0f %10.0f %7.2fx %9.1f %9.1f\n",
          w.name, static_cast<unsigned long long>(frac_pct), r.page_avg,
          r.page_inj_avg, r.obj_avg, r.page_avg / r.obj_avg, r.page_amp,
          r.obj_amp);
    }
  }
  std::printf(
      "\nshape: object granularity wins everywhere; injected exceptions\n"
      "(pipeline interrupts, §V-D) shave the baseline's trap cost but\n"
      "cannot fix its amplification; the gap explodes on\n"
      "skewed access (the hot set fits locally at object granularity but\n"
      "is diluted 64x by cold page-neighbors at page granularity), and\n"
      "fetch amplification drops by 1-2 orders of magnitude.\n");
  return 0;
}
