#include "ir/interp.hpp"

#include "common/assert.hpp"

namespace iw::ir {

namespace {

// Register arithmetic wraps in two's complement, like LLVM's add, sub
// and mul without nsw: the sums are taken in uint64_t, where overflow
// is defined, and converted back (modular since C++20).
std::int64_t wrap_add(std::int64_t a, std::int64_t b) {
  return static_cast<std::int64_t>(static_cast<std::uint64_t>(a) +
                                   static_cast<std::uint64_t>(b));
}
std::int64_t wrap_sub(std::int64_t a, std::int64_t b) {
  return static_cast<std::int64_t>(static_cast<std::uint64_t>(a) -
                                   static_cast<std::uint64_t>(b));
}
std::int64_t wrap_mul(std::int64_t a, std::int64_t b) {
  return static_cast<std::int64_t>(static_cast<std::uint64_t>(a) *
                                   static_cast<std::uint64_t>(b));
}

// x / 0 and x % 0 are 0. INT64_MIN / -1 wraps to INT64_MIN, and any
// x % -1 is 0 (the host's division would trap on INT64_MIN).
std::int64_t wrap_div(std::int64_t a, std::int64_t b) {
  if (b == 0) return 0;
  return b == -1 ? wrap_sub(0, a) : a / b;
}
std::int64_t wrap_rem(std::int64_t a, std::int64_t b) {
  return b == 0 || b == -1 ? 0 : a % b;
}

}  // namespace

Interp::Interp(Module& m, InterpHooks hooks)
    : m_(m), hooks_(std::move(hooks)) {}

void Interp::reset() {
  memory_.clear();
  last_timing_fire_ = 0;
  last_poll_fire_ = 0;
  cycles_ = 0;
  instrs_ = 0;
  hit_limit_ = false;
  bump_ = 0x10000;
}

InterpResult Interp::run(FuncId f, const std::vector<std::int64_t>& args) {
  hit_limit_ = false;
  InterpResult res;
  res.ret = exec_function(m_.function(f), args, 0);
  res.cycles = cycles_;
  res.instrs = instrs_;
  res.hit_step_limit = hit_limit_;
  return res;
}

void Interp::exec_instr(const Function&, const Instr& i,
                        std::vector<std::int64_t>& regs, int depth) {
  auto rd = [&](Reg r) -> std::int64_t { return r == kNoReg ? 0 : regs[r]; };
  auto wr = [&](Reg r, std::int64_t v) {
    if (r != kNoReg) regs[r] = v;
  };

  ++instrs_;
  switch (i.op) {
    case Op::kConst: wr(i.r, i.imm); break;
    case Op::kMov: wr(i.r, rd(i.a)); break;
    case Op::kAdd: wr(i.r, wrap_add(rd(i.a), rd(i.b))); break;
    case Op::kSub: wr(i.r, wrap_sub(rd(i.a), rd(i.b))); break;
    case Op::kMul: wr(i.r, wrap_mul(rd(i.a), rd(i.b))); break;
    case Op::kDiv: wr(i.r, wrap_div(rd(i.a), rd(i.b))); break;
    case Op::kRem: wr(i.r, wrap_rem(rd(i.a), rd(i.b))); break;
    case Op::kAnd: wr(i.r, rd(i.a) & rd(i.b)); break;
    case Op::kOr: wr(i.r, rd(i.a) | rd(i.b)); break;
    case Op::kXor: wr(i.r, rd(i.a) ^ rd(i.b)); break;
    case Op::kShl: wr(i.r, rd(i.a) << (rd(i.b) & 63)); break;
    case Op::kShr:
      wr(i.r, static_cast<std::int64_t>(
                  static_cast<std::uint64_t>(rd(i.a)) >> (rd(i.b) & 63)));
      break;
    case Op::kCmpEq: wr(i.r, rd(i.a) == rd(i.b) ? 1 : 0); break;
    case Op::kCmpLt: wr(i.r, rd(i.a) < rd(i.b) ? 1 : 0); break;
    case Op::kCmpLe: wr(i.r, rd(i.a) <= rd(i.b) ? 1 : 0); break;
    case Op::kLoad: {
      const Addr a = static_cast<Addr>(wrap_add(rd(i.a), i.imm));
      if (hooks_.on_access) hooks_.on_access(a, false);
      auto it = memory_.find(a);
      wr(i.r, it == memory_.end() ? 0 : it->second);
      break;
    }
    case Op::kStore: {
      const Addr a = static_cast<Addr>(wrap_add(rd(i.a), i.imm));
      if (hooks_.on_access) hooks_.on_access(a, true);
      memory_[a] = rd(i.b);
      break;
    }
    case Op::kAlloc: {
      const auto bytes = static_cast<std::uint64_t>(i.imm);
      Addr a;
      if (hooks_.on_alloc) {
        a = hooks_.on_alloc(bytes);
      } else {
        a = bump_;
        bump_ += (bytes + 63) & ~std::uint64_t{63};
      }
      wr(i.r, static_cast<std::int64_t>(a));
      break;
    }
    case Op::kFree:
      if (hooks_.on_free) hooks_.on_free(static_cast<Addr>(rd(i.a)));
      break;
    case Op::kGuard:
      if (hooks_.on_guard) {
        hooks_.on_guard(static_cast<Addr>(wrap_add(rd(i.a), i.imm)),
                        static_cast<std::uint64_t>(i.imm2), i.b == 1);
      }
      break;
    case Op::kGuardRange:
      if (hooks_.on_guard_range) {
        hooks_.on_guard_range(static_cast<Addr>(rd(i.a)));
      }
      break;
    case Op::kTimingCall:
    case Op::kPoll: {
      // Elapsed-time-threshold check (compiler-based timing semantics):
      // `imm` is the fire threshold in cycles against the global clock;
      // a non-firing visit costs one compare.
      Cycles& last_fire = i.op == Op::kTimingCall ? last_timing_fire_
                                                  : last_poll_fire_;
      if (i.imm > 0 && cycles_ - last_fire < static_cast<Cycles>(i.imm)) {
        cycles_ += 1;  // load + compare, predicted not-taken
        return;
      }
      last_fire = cycles_;
      if (i.op == Op::kTimingCall) {
        if (hooks_.on_timing) hooks_.on_timing();
      } else {
        if (hooks_.on_poll) hooks_.on_poll();
      }
      break;
    }
    case Op::kCall: {
      std::vector<std::int64_t> call_args;
      call_args.reserve(i.args.size());
      for (Reg a : i.args) call_args.push_back(rd(a));
      const std::int64_t v =
          exec_function(m_.function(static_cast<FuncId>(i.imm)), call_args,
                        depth + 1);
      wr(i.r, v);
      break;
    }
    case Op::kVirtineCall: {
      std::vector<std::int64_t> call_args;
      call_args.reserve(i.args.size());
      for (Reg a : i.args) call_args.push_back(rd(a));
      if (hooks_.on_virtine) {
        const auto [v, cyc] = hooks_.on_virtine(
            static_cast<FuncId>(i.imm), call_args);
        cycles_ += cyc;
        wr(i.r, v);
      } else {
        // No microhypervisor bound: degrade to a local call.
        wr(i.r, exec_function(m_.function(static_cast<FuncId>(i.imm)),
                              call_args, depth + 1));
      }
      break;
    }
    case Op::kBr:
    case Op::kCondBr:
    case Op::kRet:
      IW_ASSERT_MSG(false, "terminator executed via exec_instr");
      break;
  }
  cycles_ += i.cost;
}

std::int64_t Interp::exec_function(const Function& f,
                                   const std::vector<std::int64_t>& args,
                                   int depth) {
  IW_ASSERT_MSG(depth < 200, "call depth limit exceeded");
  IW_ASSERT(args.size() == f.num_args());
  std::vector<std::int64_t> regs(static_cast<std::size_t>(f.num_regs()), 0);
  for (std::size_t i = 0; i < args.size(); ++i) regs[i] = args[i];

  BlockId bb = f.entry();
  for (;;) {
    if (instrs_ >= step_limit_) {
      hit_limit_ = true;
      return 0;
    }
    const auto& block = f.block(bb);
    for (const auto& i : block.body) {
      exec_instr(f, i, regs, depth);
      if (instrs_ >= step_limit_) {
        hit_limit_ = true;
        return 0;
      }
    }
    const auto& t = block.term;
    ++instrs_;
    cycles_ += t.cost;
    switch (t.op) {
      case Op::kBr:
        bb = block.succs[0];
        break;
      case Op::kCondBr:
        bb = (t.a != kNoReg && regs[t.a] != 0) ? block.succs[0]
                                               : block.succs[1];
        break;
      case Op::kRet:
        return t.a == kNoReg ? 0 : regs[t.a];
      default:
        IW_ASSERT_MSG(false, "non-terminator as block terminator");
    }
  }
}

}  // namespace iw::ir
