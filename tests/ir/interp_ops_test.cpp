// Exhaustive coverage of interpreter arithmetic/logic semantics: these
// opcodes back every IR-level experiment, so silent miscomputation
// would corrupt results downstream.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <vector>

#include "ir/builder.hpp"
#include "ir/interp.hpp"

namespace iw::ir {
namespace {

/// Build `r = a OP b; ret r` and evaluate it.
std::int64_t eval(Op op, std::int64_t a, std::int64_t b) {
  Module m;
  Function* f = m.add_function("binop", 2);
  const BlockId e = f->add_block();
  Builder bld(*f);
  bld.at(e);
  const Reg r = bld.binop(op, f->arg_reg(0), f->arg_reg(1));
  bld.ret(r);
  Interp in(m);
  return in.run(f->id(), {a, b}).ret;
}

TEST(InterpOps, Arithmetic) {
  EXPECT_EQ(eval(Op::kAdd, 7, 5), 12);
  EXPECT_EQ(eval(Op::kSub, 7, 5), 2);
  EXPECT_EQ(eval(Op::kSub, 5, 7), -2);
  EXPECT_EQ(eval(Op::kMul, -3, 5), -15);
  EXPECT_EQ(eval(Op::kDiv, 17, 5), 3);
  EXPECT_EQ(eval(Op::kDiv, -17, 5), -3);
  EXPECT_EQ(eval(Op::kRem, 17, 5), 2);
}

TEST(InterpOps, DivisionByZeroIsDefined) {
  // The simulator defines x/0 == 0 (no UB, no trap) so random programs
  // cannot crash the host.
  EXPECT_EQ(eval(Op::kDiv, 42, 0), 0);
  EXPECT_EQ(eval(Op::kRem, 42, 0), 0);
}

constexpr std::int64_t kMin = std::numeric_limits<std::int64_t>::min();
constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();

TEST(InterpOps, AddSubMulWrapInTwosComplement) {
  // Like LLVM's add/sub/mul without nsw: overflow wraps, it is never
  // undefined behaviour in the host.
  EXPECT_EQ(eval(Op::kAdd, kMax, 1), kMin);
  EXPECT_EQ(eval(Op::kAdd, kMin, -1), kMax);
  EXPECT_EQ(eval(Op::kSub, kMin, 1), kMax);
  EXPECT_EQ(eval(Op::kSub, 0, kMin), kMin);
  EXPECT_EQ(eval(Op::kMul, kMax, 2), -2);
  EXPECT_EQ(eval(Op::kMul, kMin, -1), kMin);
  EXPECT_EQ(eval(Op::kMul, std::int64_t{1} << 32, std::int64_t{1} << 32), 0);
}

TEST(InterpOps, MinDividedByMinusOneIsDefined) {
  // The one quotient that overflows wraps to INT64_MIN, and its
  // remainder is 0 (the host's idiv would trap on both).
  EXPECT_EQ(eval(Op::kDiv, kMin, -1), kMin);
  EXPECT_EQ(eval(Op::kRem, kMin, -1), 0);
  EXPECT_EQ(eval(Op::kDiv, 7, -1), -7);
  EXPECT_EQ(eval(Op::kRem, 7, -1), 0);
  EXPECT_EQ(eval(Op::kRem, -7, 2), -1);
}

TEST(InterpOps, LoadStoreAddressSumsWrap) {
  // base + offset wraps like the register arithmetic: a store at
  // INT64_MAX + 1 and a load at INT64_MIN name the same address.
  Module m;
  Function* f = m.add_function("addr", 1);
  const BlockId e = f->add_block();
  Builder bld(*f);
  bld.at(e);
  const Reg base = f->arg_reg(0);
  const Reg v = bld.constant(99);
  bld.store(base, v, 1);
  const Reg min = bld.constant(kMin);
  const Reg r = bld.load(min, 0);
  bld.ret(r);
  std::vector<Addr> seen;
  InterpHooks hooks;
  hooks.on_access = [&seen](Addr a, bool) { seen.push_back(a); };
  Interp in(m, hooks);
  EXPECT_EQ(in.run(f->id(), {kMax}).ret, 99);
  ASSERT_EQ(seen.size(), 2u);
  EXPECT_EQ(seen[0], Addr{1} << 63);
  EXPECT_EQ(seen[1], Addr{1} << 63);
}

TEST(InterpOps, Bitwise) {
  EXPECT_EQ(eval(Op::kAnd, 0b1100, 0b1010), 0b1000);
  EXPECT_EQ(eval(Op::kOr, 0b1100, 0b1010), 0b1110);
  EXPECT_EQ(eval(Op::kXor, 0b1100, 0b1010), 0b0110);
}

TEST(InterpOps, Shifts) {
  EXPECT_EQ(eval(Op::kShl, 3, 4), 48);
  EXPECT_EQ(eval(Op::kShr, 48, 4), 3);
  // Shift amounts mask to 6 bits (x64 semantics).
  EXPECT_EQ(eval(Op::kShl, 1, 64), 1);
  // Logical right shift on a negative value.
  EXPECT_EQ(eval(Op::kShr, -1, 63), 1);
}

TEST(InterpOps, Comparisons) {
  EXPECT_EQ(eval(Op::kCmpEq, 5, 5), 1);
  EXPECT_EQ(eval(Op::kCmpEq, 5, 6), 0);
  EXPECT_EQ(eval(Op::kCmpLt, -1, 0), 1);
  EXPECT_EQ(eval(Op::kCmpLt, 0, 0), 0);
  EXPECT_EQ(eval(Op::kCmpLe, 0, 0), 1);
}

TEST(InterpOps, MovAndConst) {
  Module m;
  Function* f = m.add_function("mv", 1);
  const BlockId e = f->add_block();
  Builder bld(*f);
  bld.at(e);
  const Reg c = bld.constant(-12345);
  Instr mv = Instr::make(Op::kMov);
  mv.r = f->fresh_reg();
  mv.a = c;
  bld.emit(mv);
  bld.ret(mv.r);
  Interp in(m);
  EXPECT_EQ(in.run(f->id(), {0}).ret, -12345);
}

TEST(InterpOps, CostsAccrueAsDeclared) {
  // One add (1) + ret (2) + const (1) = 4 cycles.
  Module m;
  Function* f = m.add_function("c", 1);
  const BlockId e = f->add_block();
  Builder bld(*f);
  bld.at(e);
  const Reg c = bld.constant(1);
  const Reg r = bld.add(f->arg_reg(0), c);
  bld.ret(r);
  Interp in(m);
  const auto res = in.run(f->id(), {1});
  EXPECT_EQ(res.cycles, default_cost(Op::kConst) + default_cost(Op::kAdd) +
                            default_cost(Op::kRet));
  EXPECT_EQ(res.instrs, 3u);
}

}  // namespace
}  // namespace iw::ir
