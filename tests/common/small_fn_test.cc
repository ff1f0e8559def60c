#include "common/small_fn.h"

#include <gtest/gtest.h>

#include <array>
#include <cstddef>
#include <functional>
#include <memory>
#include <utility>

namespace sds {
namespace {

TEST(SmallFnTest, DefaultConstructedIsEmpty) {
  SmallFn fn;
  EXPECT_FALSE(static_cast<bool>(fn));
}

TEST(SmallFnTest, InvokesInlineClosure) {
  int calls = 0;
  SmallFn fn = [&calls] { ++calls; };
  ASSERT_TRUE(static_cast<bool>(fn));
  fn();
  fn();
  EXPECT_EQ(calls, 2);
}

TEST(SmallFnTest, InvokesHeapClosure) {
  // A capture larger than the inline buffer takes the heap path.
  std::array<std::byte, kSmallFnInlineBytes * 2> big{};
  big[0] = std::byte{42};
  int observed = 0;
  SmallFn fn = [big, &observed] { observed = std::to_integer<int>(big[0]); };
  fn();
  EXPECT_EQ(observed, 42);
}

// The inline/heap boundary the simulator's compile-time guards rely on:
// a capture of exactly kSmallFnInlineBytes stays inline, one byte more
// spills, and so does a capture that cannot be moved without throwing.
struct ExactFit {
  std::array<std::byte, kSmallFnInlineBytes> bytes;
  void operator()() {}
};
struct OneByteOver {
  std::array<std::byte, kSmallFnInlineBytes + 1> bytes;
  void operator()() {}
};
struct ThrowingMove {
  ThrowingMove() = default;
  ThrowingMove(ThrowingMove&&) noexcept(false) {}
  void operator()() {}
};
static_assert(SmallFn::kStoresInline<ExactFit>);
static_assert(!SmallFn::kStoresInline<OneByteOver>);
static_assert(!SmallFn::kStoresInline<ThrowingMove>);

TEST(SmallFnTest, MoveTransfersInlineTarget) {
  int calls = 0;
  SmallFn a = [&calls] { ++calls; };
  SmallFn b = std::move(a);
  EXPECT_FALSE(static_cast<bool>(a));  // NOLINT(bugprone-use-after-move)
  ASSERT_TRUE(static_cast<bool>(b));
  b();
  EXPECT_EQ(calls, 1);
}

TEST(SmallFnTest, MoveTransfersHeapTarget) {
  std::array<std::byte, kSmallFnInlineBytes * 2> big{};
  int calls = 0;
  SmallFn a = [big, &calls] { ++calls; };
  SmallFn b = std::move(a);
  EXPECT_FALSE(static_cast<bool>(a));  // NOLINT(bugprone-use-after-move)
  b();
  EXPECT_EQ(calls, 1);
}

TEST(SmallFnTest, MoveOnlyCapturesWork) {
  auto value = std::make_unique<int>(7);
  int observed = 0;
  SmallFn fn = [value = std::move(value), &observed] { observed = *value; };
  fn();
  EXPECT_EQ(observed, 7);
}

TEST(SmallFnTest, DestroysTargetExactlyOnce) {
  auto tracker = std::make_shared<int>(0);
  EXPECT_EQ(tracker.use_count(), 1);
  {
    SmallFn fn = [tracker] {};
    EXPECT_EQ(tracker.use_count(), 2);
    SmallFn moved = std::move(fn);
    EXPECT_EQ(tracker.use_count(), 2);  // relocated, not copied
  }
  EXPECT_EQ(tracker.use_count(), 1);
}

TEST(SmallFnTest, DestroysHeapTargetExactlyOnce) {
  auto tracker = std::make_shared<int>(0);
  std::array<std::byte, kSmallFnInlineBytes * 2> big{};
  {
    SmallFn fn = [tracker, big] {};
    EXPECT_EQ(tracker.use_count(), 2);
    SmallFn moved = std::move(fn);
    EXPECT_EQ(tracker.use_count(), 2);
  }
  EXPECT_EQ(tracker.use_count(), 1);
}

TEST(SmallFnTest, ResetDestroysTarget) {
  auto tracker = std::make_shared<int>(0);
  SmallFn fn = [tracker] {};
  EXPECT_EQ(tracker.use_count(), 2);
  fn.reset();
  EXPECT_EQ(tracker.use_count(), 1);
  EXPECT_FALSE(static_cast<bool>(fn));
}

TEST(SmallFnTest, MoveAssignReplacesExistingTarget) {
  auto old_target = std::make_shared<int>(0);
  int calls = 0;
  SmallFn fn = [old_target] {};
  fn = SmallFn([&calls] { ++calls; });
  EXPECT_EQ(old_target.use_count(), 1);  // old target destroyed
  fn();
  EXPECT_EQ(calls, 1);
}

TEST(SmallFnTest, AcceptsLvalueStdFunction) {
  // The engine's cascade pattern copies a std::function into the event.
  int calls = 0;
  std::function<void()> source = [&calls] { ++calls; };
  SmallFn fn = source;
  fn();
  source();
  EXPECT_EQ(calls, 2);
}

TEST(SmallFnTest, NestedSmallFnStaysFunctional) {
  // A closure may carry another SmallFn as a capture (a continuation
  // inside a continuation); SmallFn must nest (possibly via the heap
  // path) without slicing.
  int observed = 0;
  SmallFn inner = [&observed] { observed = 11; };
  SmallFn outer = [inner = std::move(inner)]() mutable { inner(); };
  outer();
  EXPECT_EQ(observed, 11);
}

TEST(SmallFnTest, SelfMoveAssignIsSafe) {
  int calls = 0;
  SmallFn fn = [&calls] { ++calls; };
  SmallFn& alias = fn;
  fn = std::move(alias);
  ASSERT_TRUE(static_cast<bool>(fn));
  fn();
  EXPECT_EQ(calls, 1);
}

}  // namespace
}  // namespace sds
