#include "util/event.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

namespace qa {
namespace {

TEST(Event, EmitWithNoSubscribersIsInactiveNoop) {
  Event<int> ev;
  EXPECT_FALSE(ev.active());
  ev.emit(42);  // must not crash or allocate observers
  EXPECT_EQ(ev.subscriber_count(), 0u);
}

TEST(Event, SubscribersRunInSubscriptionOrder) {
  Event<int> ev;
  std::vector<std::string> calls;
  ev.subscribe([&](int v) {
    calls.push_back(std::string("a").append(std::to_string(v)));
  });
  ev.subscribe([&](int v) {
    calls.push_back(std::string("b").append(std::to_string(v)));
  });
  ev.subscribe([&](int v) {
    calls.push_back(std::string("c").append(std::to_string(v)));
  });
  ev.emit(1);
  ev.emit(2);
  EXPECT_EQ(calls,
            (std::vector<std::string>{"a1", "b1", "c1", "a2", "b2", "c2"}));
}

TEST(Event, UnsubscribeStopsDelivery) {
  Event<> ev;
  int a = 0;
  int b = 0;
  const SubscriptionId ida = ev.subscribe([&] { ++a; });
  ev.subscribe([&] { ++b; });
  ev.emit();
  ev.unsubscribe(ida);
  EXPECT_TRUE(ev.active());  // b still listening
  ev.emit();
  EXPECT_EQ(a, 1);
  EXPECT_EQ(b, 2);
}

TEST(Event, UnsubscribeUnknownIdIsNoop) {
  Event<> ev;
  ev.subscribe([] {});
  ev.unsubscribe(kInvalidSubscription);
  ev.unsubscribe(9999);
  EXPECT_EQ(ev.subscriber_count(), 1u);
}

TEST(Event, UnsubscribeLaterSubscriberDuringDispatchSkipsIt) {
  Event<> ev;
  int later_calls = 0;
  SubscriptionId later = kInvalidSubscription;
  // First subscriber removes the *later* one mid-dispatch: the removal must
  // take effect immediately, within this same dispatch.
  ev.subscribe([&] { ev.unsubscribe(later); });
  later = ev.subscribe([&] { ++later_calls; });
  ev.emit();
  EXPECT_EQ(later_calls, 0);
  EXPECT_EQ(ev.subscriber_count(), 1u);  // tombstone compacted post-dispatch
  ev.emit();
  EXPECT_EQ(later_calls, 0);
}

TEST(Event, SelfUnsubscribeDuringDispatchKeepsOthersRunning) {
  Event<> ev;
  int once = 0;
  int always = 0;
  SubscriptionId self = kInvalidSubscription;
  self = ev.subscribe([&] {
    ++once;
    ev.unsubscribe(self);
  });
  ev.subscribe([&] { ++always; });
  ev.emit();
  ev.emit();
  EXPECT_EQ(once, 1);
  EXPECT_EQ(always, 2);
}

TEST(Event, SubscribeDuringDispatchDefersToNextEmit) {
  Event<> ev;
  int added_calls = 0;
  bool added = false;
  ev.subscribe([&] {
    if (!added) {
      added = true;
      ev.subscribe([&] { ++added_calls; });
    }
  });
  ev.emit();
  EXPECT_EQ(added_calls, 0);  // not invoked re-entrantly
  ev.emit();
  EXPECT_EQ(added_calls, 1);
}

TEST(Event, ScopedSubscriptionDetachesOnDestruction) {
  Event<int> ev;
  int seen = 0;
  {
    ScopedSubscription sub = ev.subscribe_scoped([&](int v) { seen += v; });
    EXPECT_TRUE(sub.attached());
    ev.emit(5);
  }
  EXPECT_FALSE(ev.active());
  ev.emit(100);
  EXPECT_EQ(seen, 5);
}

TEST(Event, ScopedSubscriptionMoveTransfersOwnership) {
  Event<> ev;
  int calls = 0;
  ScopedSubscription outer;
  {
    ScopedSubscription inner = ev.subscribe_scoped([&] { ++calls; });
    outer = std::move(inner);
    EXPECT_FALSE(inner.attached());  // NOLINT(bugprone-use-after-move)
  }
  ev.emit();  // inner's destruction must not have detached
  EXPECT_EQ(calls, 1);
  outer.reset();
  ev.emit();
  EXPECT_EQ(calls, 1);
}

TEST(Event, ArgumentsAreForwardedByReference) {
  Event<const std::vector<int>&> ev;
  const std::vector<int>* observed = nullptr;
  ev.subscribe([&](const std::vector<int>& v) { observed = &v; });
  const std::vector<int> payload{1, 2, 3};
  ev.emit(payload);
  EXPECT_EQ(observed, &payload);  // no copy on the emit path
}

}  // namespace
}  // namespace qa
