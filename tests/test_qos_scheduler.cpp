// util::QosScheduler: bounded admission, overload policies (Block / Reject /
// ShedLowestPriority), strict priority classes, per-tenant weighted fair
// dequeue, admission deadlines, cancellation and the two shutdown modes.
//
// Determinism technique: a single worker plus a "gate" job that blocks it
// lets each test stage an exact queue state before any dequeue decision is
// made; the stride-based fair dequeue is then a pure function of the staged
// queue.

#include "util/scheduler.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <future>
#include <mutex>
#include <thread>
#include <vector>

namespace {

using netembed::util::OverloadPolicy;
using netembed::util::QosDropReason;
using netembed::util::QosScheduler;

constexpr auto kWaitBudget = std::chrono::seconds(30);

/// Blocks the (single) worker until open() — the staging primitive.
struct Gate {
  std::promise<void> runningPromise;
  std::shared_future<void> running = runningPromise.get_future().share();
  std::promise<void> openPromise;
  std::shared_future<void> open = openPromise.get_future().share();

  QosScheduler::Job job(int priority = 1000) {
    QosScheduler::Job j;
    j.priority = priority;  // outranks everything: always dequeues first
    j.tenant = 999;
    j.run = [this] {
      runningPromise.set_value();
      open.wait();
    };
    return j;
  }

  void waitRunning() {
    ASSERT_EQ(running.wait_for(kWaitBudget), std::future_status::ready)
        << "gate job never started";
  }
  void release() { openPromise.set_value(); }
};

/// Thread-safe execution-order recorder.
struct OrderLog {
  std::mutex mutex;
  std::vector<int> order;

  QosScheduler::Job job(int label, int priority = 0, std::uint64_t tenant = 0) {
    QosScheduler::Job j;
    j.priority = priority;
    j.tenant = tenant;
    j.run = [this, label] {
      std::lock_guard lock(mutex);
      order.push_back(label);
    };
    return j;
  }

  std::vector<int> snapshot() {
    std::lock_guard lock(mutex);
    return order;
  }
};

QosScheduler::Options singleWorker(std::size_t capacity = 0,
                                   OverloadPolicy policy = OverloadPolicy::Block) {
  QosScheduler::Options o;
  o.workers = 1;
  o.queueCapacity = capacity;
  o.overload = policy;
  return o;
}

TEST(QosScheduler, RunsAcceptedJobsAndCountsThem) {
  OrderLog log;
  {
    QosScheduler sched(singleWorker());
    Gate gate;
    ASSERT_NE(sched.submit(gate.job()), 0u);
    gate.waitRunning();
    for (int i = 0; i < 4; ++i) ASSERT_NE(sched.submit(log.job(i)), 0u);
    EXPECT_EQ(sched.queuedCount(), 4u);
    EXPECT_EQ(sched.pending(), 5u);
    gate.release();
    sched.drain();
    EXPECT_EQ(sched.pending(), 0u);
    const QosScheduler::Stats stats = sched.stats();
    EXPECT_EQ(stats.accepted, 5u);
    EXPECT_EQ(stats.completed, 5u);
    EXPECT_EQ(stats.rejected + stats.shed + stats.expired + stats.cancelled, 0u);
  }
  // Same priority, same tenant: admission order is execution order.
  EXPECT_EQ(log.snapshot(), (std::vector<int>{0, 1, 2, 3}));
}

TEST(QosScheduler, HigherPriorityClassesDequeueStrictlyFirst) {
  OrderLog log;
  QosScheduler sched(singleWorker());
  Gate gate;
  ASSERT_NE(sched.submit(gate.job()), 0u);
  gate.waitRunning();
  ASSERT_NE(sched.submit(log.job(/*label=*/0, /*priority=*/0)), 0u);
  ASSERT_NE(sched.submit(log.job(/*label=*/2, /*priority=*/2)), 0u);
  ASSERT_NE(sched.submit(log.job(/*label=*/1, /*priority=*/1)), 0u);
  ASSERT_NE(sched.submit(log.job(/*label=*/3, /*priority=*/2)), 0u);
  gate.release();
  sched.drain();
  // Class 2 first (FIFO within it), then 1, then 0.
  EXPECT_EQ(log.snapshot(), (std::vector<int>{2, 3, 1, 0}));
}

TEST(QosScheduler, WeightedFairDequeueHonorsTenantWeights) {
  // Saturated two-tenant queue, weights 3:1 — dequeues must interleave at
  // the configured ratio, not starve either side.
  constexpr int kPerTenant = 9;
  OrderLog log;
  QosScheduler sched(singleWorker());
  sched.setTenantWeight(1, 3.0);
  sched.setTenantWeight(2, 1.0);
  Gate gate;
  ASSERT_NE(sched.submit(gate.job()), 0u);
  gate.waitRunning();
  for (int i = 0; i < kPerTenant; ++i) {
    ASSERT_NE(sched.submit(log.job(/*label=*/1, /*priority=*/0, /*tenant=*/1)), 0u);
    ASSERT_NE(sched.submit(log.job(/*label=*/2, /*priority=*/0, /*tenant=*/2)), 0u);
  }
  gate.release();
  sched.drain();

  const std::vector<int> order = log.snapshot();
  ASSERT_EQ(order.size(), static_cast<std::size_t>(2 * kPerTenant));
  // Within the window where both tenants still have queued work (the first
  // 12 dequeues: 9 + 3), the weight-3 tenant gets 3x the service.
  int tenant1First12 = 0;
  for (int i = 0; i < 12; ++i) tenant1First12 += order[static_cast<std::size_t>(i)] == 1;
  EXPECT_GE(tenant1First12, 8) << "weight-3 tenant under-served";
  EXPECT_LE(tenant1First12, 10) << "weight-1 tenant starved";
  // Fairness also means the light tenant is served early, not appended.
  const auto firstTenant2 = std::find(order.begin(), order.end(), 2);
  EXPECT_LT(firstTenant2 - order.begin(), 4);
  // Everything accepted eventually runs.
  EXPECT_EQ(std::count(order.begin(), order.end(), 1), kPerTenant);
  EXPECT_EQ(std::count(order.begin(), order.end(), 2), kPerTenant);
}

TEST(QosScheduler, RejectPolicyDropsNewcomerAtCapacity) {
  OrderLog log;
  QosScheduler sched(singleWorker(/*capacity=*/2, OverloadPolicy::Reject));
  Gate gate;
  ASSERT_NE(sched.submit(gate.job()), 0u);
  gate.waitRunning();
  ASSERT_NE(sched.submit(log.job(0)), 0u);
  ASSERT_NE(sched.submit(log.job(1)), 0u);

  std::atomic<int> drops{0};
  QosScheduler::Job overflow = log.job(2);
  overflow.onDrop = [&](QosDropReason reason) {
    EXPECT_EQ(reason, QosDropReason::Rejected);
    drops.fetch_add(1);
  };
  // The drop is synchronous: id 0 and the callback has fired on return.
  EXPECT_EQ(sched.submit(std::move(overflow)), 0u);
  EXPECT_EQ(drops.load(), 1);

  gate.release();
  sched.drain();
  EXPECT_EQ(log.snapshot(), (std::vector<int>{0, 1}));
  EXPECT_EQ(sched.stats().rejected, 1u);
}

TEST(QosScheduler, ShedLowestPriorityEvictsMostRecentLowJob) {
  OrderLog log;
  QosScheduler sched(singleWorker(/*capacity=*/2, OverloadPolicy::ShedLowestPriority));
  Gate gate;
  ASSERT_NE(sched.submit(gate.job()), 0u);
  gate.waitRunning();

  std::atomic<int> shedDrops{0};
  QosScheduler::Job lowA = log.job(/*label=*/10, /*priority=*/0);
  QosScheduler::Job lowB = log.job(/*label=*/11, /*priority=*/0);
  lowB.onDrop = [&](QosDropReason reason) {
    EXPECT_EQ(reason, QosDropReason::Shed);
    shedDrops.fetch_add(1);
  };
  ASSERT_NE(sched.submit(std::move(lowA)), 0u);
  ASSERT_NE(sched.submit(std::move(lowB)), 0u);

  // A higher-priority newcomer evicts the most recently admitted low job
  // (lowB — lowA has waited longer and keeps its place).
  ASSERT_NE(sched.submit(log.job(/*label=*/20, /*priority=*/1)), 0u);
  EXPECT_EQ(shedDrops.load(), 1);

  // A newcomer at the lowest queued priority is itself the shed victim.
  std::atomic<int> selfShed{0};
  QosScheduler::Job lowC = log.job(/*label=*/12, /*priority=*/0);
  lowC.onDrop = [&](QosDropReason reason) {
    EXPECT_EQ(reason, QosDropReason::Shed);
    selfShed.fetch_add(1);
  };
  EXPECT_EQ(sched.submit(std::move(lowC)), 0u);
  EXPECT_EQ(selfShed.load(), 1);

  gate.release();
  sched.drain();
  EXPECT_EQ(log.snapshot(), (std::vector<int>{20, 10}));
  EXPECT_EQ(sched.stats().shed, 2u);
}

TEST(QosScheduler, BlockPolicyWaitsForSpace) {
  OrderLog log;
  QosScheduler sched(singleWorker(/*capacity=*/1, OverloadPolicy::Block));
  Gate gate;
  ASSERT_NE(sched.submit(gate.job()), 0u);
  gate.waitRunning();
  ASSERT_NE(sched.submit(log.job(0)), 0u);  // fills the queue

  std::atomic<bool> admitted{false};
  std::thread submitter([&] {
    EXPECT_NE(sched.submit(log.job(1)), 0u);
    admitted.store(true);
  });
  // The submitter must be blocked while the queue is full.
  std::this_thread::sleep_for(std::chrono::milliseconds(25));
  EXPECT_FALSE(admitted.load());

  gate.release();  // worker drains job 0 -> space -> submitter unblocks
  submitter.join();
  EXPECT_TRUE(admitted.load());
  sched.drain();
  EXPECT_EQ(log.snapshot(), (std::vector<int>{0, 1}));
}

TEST(QosScheduler, AdmissionDeadlineExpiresQueuedJob) {
  OrderLog log;
  QosScheduler sched(singleWorker());
  Gate gate;
  ASSERT_NE(sched.submit(gate.job()), 0u);
  gate.waitRunning();

  std::promise<QosDropReason> droppedPromise;
  auto dropped = droppedPromise.get_future();
  QosScheduler::Job stale = log.job(0);
  stale.admitBy = QosScheduler::Clock::now() - std::chrono::milliseconds(1);
  stale.onDrop = [&](QosDropReason reason) { droppedPromise.set_value(reason); };
  ASSERT_NE(sched.submit(std::move(stale)), 0u);  // queued; expiry is lazy
  ASSERT_NE(sched.submit(log.job(1)), 0u);

  gate.release();
  sched.drain();
  ASSERT_EQ(dropped.wait_for(kWaitBudget), std::future_status::ready);
  EXPECT_EQ(dropped.get(), QosDropReason::Expired);
  EXPECT_EQ(log.snapshot(), (std::vector<int>{1}));
  EXPECT_EQ(sched.stats().expired, 1u);
}

TEST(QosScheduler, BlockedSubmitterRespectsItsOwnDeadline) {
  OrderLog log;
  QosScheduler sched(singleWorker(/*capacity=*/1, OverloadPolicy::Block));
  Gate gate;
  ASSERT_NE(sched.submit(gate.job()), 0u);
  gate.waitRunning();
  ASSERT_NE(sched.submit(log.job(0)), 0u);  // fills the queue

  std::atomic<int> expired{0};
  QosScheduler::Job hurried = log.job(1);
  hurried.admitBy = QosScheduler::Clock::now() + std::chrono::milliseconds(30);
  hurried.onDrop = [&](QosDropReason reason) {
    EXPECT_EQ(reason, QosDropReason::Expired);
    expired.fetch_add(1);
  };
  // The queue stays full past the deadline: the blocked submit gives up.
  EXPECT_EQ(sched.submit(std::move(hurried)), 0u);
  EXPECT_EQ(expired.load(), 1);

  gate.release();
  sched.drain();
  EXPECT_EQ(log.snapshot(), (std::vector<int>{0}));
}

TEST(QosScheduler, CancelRemovesQueuedJobExactlyOnce) {
  OrderLog log;
  QosScheduler sched(singleWorker());
  Gate gate;
  ASSERT_NE(sched.submit(gate.job()), 0u);
  gate.waitRunning();

  std::atomic<int> drops{0};
  QosScheduler::Job doomed = log.job(0);
  doomed.onDrop = [&](QosDropReason reason) {
    EXPECT_EQ(reason, QosDropReason::Cancelled);
    drops.fetch_add(1);
  };
  const QosScheduler::JobId id = sched.submit(std::move(doomed));
  ASSERT_NE(id, 0u);
  ASSERT_NE(sched.submit(log.job(1)), 0u);

  EXPECT_TRUE(sched.cancel(id));
  EXPECT_EQ(drops.load(), 1);
  EXPECT_FALSE(sched.cancel(id)) << "second cancel must miss";
  EXPECT_FALSE(sched.cancel(987654u)) << "unknown id must miss";

  gate.release();
  sched.drain();
  EXPECT_EQ(log.snapshot(), (std::vector<int>{1}));
  EXPECT_EQ(sched.stats().cancelled, 1u);
}

TEST(QosScheduler, ShutdownCancelPendingDropsQueuedJobs) {
  OrderLog log;
  QosScheduler sched(singleWorker());
  Gate gate;
  ASSERT_NE(sched.submit(gate.job()), 0u);
  gate.waitRunning();

  std::promise<void> bothDroppedPromise;
  auto bothDropped = bothDroppedPromise.get_future();
  std::atomic<int> drops{0};
  for (int i = 0; i < 2; ++i) {
    QosScheduler::Job job = log.job(i);
    job.onDrop = [&](QosDropReason reason) {
      EXPECT_EQ(reason, QosDropReason::Cancelled);
      if (drops.fetch_add(1) + 1 == 2) bothDroppedPromise.set_value();
    };
    ASSERT_NE(sched.submit(std::move(job)), 0u);
  }

  // Shutdown resolves the dropped queue before joining the (still gated)
  // worker, so the drops are observable while the gate is closed.
  std::thread shutdownThread([&] {
    sched.shutdown(QosScheduler::ShutdownMode::CancelPending);
  });
  ASSERT_EQ(bothDropped.wait_for(kWaitBudget), std::future_status::ready);
  gate.release();
  shutdownThread.join();

  EXPECT_TRUE(log.snapshot().empty());
  EXPECT_EQ(sched.stats().cancelled, 2u);
  // Post-shutdown submissions are refused.
  std::atomic<int> lateDrops{0};
  QosScheduler::Job late = log.job(9);
  late.onDrop = [&](QosDropReason reason) {
    EXPECT_EQ(reason, QosDropReason::Rejected);
    lateDrops.fetch_add(1);
  };
  EXPECT_EQ(sched.submit(std::move(late)), 0u);
  EXPECT_EQ(lateDrops.load(), 1);
}

TEST(QosScheduler, DestructorDrainsEverythingAccepted) {
  OrderLog log;
  {
    QosScheduler sched(singleWorker());
    for (int i = 0; i < 5; ++i) ASSERT_NE(sched.submit(log.job(i)), 0u);
  }  // ~QosScheduler == shutdown(Drain)
  EXPECT_EQ(log.snapshot().size(), 5u);
}

TEST(QosScheduler, ExpiredJobsDoNotChargeTenantStride) {
  // Fairness regression: an expired-on-arrival job must not cost its tenant
  // a stride quantum. Stage tenants 1 and 2 (equal weight) behind a gate:
  // tenant 1 queues three already-expired jobs plus one live job, tenant 2
  // queues three live jobs. With the bug (stride charged at pop, before the
  // expiry check), tenant 1's pass advances to 3 while its expired jobs are
  // discarded, and its live job runs *last*. Charged only on dispatch,
  // tenant 1 still owns pass 0 after the discards, so its live job runs
  // first.
  OrderLog log;
  QosScheduler sched(singleWorker());
  Gate gate;
  ASSERT_NE(sched.submit(gate.job()), 0u);
  gate.waitRunning();

  std::atomic<int> expiredDrops{0};
  for (int i = 0; i < 3; ++i) {
    QosScheduler::Job stale = log.job(/*label=*/-1, /*priority=*/0, /*tenant=*/1);
    stale.admitBy = QosScheduler::Clock::now() - std::chrono::milliseconds(1);
    stale.onDrop = [&](QosDropReason reason) {
      EXPECT_EQ(reason, QosDropReason::Expired);
      expiredDrops.fetch_add(1);
    };
    ASSERT_NE(sched.submit(std::move(stale)), 0u);
  }
  ASSERT_NE(sched.submit(log.job(/*label=*/100, /*priority=*/0, /*tenant=*/1)), 0u);
  for (int i = 0; i < 3; ++i) {
    ASSERT_NE(sched.submit(log.job(/*label=*/200 + i, /*priority=*/0, /*tenant=*/2)), 0u);
  }

  gate.release();
  sched.drain();
  EXPECT_EQ(expiredDrops.load(), 3);
  EXPECT_EQ(sched.stats().expired, 3u);
  const std::vector<int> order = log.snapshot();
  ASSERT_EQ(order.size(), 4u);
  EXPECT_EQ(order[0], 100)
      << "tenant 1 lost fair share to jobs that never ran";
  EXPECT_EQ(order, (std::vector<int>{100, 200, 201, 202}));
}

TEST(QosScheduler, EdfOrdersDeadlineJobsWithinBucket) {
  // Same class, same tenant: deadline-bearing jobs dequeue earliest-deadline
  // first, ahead of deadline-free ones; the deadline-free tail keeps FIFO.
  OrderLog log;
  QosScheduler sched(singleWorker());
  Gate gate;
  ASSERT_NE(sched.submit(gate.job()), 0u);
  gate.waitRunning();

  const auto now = QosScheduler::Clock::now();
  QosScheduler::Job a = log.job(0);
  a.admitBy = now + std::chrono::seconds(60);
  QosScheduler::Job b = log.job(1);
  b.admitBy = now + std::chrono::seconds(30);
  QosScheduler::Job c = log.job(2);  // no deadline
  QosScheduler::Job d = log.job(3);
  d.admitBy = now + std::chrono::seconds(90);
  QosScheduler::Job e = log.job(4);  // no deadline, after c
  for (QosScheduler::Job* j : {&a, &b, &c, &d, &e}) {
    ASSERT_NE(sched.submit(std::move(*j)), 0u);
  }

  gate.release();
  sched.drain();
  // b (30 s) < a (60 s) < d (90 s) < c, e (unbounded, admission order).
  EXPECT_EQ(log.snapshot(), (std::vector<int>{1, 0, 3, 2, 4}));
}

TEST(QosScheduler, LowPriorityWatermarkShedsEarly) {
  // Watermark 0.5 over capacity 4: once 2 jobs are queued, a newcomer that
  // ranks strictly below the highest queued class is shed even though the
  // queue still has room — the headroom is reserved for the top class.
  QosScheduler::Options options =
      singleWorker(/*capacity=*/4, OverloadPolicy::ShedLowestPriority);
  options.control.lowPriorityShedWatermark = 0.5;
  QosScheduler sched(options);
  OrderLog log;
  Gate gate;
  ASSERT_NE(sched.submit(gate.job()), 0u);
  gate.waitRunning();

  ASSERT_NE(sched.submit(log.job(/*label=*/0, /*priority=*/2)), 0u);
  ASSERT_NE(sched.submit(log.job(/*label=*/1, /*priority=*/2)), 0u);
  ASSERT_EQ(sched.queuedCount(), 2u);

  std::atomic<int> shedDrops{0};
  QosScheduler::Job low = log.job(/*label=*/9, /*priority=*/0);
  low.onDrop = [&](QosDropReason reason) {
    EXPECT_EQ(reason, QosDropReason::Shed);
    shedDrops.fetch_add(1);
  };
  EXPECT_EQ(sched.submit(std::move(low)), 0u) << "below-watermark shed missed";
  EXPECT_EQ(shedDrops.load(), 1);

  // Top-class work still uses the remaining headroom.
  ASSERT_NE(sched.submit(log.job(/*label=*/2, /*priority=*/2)), 0u);
  EXPECT_EQ(sched.queuedCount(), 3u);

  gate.release();
  sched.drain();
  EXPECT_EQ(log.snapshot(), (std::vector<int>{0, 1, 2}));
  EXPECT_EQ(sched.stats().shed, 1u);
}

TEST(QosScheduler, AdaptiveCapacityDerivesFromServiceTimes) {
  // Two completed ~25 ms jobs warm the class-0 EWMA; a 50 ms target delay
  // over one worker then derives capacity ceil(50 / ewma) in [1, 2], clamped
  // up to kMinAdaptiveCapacity 2 — far below the static bound of 64.
  static_assert(QosScheduler::ControlPolicy::kMinAdaptiveCapacity == 2);
  QosScheduler::Options options = singleWorker(/*capacity=*/64, OverloadPolicy::Reject);
  options.control.adaptiveCapacity = true;
  options.control.targetQueueDelay = std::chrono::milliseconds(50);
  QosScheduler sched(options);

  // Before any completion the static capacity applies.
  EXPECT_EQ(sched.stats().effectiveCapacity, 64u);

  for (int i = 0; i < 2; ++i) {
    QosScheduler::Job slow;
    slow.run = [] { std::this_thread::sleep_for(std::chrono::milliseconds(25)); };
    ASSERT_NE(sched.submit(std::move(slow)), 0u);
  }
  sched.drain();
  EXPECT_EQ(sched.stats().effectiveCapacity, 2u);

  // Overload against the derived bound: behind a gated worker, only 2 of 6
  // quick jobs fit; the static capacity of 64 would have taken all of them.
  Gate gate;
  ASSERT_NE(sched.submit(gate.job()), 0u);
  gate.waitRunning();
  OrderLog log;
  std::atomic<int> rejections{0};
  for (int i = 0; i < 6; ++i) {
    QosScheduler::Job j = log.job(i);
    j.onDrop = [&](QosDropReason reason) {
      EXPECT_EQ(reason, QosDropReason::Rejected);
      rejections.fetch_add(1);
    };
    (void)sched.submit(std::move(j));
  }
  EXPECT_EQ(rejections.load(), 4);
  gate.release();
  sched.drain();
  EXPECT_EQ(log.snapshot().size(), 2u);

  // Per-class signals are surfaced: class 0 completed the two warm-up jobs
  // with a plausibly-sized EWMA (the gate and quick jobs shift it later, so
  // only the floor is asserted here).
  const QosScheduler::Stats stats = sched.stats();
  ASSERT_FALSE(stats.classes.empty());
  const auto class0 = std::find_if(
      stats.classes.begin(), stats.classes.end(),
      [](const QosScheduler::Stats::ClassStats& c) { return c.priority == 0; });
  ASSERT_NE(class0, stats.classes.end());
  EXPECT_GE(class0->completed, 4u);  // 2 warm-ups + 2 admitted quick jobs
  EXPECT_GT(class0->serviceEwmaMs, 0.0);
  EXPECT_GE(class0->waitSamples, 4u);
}

TEST(QosScheduler, ShutdownDrainWakesBlockedSubmitterAsRejected) {
  // A submitter parked on spaceCv must not outlive shutdown: Drain wakes it
  // and refuses the job with Rejected (the queue's contents still run).
  OrderLog log;
  QosScheduler sched(singleWorker(/*capacity=*/1, OverloadPolicy::Block));
  Gate gate;
  ASSERT_NE(sched.submit(gate.job()), 0u);
  gate.waitRunning();
  ASSERT_NE(sched.submit(log.job(0)), 0u);  // fills the queue

  std::atomic<int> rejectedDrops{0};
  std::thread submitter([&] {
    QosScheduler::Job blocked = log.job(1);
    blocked.onDrop = [&](QosDropReason reason) {
      EXPECT_EQ(reason, QosDropReason::Rejected);
      rejectedDrops.fetch_add(1);
    };
    EXPECT_EQ(sched.submit(std::move(blocked)), 0u);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(25));

  std::thread shutdownThread([&] {
    sched.shutdown(QosScheduler::ShutdownMode::Drain);
  });
  submitter.join();  // woken by shutdown, not by space
  EXPECT_EQ(rejectedDrops.load(), 1);
  gate.release();
  shutdownThread.join();
  EXPECT_EQ(log.snapshot(), (std::vector<int>{0}));  // queued job still ran
}

TEST(QosScheduler, ShutdownCancelPendingWakesBlockedSubmitterAsRejected) {
  // CancelPending: the blocked submitter is still Rejected (its job was
  // never admitted), while the queued job resolves Cancelled unrun.
  OrderLog log;
  QosScheduler sched(singleWorker(/*capacity=*/1, OverloadPolicy::Block));
  Gate gate;
  ASSERT_NE(sched.submit(gate.job()), 0u);
  gate.waitRunning();

  std::atomic<int> cancelledDrops{0};
  QosScheduler::Job queued = log.job(0);
  queued.onDrop = [&](QosDropReason reason) {
    EXPECT_EQ(reason, QosDropReason::Cancelled);
    cancelledDrops.fetch_add(1);
  };
  ASSERT_NE(sched.submit(std::move(queued)), 0u);

  std::atomic<int> rejectedDrops{0};
  std::thread submitter([&] {
    QosScheduler::Job blocked = log.job(1);
    blocked.onDrop = [&](QosDropReason reason) {
      EXPECT_EQ(reason, QosDropReason::Rejected);
      rejectedDrops.fetch_add(1);
    };
    EXPECT_EQ(sched.submit(std::move(blocked)), 0u);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(25));

  std::thread shutdownThread([&] {
    sched.shutdown(QosScheduler::ShutdownMode::CancelPending);
  });
  submitter.join();
  EXPECT_EQ(rejectedDrops.load(), 1);
  gate.release();
  shutdownThread.join();
  EXPECT_EQ(cancelledDrops.load(), 1);
  EXPECT_TRUE(log.snapshot().empty());
}

TEST(QosScheduler, TrySubmitNeverBlocksUnderBlockPolicy) {
  OrderLog log;
  QosScheduler sched(singleWorker(/*capacity=*/1, OverloadPolicy::Block));
  Gate gate;
  ASSERT_NE(sched.submit(gate.job()), 0u);
  gate.waitRunning();
  ASSERT_NE(sched.trySubmit(log.job(0)), 0u);  // space available: admitted

  std::atomic<int> rejectedDrops{0};
  QosScheduler::Job overflow = log.job(1);
  overflow.onDrop = [&](QosDropReason reason) {
    EXPECT_EQ(reason, QosDropReason::Rejected);
    rejectedDrops.fetch_add(1);
  };
  // Full queue: trySubmit returns immediately instead of parking on spaceCv.
  EXPECT_EQ(sched.trySubmit(std::move(overflow)), 0u);
  EXPECT_EQ(rejectedDrops.load(), 1);

  gate.release();
  sched.drain();
  EXPECT_EQ(log.snapshot(), (std::vector<int>{0}));
}

TEST(QosScheduler, AdmissionWaitPercentilesTrackQueueTime) {
  QosScheduler sched(singleWorker());
  EXPECT_EQ(sched.stats().admissionWaitSamples, 0u);
  EXPECT_EQ(sched.stats().admissionWaitP50Ms, 0.0);

  // Stage a backlog behind a gate: each queued job's wait spans at least the
  // gate's hold time, so the percentiles must come out strictly positive.
  Gate gate;
  ASSERT_NE(sched.submit(gate.job()), 0u);
  gate.waitRunning();
  OrderLog log;
  constexpr int kJobs = 16;
  for (int i = 0; i < kJobs; ++i) ASSERT_NE(sched.submit(log.job(i)), 0u);
  std::this_thread::sleep_for(std::chrono::milliseconds(15));
  gate.release();
  sched.drain();

  const QosScheduler::Stats stats = sched.stats();
  EXPECT_EQ(stats.admissionWaitSamples, static_cast<std::uint64_t>(kJobs) + 1);
  EXPECT_GT(stats.admissionWaitP50Ms, 0.0);
  EXPECT_GE(stats.admissionWaitP99Ms, stats.admissionWaitP50Ms);
  // Every backlogged job waited through the 15 ms gate hold; even the p50
  // over all samples (gate included) clears a loose floor.
  EXPECT_GE(stats.admissionWaitP99Ms, 10.0);
}

}  // namespace
