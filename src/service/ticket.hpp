#pragma once
// The request-lifecycle handle.
//
// Both NETEMBED front ends hand back a SubmitTicket for lifecycle-aware
// submissions: it reports where the request is (queued / running / a
// terminal RequestStatus), cancels it — pulling a queued request out of the
// admission queue, or stopping a running one cooperatively mid-search and
// mid-filter-build through the std::stop_token chained into its
// SearchContext — and exposes the terminal EmbedResponse as a future.
// Solutions stream incrementally through TicketCallbacks::onSolution, fed
// straight from SearchContext admission instead of only appearing in the
// terminal response.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <exception>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <stop_token>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "service/service.hpp"

namespace netembed::service {

struct TicketCallbacks {
  /// Invoked for every feasible mapping the moment SearchContext admits it
  /// (before the search finishes). The core SolutionSink contract applies:
  /// with root-split or portfolio parallelism it may fire concurrently;
  /// return false to stop the search (terminal result is then Partial).
  /// Delivered inline from the search thread, so a slow consumer slows its
  /// own search. Throwing is off-contract but accounted
  /// (SubmitTicket::sinkErrors): the throw propagates into the search and
  /// fails — or, under QoS::retry, retries — the attempt.
  core::SolutionSink onSolution;
  /// Fired exactly once at terminal resolution, after the future is
  /// satisfied, on whichever thread resolved the request. Exactly one of
  /// (response, error) is meaningful — error is null unless the search
  /// threw (the response is then a placeholder with status Failed). Must
  /// not throw.
  std::function<void(const EmbedResponse&, std::exception_ptr)> onComplete;
};

namespace detail {

/// Shared lifecycle state behind one SubmitTicket. The submitting service,
/// the executing worker and the ticket holder all reference it; whichever
/// side resolves first wins (single-resolution is guarded).
struct TicketState {
  explicit TicketState(TicketCallbacks cb)
      : callbacks(std::move(cb)), future(promise.get_future()) {}

  TicketCallbacks callbacks;
  std::promise<EmbedResponse> promise;
  std::future<EmbedResponse> future;
  /// Cancellation chain: ticket cancel / shutdown request stop here; the
  /// token is handed to the SearchContext as its external stop.
  std::stop_source stop;
  std::atomic<RequestStatus> status{RequestStatus::Queued};
  std::atomic<std::uint64_t> streamed{0};
  /// Attempts started (incremented at each dispatch; see QoS::retry).
  std::atomic<std::uint32_t> attempts{0};
  /// Times the user's onSolution sink threw (see SubmitTicket::sinkErrors).
  std::atomic<std::uint64_t> sinkErrors{0};
  /// Whether this ticket currently holds a slot of the async service's
  /// per-class retry budget (charged once at the first retry, released at
  /// terminal resolution).
  std::atomic<bool> retryCharged{false};

  std::mutex mutex;            // guards resolved + tryDequeue + retry carry
  bool resolved = false;       // the promise has been satisfied
  std::function<bool()> tryDequeue;  // async service: pull out of the queue
  /// what() of the error behind a Failed resolution (errorMessage()).
  std::string errorText;
  /// The exception of the most recent failed attempt; a retry that is later
  /// abandoned (budget, shutdown, queue refusal) resolves with this instead
  /// of a generic "retry abandoned" error.
  std::exception_ptr lastError;
  /// Retry carry — the previous attempts' partial result. Engines replay
  /// deterministically, so admission i of a retry is the mapping already
  /// admitted as i in an earlier attempt: carriedAdmissions gives retries a
  /// solution-count floor (enough carried admissions synthesize a Done
  /// without re-searching) and the dedup line for exactly-once onSolution
  /// delivery; carriedMappings stores the first maxSolutions of them.
  std::vector<core::Mapping> carriedMappings;
  std::uint64_t carriedAdmissions = 0;
  core::SearchStats carriedStats{};
  /// Previous backoff actually slept, the anchor of decorrelated jitter.
  std::chrono::milliseconds lastBackoff{0};
};

/// One *attempt* at running a preemptable request. The attempt's stop source
/// is distinct from the ticket's: the service fires it to reclaim the worker
/// for higher-priority queued work, without marking the ticket cancelled
/// (the ticket stop is chained in, so a real cancel still stops the attempt).
struct PreemptSlot {
  std::stop_source attempt;
  std::atomic<bool> preempted{false};
  int priority = 0;
  std::chrono::steady_clock::time_point started{};
  /// Hand a preempted ticket back unresolved for re-admission instead of
  /// resolving it Preempted.
  bool requeueOnPreempt = false;
};

/// How runTicketedAttempt left the ticket.
enum class RunOutcome : std::uint8_t {
  /// The promise is satisfied (Done / Cancelled / Preempted / Failed / ...).
  Resolved,
  /// The attempt was preempted and the caller asked for re-queue semantics:
  /// the ticket is back in Queued state, unresolved — the caller must
  /// re-enqueue it (and resolve it Preempted itself if the re-queue is
  /// refused).
  RequeuePreempted,
  /// The attempt failed transiently, the retry policy has attempts left and
  /// the ticket is unresolved in Retrying state — the caller must wait out
  /// the backoff and dispatch another attempt (or abandon via resolveError
  /// with the stored lastError).
  RetryTransient,
};

/// Resolve with a response (status read from response.status). No-ops if
/// already resolved.
void resolveResponse(TicketState& state, EmbedResponse response);
/// Resolve with the search's exception (status Failed). The onComplete
/// placeholder response is attributable: it carries `version` (the model
/// version the attempts ran against), the attempt count, and the partial
/// SearchStats / admission count accumulated across failed attempts.
void resolveError(TicketState& state, std::exception_ptr error,
                  std::uint64_t version = 0);

/// what() of `error` (or a fallback for non-std exceptions).
[[nodiscard]] std::string describeError(std::exception_ptr error);
/// Failure classification for retries: true for errors no retry can fix
/// (invalid constraint source, malformed problem). Everything else —
/// injected faults, allocation failures, engine exceptions, plan overflow —
/// is transient.
[[nodiscard]] bool isPermanentError(std::exception_ptr error) noexcept;
/// Next backoff under `policy` with decorrelated jitter, deterministic from
/// (seed, attempt number); records itself as state.lastBackoff.
[[nodiscard]] std::chrono::milliseconds nextRetryBackoff(
    const RetryPolicy& policy, std::uint64_t seed, TicketState& state);
/// Resolve a request that never ran (Cancelled / Rejected / Expired).
void resolveDropped(TicketState& state, RequestStatus status,
                    std::string diagnostics);
/// SubmitTicket::cancel implementation (shared by both services).
bool cancelTicket(TicketState& state);

/// Run one attempt of a ticketed request: honor a pre-dispatch cancel, mark
/// Running, wire the streaming sink and the ticket's stop token into
/// executeEmbed, and resolve the promise with the outcome — unless the
/// caller has to act first (see RunOutcome). With a non-null `slot`, the
/// engine runs under the attempt's stop token (ticket stop chained in); a
/// fired preemption resolves the response Preempted with its partial result
/// — unless the search had already completed naturally (Done), the ticket
/// was genuinely cancelled (Cancelled), or slot->requeueOnPreempt asked to
/// hand the unresolved ticket back for re-admission instead.
///
/// QoS::retry with maxAttempts > 1 turns on retry semantics: a transient
/// failure with attempts remaining returns RunOutcome::RetryTransient instead
/// of resolving Failed, retries skip re-delivering solutions already streamed
/// by earlier attempts (exactly-once onSolution), and a retry whose carried
/// admissions already cover maxSolutions resolves Done from the carry without
/// re-searching.
[[nodiscard]] RunOutcome runTicketedAttempt(
    const std::shared_ptr<TicketState>& state, const EmbedRequest& request,
    const graph::Graph& host, std::uint64_t version,
    bool allowPortfolioEscalation, FilterPlanCache* cache, PreemptSlot* slot);

}  // namespace detail

/// Move-only handle for one submitted request. Default-constructed tickets
/// are invalid (valid() == false); every accessor on an invalid ticket
/// returns the inert value noted below.
class SubmitTicket {
 public:
  SubmitTicket() = default;
  SubmitTicket(SubmitTicket&&) = default;
  SubmitTicket& operator=(SubmitTicket&&) = default;

  [[nodiscard]] bool valid() const noexcept { return state_ != nullptr; }

  /// Current lifecycle state (Failed for an invalid ticket).
  [[nodiscard]] RequestStatus status() const noexcept;

  /// Cancel the request: a still-queued one resolves immediately with
  /// RequestStatus::Cancelled; a running one stops cooperatively (mid-search
  /// and mid-filter-build) and resolves Cancelled with whatever partial
  /// result it reached. Returns true when the cancel took hold of a live
  /// request — the terminal status is then Cancelled, with one carve-out: a
  /// search that *throws* (bad constraint source, bad_alloc) still resolves
  /// Failed with the exception in the future, even against a racing cancel,
  /// because the error is the more informative outcome. False when the
  /// request had already resolved (or the ticket is invalid). Idempotent.
  bool cancel();

  /// The one-shot future carrying the terminal EmbedResponse (or the
  /// exception the search raised). Throws std::future_error: if consumed
  /// twice (broken_promise semantics of std::future), or no_state when the
  /// ticket is invalid.
  [[nodiscard]] std::future<EmbedResponse>& future() { return futureRef(); }

  /// Move the future out (the fire-and-forget wrappers use this; afterwards
  /// future()/get() on the ticket are spent).
  [[nodiscard]] std::future<EmbedResponse> takeFuture() {
    return std::move(futureRef());
  }

  /// Block for the terminal response (rethrows the search's exception).
  EmbedResponse get() { return futureRef().get(); }

  /// Solutions streamed through onSolution so far (0 for invalid tickets).
  [[nodiscard]] std::uint64_t solutionsStreamed() const noexcept;

  /// Attempts dispatched so far (0 before the first dispatch; > 1 once
  /// transient failures were retried under QoS::retry — status() reads
  /// Retrying while a backoff is pending).
  [[nodiscard]] std::uint32_t attempts() const noexcept;

  /// Times the onSolution sink threw (0 for invalid tickets). A sink throw
  /// propagates into the search and fails (or retries) the attempt.
  [[nodiscard]] std::uint64_t sinkErrors() const noexcept;

  /// what() of the error behind a Failed resolution, captured at resolve
  /// time — the failure cause without future().get()'s rethrow. Empty while
  /// unresolved, for non-Failed terminals and for invalid tickets. Not
  /// noexcept (takes the state mutex).
  [[nodiscard]] std::string errorMessage() const;

 private:
  friend class NetEmbedService;
  friend class AsyncNetEmbedService;
  explicit SubmitTicket(std::shared_ptr<detail::TicketState> state)
      : state_(std::move(state)) {}

  std::future<EmbedResponse>& futureRef();

  std::shared_ptr<detail::TicketState> state_;
  /// Sync-service tickets own the thread running their request; destroying
  /// (or overwriting) the ticket requests stop and joins it — the
  /// stop_callback inside the thread chains that into state_->stop.
  std::jthread runner_;
};

}  // namespace netembed::service
