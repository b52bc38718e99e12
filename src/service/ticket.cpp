#include "service/ticket.hpp"

#include <algorithm>
#include <condition_variable>
#include <optional>

#include "expr/lexer.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"

namespace netembed::service {

namespace detail {

namespace {

/// Claim the single resolution. nullopt when someone else already resolved;
/// otherwise whether a ticket cancel had been requested at the moment the
/// outcome was sealed. Deciding Cancelled-vs-Done under the same mutex
/// cancelTicket reads `resolved` through makes the two agree: a cancel()
/// that returned true is always visible to the claim, so its request can
/// never resolve plain Done.
std::optional<bool> claimResolution(TicketState& state) {
  std::lock_guard lock(state.mutex);
  if (state.resolved) return std::nullopt;
  state.resolved = true;
  // The queue-removal hook references the submitting service's scheduler; a
  // resolved ticket must never call it again (it may outlive the service).
  state.tryDequeue = nullptr;
  return state.stop.stop_requested();
}

void fireOnComplete(TicketState& state, const EmbedResponse& response,
                    std::exception_ptr error) {
  if (!state.callbacks.onComplete) return;
  try {
    state.callbacks.onComplete(response, error);
  } catch (...) {
    // The callback contract says it must not throw; swallowing protects the
    // resolving thread (a queue worker or the canceller).
  }
}

}  // namespace

void resolveResponse(TicketState& state, EmbedResponse response) {
  const std::optional<bool> cancelled = claimResolution(state);
  if (!cancelled) return;
  if (*cancelled && response.status != RequestStatus::Cancelled) {
    response.status = RequestStatus::Cancelled;
    response.diagnostics += " [ticket cancelled]";
  }
  state.status.store(response.status, std::memory_order_release);
  if (state.callbacks.onComplete) {
    state.promise.set_value(response);  // copy: the callback still needs it
    fireOnComplete(state, response, nullptr);
  } else {
    state.promise.set_value(std::move(response));
  }
}

std::string describeError(std::exception_ptr error) {
  if (!error) return {};
  try {
    std::rethrow_exception(error);
  } catch (const std::exception& e) {
    return e.what();
  } catch (...) {
    return "unknown non-standard exception";
  }
}

bool isPermanentError(std::exception_ptr error) noexcept {
  if (!error) return false;
  try {
    std::rethrow_exception(error);
  } catch (const expr::SyntaxError&) {
    return true;  // bad constraint source: every retry re-parses the same text
  } catch (const std::invalid_argument&) {
    return true;  // malformed problem/options: deterministic validation
  } catch (...) {
    return false;  // injected fault, allocation, engine exception, overflow...
  }
}

std::chrono::milliseconds nextRetryBackoff(const RetryPolicy& policy,
                                           std::uint64_t seed,
                                           TicketState& state) {
  using std::chrono::milliseconds;
  const auto base = std::max<milliseconds>(policy.baseBackoff, milliseconds(1));
  const auto cap = std::max<milliseconds>(policy.maxBackoff, base);
  std::lock_guard lock(state.mutex);
  const auto prev = std::max<milliseconds>(state.lastBackoff, base);
  // Decorrelated jitter: next = min(cap, base + uniform[0, prev*3 - base]).
  // Deterministic per (seed, attempt) so chaos schedules replay exactly.
  const std::uint32_t attempt = state.attempts.load(std::memory_order_relaxed);
  util::Rng rng(seed ^ (0x9e3779b97f4a7c15ULL * (attempt + 1)));
  const auto spanMs = static_cast<std::uint64_t>((prev * 3 - base).count()) + 1;
  auto next = base + milliseconds(rng.uniformInt(0, spanMs - 1));
  next = std::min(next, cap);
  state.lastBackoff = next;
  return next;
}

void resolveError(TicketState& state, std::exception_ptr error,
                  std::uint64_t version) {
  if (!claimResolution(state)) return;
  state.status.store(RequestStatus::Failed, std::memory_order_release);
  state.promise.set_exception(error);
  // The placeholder is attributable, not empty: model version, attempts
  // consumed, and the partial work the failed attempts measured — an
  // onComplete observer can bill the failure without touching the future.
  EmbedResponse placeholder;
  placeholder.status = RequestStatus::Failed;
  placeholder.modelVersion = version;
  placeholder.attempts =
      std::max<std::uint32_t>(state.attempts.load(std::memory_order_relaxed), 1);
  {
    std::lock_guard lock(state.mutex);
    state.errorText = describeError(error);
    state.lastError = error;
    placeholder.result.stats = state.carriedStats;
    placeholder.result.outcome = core::Outcome::Inconclusive;
    placeholder.result.solutionCount =
        state.streamed.load(std::memory_order_relaxed);
    placeholder.diagnostics = "failed: " + state.errorText;
  }
  fireOnComplete(state, placeholder, error);
}

void resolveDropped(TicketState& state, RequestStatus status,
                    std::string diagnostics) {
  EmbedResponse response;
  response.status = status;
  response.diagnostics = std::move(diagnostics);
  resolveResponse(state, std::move(response));
}

bool cancelTicket(TicketState& state) {
  // Stop first: if the request is mid-search (or mid-filter-build) the
  // SearchContext's external token picks this up at the next cooperative
  // poll, and if it is dequeued concurrently with the cancel,
  // runTicketedAttempt's pre-dispatch check resolves it Cancelled without
  // running the engine.
  state.stop.request_stop();
  std::function<bool()> tryDequeue;
  {
    std::lock_guard lock(state.mutex);
    // Sealed already (under this same mutex): the outcome cannot reflect
    // this cancel, so report that it missed.
    if (state.resolved) return false;
    tryDequeue = state.tryDequeue;
  }
  // Still live at the seal point above, and our request_stop precedes any
  // later claim: the eventual resolution is guaranteed to record Cancelled.
  // Pulling a still-queued request out of the admission queue just resolves
  // it now instead of at dispatch.
  if (tryDequeue) (void)tryDequeue();
  return true;
}

RunOutcome runTicketedAttempt(const std::shared_ptr<TicketState>& state,
                              const EmbedRequest& request,
                              const graph::Graph& host, std::uint64_t version,
                              bool allowPortfolioEscalation,
                              FilterPlanCache* cache, PreemptSlot* slot) {
  if (state->stop.stop_requested()) {
    // Cancelled between admission and dispatch (the fix for the leaked
    // never-satisfied promise): resolve instead of running.
    resolveDropped(*state, RequestStatus::Cancelled,
                   "cancelled before dispatch");
    return RunOutcome::Resolved;
  }
  const bool retryEnabled = request.qos.retry.maxAttempts > 1;
  const std::uint32_t attempt =
      state->attempts.fetch_add(1, std::memory_order_relaxed) + 1;
  const std::size_t maxSolutions = request.options.maxSolutions;
  // Admissions earlier attempts already streamed to the user: the dedup line
  // for exactly-once delivery on a retry.
  std::uint64_t carried = 0;
  if (retryEnabled && attempt > 1) {
    std::lock_guard lock(state->mutex);
    carried = state->carriedAdmissions;
  }
  if (retryEnabled && attempt > 1 && maxSolutions != 0 &&
      carried >= maxSolutions) {
    // Solution-count floor: the failed attempt had already admitted (and
    // streamed) every requested solution before it died — resolve from the
    // carry instead of burning a whole re-search.
    EmbedResponse response;
    response.modelVersion = version;
    response.attempts = attempt;
    response.status = RequestStatus::Done;
    response.result.outcome = core::Outcome::Partial;
    response.result.solutionCount = carried;
    {
      std::lock_guard lock(state->mutex);
      response.result.stats = state->carriedStats;
      response.result.mappings = state->carriedMappings;
    }
    if (response.result.mappings.size() > request.options.storeLimit) {
      response.result.mappings.resize(request.options.storeLimit);
    }
    response.diagnostics =
        "retry: resolved from the previous attempt's carried solutions";
    resolveResponse(*state, std::move(response));
    return RunOutcome::Resolved;
  }
  state->status.store(RequestStatus::Running, std::memory_order_release);

  // The engine runs under the attempt's stop token when one exists: the
  // service can then stop *this run* (preemption) without poisoning the
  // ticket, while a genuine ticket cancel still propagates through the
  // chained callback.
  std::optional<std::stop_callback<std::function<void()>>> chain;
  std::stop_token token = state->stop.get_token();
  if (slot) {
    chain.emplace(state->stop.get_token(),
                  std::function<void()>(
                      [slot] { slot->attempt.request_stop(); }));
    token = slot->attempt.get_token();
  }

  // The streaming hook: every admitted solution flows out inline from the
  // search thread while the search runs. The wrapper counts even without a
  // user callback so solutionsStreamed() always reports admissions.
  const core::SolutionSink deliver = [state](const core::Mapping& mapping) {
    state->streamed.fetch_add(1, std::memory_order_relaxed);
    const core::SolutionSink& user = state->callbacks.onSolution;
    if (!user) return true;
    try {
      return user(mapping);
    } catch (...) {
      // Sink throw: counted, then propagated into the search — the attempt
      // fails (and may retry; the admission stays carried, so the mapping
      // is not re-delivered).
      state->sinkErrors.fetch_add(1, std::memory_order_relaxed);
      throw;
    }
  };
  core::SolutionSink sink = deliver;
  if (retryEnabled) {
    // Retry bookkeeping wrapper: record every admission into the carry, and
    // forward only admissions past what earlier attempts already delivered —
    // the engines replay deterministically, so admission i of a retry is the
    // same mapping an earlier attempt already streamed as i.
    const std::size_t keep =
        maxSolutions == 0
            ? std::size_t{0}
            : std::min(maxSolutions, request.options.storeLimit);
    auto seen = std::make_shared<std::atomic<std::uint64_t>>(0);
    sink = [state, deliver, carried, keep, seen](const core::Mapping& mapping) {
      const std::uint64_t idx = seen->fetch_add(1, std::memory_order_relaxed);
      {
        std::lock_guard lock(state->mutex);
        if (idx == state->carriedMappings.size() && idx < keep) {
          state->carriedMappings.push_back(mapping);
        }
        if (idx + 1 > state->carriedAdmissions) {
          state->carriedAdmissions = idx + 1;
        }
      }
      if (idx < carried) return true;  // delivered by an earlier attempt
      return deliver(mapping);
    };
  }

  util::Stopwatch attemptClock;
  try {
    EmbedResponse response = detail::executeEmbed(
        request, host, version, allowPortfolioEscalation, cache, sink, token);
    response.attempts = attempt;
    const bool preempted = slot &&
                           slot->preempted.load(std::memory_order_acquire) &&
                           !state->stop.stop_requested();
    if (preempted && response.result.outcome != core::Outcome::Complete) {
      if (slot->requeueOnPreempt) {
        // Hand the unresolved ticket back for re-admission: from the
        // holder's perspective it simply went back to waiting in the queue.
        state->status.store(RequestStatus::Queued, std::memory_order_release);
        return RunOutcome::RequeuePreempted;
      }
      response.status = RequestStatus::Preempted;
      response.diagnostics += " [preempted for higher-priority work]";
    }
    // Cancelled-vs-Done is decided inside resolveResponse, under the same
    // lock cancelTicket synchronizes on — no window where a cancel that
    // reported success resolves plain Done. (A preempt that raced a natural
    // completion — outcome Complete — resolves Done: the work is whole.)
    resolveResponse(*state, std::move(response));
  } catch (...) {
    const std::exception_ptr error = std::current_exception();
    bool alreadyResolved;
    {
      std::lock_guard lock(state->mutex);
      state->lastError = error;
      state->errorText = describeError(error);
      // Bill the doomed attempt's wall time into the carry so the eventual
      // terminal response reports the true accumulated cost.
      state->carriedStats.searchMs += attemptClock.elapsedMs();
      alreadyResolved = state->resolved;
    }
    // Transient-vs-permanent classification (see isPermanentError). A
    // genuine cancel is never retried — honoring it beats finishing — and a
    // concurrently resolved ticket (racing cancel) has nothing left to retry.
    if (retryEnabled && attempt < request.qos.retry.maxAttempts &&
        !state->stop.stop_requested() && !isPermanentError(error) &&
        !alreadyResolved) {
      state->status.store(RequestStatus::Retrying, std::memory_order_release);
      return RunOutcome::RetryTransient;
    }
    resolveError(*state, error, version);
  }
  return RunOutcome::Resolved;
}

}  // namespace detail

RequestStatus SubmitTicket::status() const noexcept {
  if (!state_) return RequestStatus::Failed;
  return state_->status.load(std::memory_order_acquire);
}

bool SubmitTicket::cancel() {
  if (!state_) return false;
  return detail::cancelTicket(*state_);
}

std::uint64_t SubmitTicket::solutionsStreamed() const noexcept {
  if (!state_) return 0;
  return state_->streamed.load(std::memory_order_relaxed);
}

std::uint32_t SubmitTicket::attempts() const noexcept {
  if (!state_) return 0;
  return state_->attempts.load(std::memory_order_relaxed);
}

std::uint64_t SubmitTicket::sinkErrors() const noexcept {
  if (!state_) return 0;
  return state_->sinkErrors.load(std::memory_order_relaxed);
}

std::string SubmitTicket::errorMessage() const {
  if (!state_) return {};
  std::lock_guard lock(state_->mutex);
  // Only a sealed Failed outcome reports: mid-flight attempt errors are
  // retry-internal until the resolution commits to one.
  if (!state_->resolved ||
      state_->status.load(std::memory_order_acquire) != RequestStatus::Failed) {
    return {};
  }
  return state_->errorText;
}

std::future<EmbedResponse>& SubmitTicket::futureRef() {
  if (!state_) {
    // Same error an operation on a default-constructed std::future raises.
    throw std::future_error(std::future_errc::no_state);
  }
  return state_->future;
}

SubmitTicket NetEmbedService::submitTicketed(EmbedRequest request,
                                             TicketCallbacks callbacks) const {
  auto state = std::make_shared<detail::TicketState>(std::move(callbacks));
  // Snapshot the host on the submitting thread: the runner searches the
  // copy, so the caller may keep mutating the live model (reservations,
  // measurements) while the ticket is outstanding — same isolation the
  // async service gets from its COW snapshots. The plan cache is internally
  // synchronized and version-keyed, so a concurrent bump simply bypasses it.
  auto host = std::make_shared<const graph::Graph>(model_.host());
  const std::uint64_t version = model_.version();
  SubmitTicket ticket(state);
  ticket.runner_ = std::jthread(
      [this, state, host = std::move(host), version,
       request = std::move(request)](std::stop_token st) {
        // Chain the jthread's own stop (ticket destruction / reassignment)
        // into the ticket's stop source so both cancel paths converge on the
        // SearchContext's external token.
        std::stop_callback chain(st, [&state] { state->stop.request_stop(); });
        // The runner doubles as the retry loop: a transient failure with
        // attempts left (QoS::retry) waits out its backoff on this thread —
        // woken early by any stop, the jthread's included through the chain
        // above — and dispatches the next attempt here.
        std::mutex backoffMutex;
        std::condition_variable_any backoffCv;
        for (;;) {
          const detail::RunOutcome outcome = detail::runTicketedAttempt(
              state, request, *host, version,
              /*allowPortfolioEscalation=*/true, &planCache_, /*slot=*/nullptr);
          if (outcome != detail::RunOutcome::RetryTransient) break;
          const auto backoff = detail::nextRetryBackoff(
              request.qos.retry, version ^ request.qos.tenant, *state);
          const auto wakeAt = std::chrono::steady_clock::now() + backoff;
          std::unique_lock lock(backoffMutex);
          (void)backoffCv.wait_until(lock, state->stop.get_token(), wakeAt,
                                     [] { return false; });
          // A cancel during the backoff resolves at the next attempt's
          // pre-dispatch check.
        }
      });
  return ticket;
}

}  // namespace netembed::service
