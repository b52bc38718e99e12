#include "service/plan_cache.hpp"

#include <cstdio>

#include "graph/attr_map.hpp"

namespace netembed::service {

namespace {

void appendValue(std::string& out, const graph::AttrValue& value) {
  switch (value.type()) {
    case graph::AttrType::Undefined: out += 'u'; break;
    case graph::AttrType::Bool: out += value.asBool() ? 'T' : 'F'; break;
    case graph::AttrType::Int:
      out += 'i';
      out += std::to_string(value.asInt());
      break;
    case graph::AttrType::Double: {
      // Hexfloat round-trips exactly; decimal rendering could alias two
      // different attribute values into one signature.
      char buf[40];
      std::snprintf(buf, sizeof buf, "%a", value.asDouble());
      out += 'd';
      out += buf;
      break;
    }
    case graph::AttrType::String: {
      const std::string& s = value.asString();
      out += 's';
      out += std::to_string(s.size());
      out += ':';
      out += s;
      break;
    }
  }
  out += ';';
}

void appendString(std::string& out, const std::string& s) {
  out += std::to_string(s.size());
  out += ':';
  out += s;
}

void appendAttrs(std::string& out, const graph::AttrMap& attrs) {
  // AttrMap iterates sorted by interned id; ids are stable process-wide, so
  // equal maps serialize equally within one process (the cache's lifetime).
  for (const auto& [id, value] : attrs) {
    appendString(out, graph::attrName(id));
    out += '=';
    appendValue(out, value);
  }
  out += '|';
}

}  // namespace

std::string planSignature(const graph::Graph& query,
                          const std::string& edgeConstraint,
                          const std::string& nodeConstraint,
                          const core::SearchOptions& options) {
  std::string sig;
  sig.reserve(64 + query.nodeCount() * 24 + query.edgeCount() * 24);
  sig += query.directed() ? 'D' : 'U';
  sig += std::to_string(query.nodeCount());
  sig += '/';
  sig += std::to_string(query.edgeCount());
  sig += '#';
  for (graph::NodeId n = 0; n < query.nodeCount(); ++n) {
    appendString(sig, query.nodeName(n));
    appendAttrs(sig, query.nodeAttrs(n));
  }
  for (graph::EdgeId e = 0; e < query.edgeCount(); ++e) {
    sig += std::to_string(query.edgeSource(e));
    sig += '>';
    sig += std::to_string(query.edgeTarget(e));
    sig += ':';
    appendAttrs(sig, query.edgeAttrs(e));
  }
  appendAttrs(sig, query.attrs());
  appendString(sig, edgeConstraint);
  appendString(sig, nodeConstraint);
  // Plan-relevant options only: Ordering::Declared skips the Lemma-1 sort
  // of the plan's node order (every other ordering shares the sorted plan
  // and resolves at search time), maxFilterEntries decides whether the
  // build overflows, bitsetMode decides which cells carry bit rows
  // (identical candidate sets, but a requester must get the representation
  // it asked for). Seeds, budgets and thread counts do not touch plan
  // content and must not split the cache.
  sig += options.ordering == core::Ordering::Declared ? 's' : 'S';
  sig += std::to_string(options.maxFilterEntries);
  sig += 'b';
  sig += std::to_string(static_cast<unsigned>(options.bitsetMode));
  return sig;
}

std::shared_ptr<core::SharedPlanBuilder> FilterPlanCache::acquire(
    std::uint64_t modelVersion, std::string signature) {
  std::lock_guard lock(mutex_);
  if (capacity_ == 0) {
    ++stats_.bypasses;
    return std::make_shared<core::SharedPlanBuilder>();
  }
  if (modelVersion > version_) {
    // Version bump: every cached plan describes the old host attributes.
    stats_.invalidations += entries_.size();
    entries_.clear();
    lru_.clear();
    version_ = modelVersion;
  } else if (modelVersion < version_) {
    // A reader that sampled the version just before a bump: give it a
    // private builder for its snapshot; never cache or serve stale plans.
    ++stats_.bypasses;
    return std::make_shared<core::SharedPlanBuilder>();
  }
  const auto it = entries_.find(signature);
  if (it != entries_.end()) {
    ++stats_.hits;
    lru_.splice(lru_.begin(), lru_, it->second.lruPos);
    return it->second.builder;
  }
  ++stats_.misses;
  if (entries_.size() >= capacity_) {
    entries_.erase(lru_.back());
    lru_.pop_back();
    ++stats_.evictions;
  }
  lru_.push_front(std::move(signature));
  auto builder = std::make_shared<core::SharedPlanBuilder>();
  entries_.emplace(lru_.front(), Entry{builder, lru_.begin()});
  return builder;
}

void FilterPlanCache::applyDelta(std::uint64_t newVersion,
                                 const core::ModelDelta& delta) {
  std::lock_guard lock(mutex_);
  if (capacity_ == 0) return;
  if (newVersion <= version_) return;  // duplicate / out-of-order announcement
  version_ = newVersion;
  if (delta.structural) {
    stats_.invalidations += entries_.size();
    entries_.clear();
    lru_.clear();
    return;
  }
  for (auto it = entries_.begin(); it != entries_.end();) {
    Entry& entry = it->second;
    if (auto plan = entry.builder->ready()) {
      // Completed plan: re-wrap as a lazy patch source. The old builder (and
      // the old plan, through any in-flight search) lives on unharmed.
      entry.builder = std::make_shared<core::SharedPlanBuilder>(
          core::SharedPlanBuilder::PatchSource{std::move(plan), delta});
      ++stats_.rekeys;
      ++it;
    } else if (entry.builder.use_count() == 1 && entry.builder->mergeDelta(delta)) {
      // A patch source from an earlier bump that nobody has asked for yet:
      // exclusively ours, so the deltas accumulate into one future patch.
      ++stats_.rekeys;
      ++it;
    } else {
      // No completed plan and the builder may be in an in-flight get()
      // against the old version — mutating it would hand that caller a plan
      // for the wrong version. Dropping is the only safe carry.
      lru_.erase(entry.lruPos);
      ++stats_.invalidations;
      it = entries_.erase(it);
    }
  }
}

FilterPlanCache::Stats FilterPlanCache::stats() const {
  std::lock_guard lock(mutex_);
  Stats out = stats_;
  out.size = entries_.size();
  return out;
}

void FilterPlanCache::clear() {
  std::lock_guard lock(mutex_);
  stats_.invalidations += entries_.size();
  entries_.clear();
  lru_.clear();
}

}  // namespace netembed::service
