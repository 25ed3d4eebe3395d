#pragma once

// The router's tag store (paper §III-A/B): a hash table keyed by hostname —
// the one mandatory tag on every metric — holding the tags to piggy-back
// onto all measurements and events from that host while a job runs there.

#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "lms/core/sync.hpp"
#include "lms/lineproto/point.hpp"

namespace lms::core {

class TagStore {
 public:
  /// Attach `tags` to every future metric from `hostname`. They are stored
  /// sorted by key; of repeated keys the first one given is kept.
  void set_tags(std::string_view hostname, std::vector<lineproto::Tag> tags);

  /// Remove all tags for a host (job deallocation).
  void clear_tags(std::string_view hostname);

  /// Tags currently registered for a host, sorted by key (empty if none).
  std::vector<lineproto::Tag> tags_for(std::string_view hostname) const;

  /// Enrich a point in place: append stored tags for the point's hostname
  /// without overwriting tags the producer already set. Returns the number
  /// of tags added.
  std::size_t enrich(lineproto::Point& point) const;

  /// Enrich a whole batch under one lock acquisition; returns the tags
  /// added across all points. Same result as enrich(Point&) on each point.
  std::size_t enrich(std::vector<lineproto::Point>& points) const;

  std::size_t host_count() const;

 private:
  /// Leaf within the router layer: every method copies in/out under mu_ and
  /// never calls back into the stack while holding it.
  mutable core::sync::Mutex mu_{core::sync::Rank::kRouterTags, "core.tagstore"};
  std::map<std::string, std::vector<lineproto::Tag>, std::less<>> tags_ LMS_GUARDED_BY(mu_);
};

}  // namespace lms::core
