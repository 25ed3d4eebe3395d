#include "lms/core/tagstore.hpp"

#include <algorithm>

namespace lms::core {

namespace {

bool key_less(const lineproto::Tag& a, const lineproto::Tag& b) { return a.first < b.first; }

/// Merge the store's `add` (sorted, unique keys) into a point's `tags`,
/// keeping the key order and every tag the producer already set. Missing
/// tags are counted first, so the vector grows once; the merge then runs
/// back to front in place.
std::size_t merge_tags(std::vector<lineproto::Tag>& tags, const std::vector<lineproto::Tag>& add) {
  if (!std::is_sorted(tags.begin(), tags.end(), key_less)) {
    std::sort(tags.begin(), tags.end(), key_less);
  }
  std::size_t missing = 0;
  std::size_t i = 0;
  for (const auto& [key, _] : add) {
    while (i < tags.size() && tags[i].first < key) ++i;
    if (i == tags.size() || tags[i].first != key) ++missing;
  }
  if (missing == 0) return 0;

  i = tags.size();
  std::size_t j = add.size();
  tags.resize(tags.size() + missing);
  std::size_t w = tags.size();
  while (j > 0) {
    const lineproto::Tag& a = add[j - 1];
    if (i > 0 && tags[i - 1].first > a.first) {
      tags[--w] = std::move(tags[--i]);
    } else if (i > 0 && tags[i - 1].first == a.first) {
      --j;  // the producer's tag wins
    } else {
      tags[--w] = a;
      --j;
    }
  }
  return missing;
}

}  // namespace

void TagStore::set_tags(std::string_view hostname, std::vector<lineproto::Tag> tags) {
  std::stable_sort(tags.begin(), tags.end(), key_less);
  tags.erase(std::unique(tags.begin(), tags.end(),
                         [](const auto& a, const auto& b) { return a.first == b.first; }),
             tags.end());
  const core::sync::LockGuard lock(mu_);
  tags_[std::string(hostname)] = std::move(tags);
}

void TagStore::clear_tags(std::string_view hostname) {
  const core::sync::LockGuard lock(mu_);
  const auto it = tags_.find(hostname);
  if (it != tags_.end()) tags_.erase(it);
}

std::vector<lineproto::Tag> TagStore::tags_for(std::string_view hostname) const {
  const core::sync::LockGuard lock(mu_);
  const auto it = tags_.find(hostname);
  return it != tags_.end() ? it->second : std::vector<lineproto::Tag>{};
}

std::size_t TagStore::enrich(lineproto::Point& point) const {
  const std::string_view host = point.hostname();
  if (host.empty()) return 0;
  const core::sync::LockGuard lock(mu_);
  const auto it = tags_.find(host);
  if (it == tags_.end()) return 0;
  return merge_tags(point.tags, it->second);
}

std::size_t TagStore::enrich(std::vector<lineproto::Point>& points) const {
  std::size_t added = 0;
  // Producers batch by host, so consecutive points mostly share a lookup.
  std::string last_host;
  const std::vector<lineproto::Tag>* last_tags = nullptr;
  const core::sync::LockGuard lock(mu_);
  if (tags_.empty()) return 0;
  for (auto& p : points) {
    const std::string_view host = p.hostname();
    if (host.empty()) continue;
    if (last_tags == nullptr || host != last_host) {
      const auto it = tags_.find(host);
      if (it == tags_.end()) {
        last_tags = nullptr;
        continue;
      }
      last_host = host;
      last_tags = &it->second;
    }
    added += merge_tags(p.tags, *last_tags);
  }
  return added;
}

std::size_t TagStore::host_count() const {
  const core::sync::LockGuard lock(mu_);
  return tags_.size();
}

}  // namespace lms::core
