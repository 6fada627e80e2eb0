#include "sim/two_tier_queue.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <stdexcept>
#include <string>

namespace dpjit::sim {

namespace {
/// Buckets past this are all one bucket (also where +inf lands); keeps the
/// double -> integer conversion defined and cur_ + ring span from wrapping.
constexpr std::uint64_t kMaxBucket = std::uint64_t{1} << 62;
}  // namespace

TwoTierQueue::TwoTierQueue(double bucket_width, std::size_t buckets)
    : ring_(buckets), inv_width_(1.0 / bucket_width), mask_(buckets - 1) {
  if (!(bucket_width > 0.0) || !std::isfinite(bucket_width) || !std::isfinite(inv_width_)) {
    throw std::invalid_argument("TwoTierQueue: bucket width must be positive and finite (got " +
                                std::to_string(bucket_width) + ")");
  }
  if (buckets < 2 || !std::has_single_bit(buckets)) {
    throw std::invalid_argument("TwoTierQueue: bucket count must be a power of two >= 2 (got " +
                                std::to_string(buckets) + ")");
  }
}

std::uint64_t TwoTierQueue::bucket_of(SimTime t) const {
  const double b = t * inv_width_;
  if (!(b < static_cast<double>(kMaxBucket))) return kMaxBucket;
  return b > 0.0 ? static_cast<std::uint64_t>(b) : 0;
}

void TwoTierQueue::push(SimTime t, EventFn fn) {
  assert(!std::isnan(t));
  if (next_seq_ > kMaxSeq) throw std::length_error("TwoTierQueue: sequence numbers exhausted");
  std::uint32_t slot = 0;
  if (!free_.empty()) {
    slot = free_.back();
    free_.pop_back();
    fns_[slot] = std::move(fn);
  } else {
    if (fns_.size() > kSlotMask) {
      throw std::length_error("TwoTierQueue: more than 2^24 concurrently pending events");
    }
    slot = static_cast<std::uint32_t>(fns_.size());
    fns_.push_back(std::move(fn));
  }
  const std::uint64_t b = bucket_of(t);
  if (size_ == 0) cur_ = b;  // nothing pending: restart the ring at t
  route(Key{encode_time(t), (next_seq_++ << kSlotBits) | slot}, b);
  ++size_;
}

void TwoTierQueue::route(const Key& k, std::uint64_t b) {
  if (b <= cur_) {
    heap_.push_back(k);
    std::push_heap(heap_.begin(), heap_.end(), after);
  } else if (b - cur_ <= mask_) {
    ring_[b & mask_].push_back(k);
    ++ring_size_;
  } else {
    overflow_.push_back(k);
    std::push_heap(overflow_.begin(), overflow_.end(), after);
  }
}

std::pair<SimTime, EventFn> TwoTierQueue::pop() {
  assert(!heap_.empty());
  const Key top = heap_.front();
  std::pop_heap(heap_.begin(), heap_.end(), after);
  heap_.pop_back();
  const auto slot = static_cast<std::uint32_t>(top.order & kSlotMask);
  EventFn fn = std::move(fns_[slot]);
  free_.push_back(slot);
  --size_;
  if (heap_.empty() && size_ > 0) refill();
  // The slab is far larger than the cache: start loading the next callback
  // now, so the load overlaps with running this one.
  if (!heap_.empty()) __builtin_prefetch(&fns_[heap_.front().order & kSlotMask]);
  return {decode_time(top.tkey), std::move(fn)};
}

void TwoTierQueue::refill() {
  assert(heap_.empty() && size_ > 0);
  while (heap_.empty()) {
    // An empty ring means everything left is overflow: jump the ring to the
    // earliest overflow bucket instead of stepping through empty buckets.
    // (Overflow buckets are >= cur_ + ring span, so this never moves back.)
    if (ring_size_ == 0) cur_ = bucket_of(decode_time(overflow_.front().tkey)) - 1;
    ++cur_;
    // The ring now reaches bucket cur_ + mask_: pull in the overflow that
    // fits. Its slot held bucket cur_ - 1, which is already drained.
    while (!overflow_.empty() &&
           bucket_of(decode_time(overflow_.front().tkey)) - cur_ <= mask_) {
      const Key k = overflow_.front();
      std::pop_heap(overflow_.begin(), overflow_.end(), after);
      overflow_.pop_back();
      route(k, bucket_of(decode_time(k.tkey)));
    }
    std::vector<Key>& bucket = ring_[cur_ & mask_];
    if (bucket.empty()) continue;
    ring_size_ -= bucket.size();
    if (heap_.empty()) {
      heap_.swap(bucket);
    } else {
      heap_.insert(heap_.end(), bucket.begin(), bucket.end());
    }
    std::make_heap(heap_.begin(), heap_.end(), after);
    // Free the slot's storage rather than keep it: the slot is next used a
    // ring span later, by a bucket of unrelated size.
    std::vector<Key>().swap(bucket);
  }
}

}  // namespace dpjit::sim
