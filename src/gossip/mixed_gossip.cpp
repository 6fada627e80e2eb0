#include "gossip/mixed_gossip.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <utility>

#include "sim/time_key.hpp"

namespace dpjit::gossip {
namespace detail {
namespace {

/// Widest radix digit: 2^11 counters fit in L1 beside the records in flight.
constexpr int kMaxDigitBits = 11;
constexpr int kMaxPasses = (64 + kMaxDigitBits - 1) / kMaxDigitBits;

}  // namespace

void sort_round(std::span<Delivery> records, std::vector<Delivery>& scratch) {
  const std::size_t n = records.size();
  if (n < 2) return;
  // Only the key bits where some record differs from the first need sorting.
  const std::uint64_t key0 = sim::encode_time(records[0].at);
  std::uint64_t varying = 0;
  for (const Delivery& d : records) varying |= sim::encode_time(d.at) ^ key0;
  if (varying == 0) return;  // one time throughout: already in order
  const int low = std::countr_zero(varying);
  const int bits = 64 - std::countl_zero(varying) - low;
  const int passes = (bits + kMaxDigitBits - 1) / kMaxDigitBits;
  const int width = (bits + passes - 1) / passes;  // balanced digits
  const std::size_t buckets = std::size_t{1} << width;
  const std::uint64_t mask = buckets - 1;

  // One read of the records fills every pass's histogram. Only the first
  // passes * buckets counters are used, so only they are zeroed.
  std::array<std::uint32_t, std::size_t{kMaxPasses} << kMaxDigitBits> counts;
  std::fill_n(counts.begin(), static_cast<std::size_t>(passes) * buckets, 0U);
  for (const Delivery& d : records) {
    const std::uint64_t k = sim::encode_time(d.at) >> low;
    for (int p = 0; p < passes; ++p) ++counts[p * buckets + ((k >> (p * width)) & mask)];
  }

  // Stable scatter passes, lowest digit first, ping-ponging between buffers.
  scratch.resize(n);
  Delivery* src = records.data();
  Delivery* dst = scratch.data();
  for (int p = 0; p < passes; ++p) {
    std::uint32_t* start = counts.data() + p * buckets;
    const int shift = low + p * width;
    if (start[(key0 >> shift) & mask] == n) continue;  // digit equal in every record
    std::uint32_t sum = 0;
    for (std::size_t b = 0; b < buckets; ++b) sum += std::exchange(start[b], sum);
    for (std::size_t i = 0; i < n; ++i) {
      dst[start[(sim::encode_time(src[i].at) >> shift) & mask]++] = src[i];
    }
    std::swap(src, dst);
  }
  if (src != records.data()) std::copy_n(src, n, records.data());
}

}  // namespace detail

namespace {

int derive_log2(int n) {
  int k = 0;
  while ((1 << k) < n) ++k;
  return std::max(1, k);
}

/// True on the cycles that close an aggregation epoch (never cycle 0).
bool epoch_boundary(std::uint64_t cycle) {
  return cycle % static_cast<std::uint64_t>(kAggregationEpochCycles) == 0 && cycle > 0;
}

/// One push-pull averaging step: both ends leave with the pair's mean.
void average_pair(NodeGossip& a, NodeGossip& b) {
  const double cap_mid = 0.5 * (a.agg_capacity.current + b.agg_capacity.current);
  const double bw_mid = 0.5 * (a.agg_bandwidth.current + b.agg_bandwidth.current);
  a.agg_capacity.current = b.agg_capacity.current = cap_mid;
  a.agg_bandwidth.current = b.agg_bandwidth.current = bw_mid;
}

}  // namespace

MixedGossipService::MixedGossipService(sim::Engine& engine, GossipParams params, int node_count,
                                       LocalStateFn local_state,
                                       std::span<const std::uint8_t> alive, LatencyFn latency,
                                       LocalBandwidthFn local_bw, util::Rng rng,
                                       sim::FaultPlan* faults)
    : engine_(engine),
      params_(params),
      n_(node_count),
      local_state_(std::move(local_state)),
      alive_(alive),
      latency_(std::move(latency)),
      local_bw_(std::move(local_bw)),
      rng_(rng),
      faults_(faults) {
  if (node_count < 1) throw std::invalid_argument("MixedGossipService: node_count >= 1");
  if (static_cast<int>(alive_.size()) != node_count) {
    throw std::invalid_argument("MixedGossipService: one liveness byte per node");
  }
  if (params_.cycle_s <= 0.0) throw std::invalid_argument("MixedGossipService: cycle_s > 0");
  fanout_ = derive_log2(n_);
  cache_size_ = params_.cache_size > 0
                    ? params_.cache_size
                    : std::min(30, static_cast<int>(std::ceil(2.5 * derive_log2(n_))));
  nodes_.resize(static_cast<std::size_t>(n_));
  for (auto& node : nodes_) node.rss.set_capacity(static_cast<std::size_t>(cache_size_));
  if (params_.message_level) {
    detector_ = std::make_unique<FailureDetector>(n_);
    budget_.assign(static_cast<std::size_t>(n_), 0);
    digest_mark_.assign(static_cast<std::size_t>(n_), 0U);
    message_budget_ = 3 * fanout_ + 4;
    // A SYNC unanswered for half a cycle makes the initiator suspect the
    // target; a suspect not refuted within two cycles is declared dead (and
    // dropped from the view) at the next cycle sweep.
    ack_timeout_ = 0.5 * params_.cycle_s;
    suspect_timeout_ = 2.0 * params_.cycle_s;
  }
}

void MixedGossipService::start() {
  cycle_process_ = std::make_unique<sim::PeriodicProcess>(
      engine_, engine_.now(), params_.cycle_s, [this](std::uint64_t c) { run_cycle(c); });
  cycle_process_->start();
}

void MixedGossipService::stop() {
  if (cycle_process_) cycle_process_->stop();
}

void MixedGossipService::reseed_aggregation(NodeId n) {
  auto& g = nodes_[static_cast<std::size_t>(n.get())];
  double load = 0.0;
  double cap = 1.0;
  local_state_(n, load, cap);
  g.agg_capacity.current = cap;
  g.agg_bandwidth.current = local_bw_(n);
  // A freshly (re)seeded node publishes its local observation until the first
  // epoch completes - it has nothing better yet.
  if (g.agg_capacity.published == 0.0) g.agg_capacity.published = g.agg_capacity.current;
  if (g.agg_bandwidth.published == 0.0) g.agg_bandwidth.published = g.agg_bandwidth.current;
}

void MixedGossipService::publish_and_reseed(NodeId n) {
  // Publish the converged value, then restart from the local observation.
  auto& g = nodes_[static_cast<std::size_t>(n.get())];
  g.agg_capacity.published = g.agg_capacity.current;
  g.agg_bandwidth.published = g.agg_bandwidth.current;
  reseed_aggregation(n);
}

void MixedGossipService::run_cycle(std::uint64_t cycle) {
  if (params_.message_level) {
    run_cycle_message(cycle);
    return;
  }
  const bool new_epoch = epoch_boundary(cycle);

  const std::uint32_t r = acquire_round();
  for (int i = 0; i < n_; ++i) {
    const NodeId me{i};
    if (!alive(me)) continue;
    if (new_epoch) publish_and_reseed(me);
    auto& g = nodes_[static_cast<std::size_t>(i)];
    g.rss.expire(engine_.now(), kStalenessBoundS, me);
    epidemic_push(me, rounds_[r]);
    aggregation_exchange(me);
  }
  post_round(r);
}

const std::vector<NodeId>& MixedGossipService::pick_targets(NodeId from, int count) {
  const auto& g = nodes_[static_cast<std::size_t>(from.get())];
  // Candidate set: peers currently in the view (Newscast neighbors are
  // reselected from the cache every cycle).
  candidates_.clear();
  for (const auto& e : g.rss.entries()) candidates_.push_back(e.node);
  rng_.shuffle(candidates_);
  targets_.clear();
  for (NodeId c : candidates_) {
    if (static_cast<int>(targets_.size()) >= count) break;
    if (detector_) {
      // Message mode: membership is the node's own belief, not the oracle -
      // suspects are still gossiped to (they get a chance to refute).
      if (!detector_->believes_dead(from, c)) targets_.push_back(c);
    } else if (alive(c)) {
      targets_.push_back(c);
    }
  }
  return targets_;
}

int MixedGossipService::send(NodeId from, NodeId to, std::uint64_t bytes, double& delay) {
  ++messages_sent_;
  bytes_sent_ += bytes;
  // Without a plan (or with all message knobs zero) the draw consumes no
  // randomness and yields the default fate: one copy, no extra delay.
  const sim::MessageFate fate = faults_ != nullptr ? faults_->draw_message_fate()
                                                   : sim::MessageFate{};
  if (fate.lost) return 0;
  delay = std::max(0.0, latency_(from, to)) + fate.extra_delay_s;
  // Negated so that NaN fails too: it would break the order of a round's sort.
  if (!(delay >= 0.0)) throw std::logic_error("MixedGossipService: negative or NaN delay");
  return fate.copies;
}

template <typename Deliver>
void MixedGossipService::post_message(NodeId from, NodeId to, std::uint64_t bytes,
                                      Deliver deliver) {
  static_assert(sizeof(Deliver) <= sim::kInlineFnCapacity,
                "delivery captures must fit the engine's inline event buffer");
  double delay = 0.0;
  for (int c = send(from, to, bytes, delay); c > 0; --c) engine_.schedule_in(delay, deliver);
}

void MixedGossipService::epidemic_push(NodeId from, Round& round) {
  auto& g = nodes_[static_cast<std::size_t>(from.get())];
  const SimTime now = engine_.now();

  // Build the message once and share it across all targets: own fresh state
  // plus every cached entry that still has forwarding budget.
  const auto first = static_cast<std::uint32_t>(round.entries.size());
  double load = 0.0;
  double cap = 1.0;
  local_state_(from, load, cap);
  round.entries.push_back(ResourceEntry{from, load, cap, now, params_.ttl});
  for (const auto& e : g.rss.entries()) {
    if (e.ttl > 0) {
      ResourceEntry fwd = e;
      fwd.ttl -= 1;
      round.entries.push_back(fwd);
    }
  }
  const auto last = static_cast<std::uint32_t>(round.entries.size());

  // Wire-format accounting per Section IV.A: 20-byte header + 20 bytes per
  // carried entry (id, load, capacity, timestamp, ttl).
  const std::uint64_t message_bytes = 20 + 20 * std::uint64_t{last - first};

  const std::size_t posted = round.deliveries.size();
  for (NodeId to : pick_targets(from, fanout_)) {
    double delay = 0.0;
    for (int c = send(from, to, message_bytes, delay); c > 0; --c) {
      const std::uint64_t seq = engine_.reserve_seq();
      if (round.deliveries.empty()) round.base_seq = seq;
      // Within one cycle event this cannot happen: it would take 2^32 sends.
      if (seq - round.base_seq > std::numeric_limits<std::uint32_t>::max()) {
        throw std::logic_error("MixedGossipService: a round spans more than 2^32 sequence numbers");
      }
      round.deliveries.push_back(
          Delivery{now + delay, static_cast<std::uint32_t>(seq - round.base_seq), to, first, last});
    }
  }
  if (round.deliveries.size() == posted) round.entries.resize(first);  // nobody to tell
}

void MixedGossipService::post_round(std::uint32_t r) {
  Round& round = rounds_[r];
  if (round.deliveries.empty()) {
    release_round(r);
    return;
  }
  // Records were appended in rising seq order, so a stable sort by time
  // leaves them in (time, seq) order.
  detail::sort_round(round.deliveries, sort_scratch_);
  const Delivery& head = round.deliveries.front();
  engine_.schedule_reserved(head.at, round.base_seq + head.seq, [this, r] { drain_round(r); });
}

void MixedGossipService::drain_round(std::uint32_t r) {
  Round& round = rounds_[r];
  for (;;) {
    const Delivery& d = round.deliveries[round.next++];
    if (alive(d.to)) {  // a receiver that died while the message was in flight drops it
      receive(d.to, std::span(round.entries).subspan(d.first, d.last - d.first));
    }
    if (round.next == round.deliveries.size()) {
      release_round(r);
      return;
    }
    const Delivery& next = round.deliveries[round.next];
    const std::uint64_t seq = round.base_seq + next.seq;
    if (!engine_.take_next(next.at, seq)) {
      engine_.schedule_reserved(next.at, seq, [this, r] { drain_round(r); });
      return;
    }
  }
}

std::uint32_t MixedGossipService::acquire_round() {
  if (!free_rounds_.empty()) {
    const std::uint32_t r = free_rounds_.back();
    free_rounds_.pop_back();
    return r;
  }
  // Sized for a full push of every node up front, and so is the sort buffer:
  // grown by doubling, the discarded halves fragment the heap.
  const auto n = static_cast<std::size_t>(n_);
  Round& round = rounds_.emplace_back();
  round.entries.reserve(n * static_cast<std::size_t>(cache_size_ + 1));
  round.deliveries.reserve(n * static_cast<std::size_t>(fanout_));
  sort_scratch_.reserve(round.deliveries.capacity());
  return static_cast<std::uint32_t>(rounds_.size() - 1);
}

void MixedGossipService::release_round(std::uint32_t r) {
  Round& round = rounds_[r];
  round.entries.clear();
  round.deliveries.clear();
  round.next = 0;
  free_rounds_.push_back(r);
}

void MixedGossipService::receive(NodeId to, std::span<const ResourceEntry> entries) {
  auto& rss = nodes_[static_cast<std::size_t>(to.get())].rss;
  const auto accept_all = [](const ResourceEntry&) { return true; };
  if (detector_) {
    // SWIM rumor filter: state about a dead-believed peer is accepted only
    // when the snapshot post-dates the death declaration (rejoin evidence).
    // It runs before the stamp floor: it may revive the belief and count a
    // refutation even for an entry the full view then skips.
    floor_rejections_ += rss.merge_message(
        entries,
        [this, to](const ResourceEntry& e) {
          return e.node != to && detector_->indirect_evidence(to, e.node, e.stamped_at);
        },
        accept_all);
    return;
  }
  // Idealized mode: the self check and the oracular filter of state about
  // dead peers are pure reads, so entries below the floor skip them.
  floor_rejections_ += rss.merge_message(
      entries, accept_all,
      [this, to](const ResourceEntry& e) { return e.node != to && alive(e.node); });
}

void MixedGossipService::aggregation_exchange(NodeId from) {
  // One push-pull averaging step with a random alive partner from the view.
  const auto& targets = pick_targets(from, 1);
  if (targets.empty()) return;
  const NodeId partner = targets.front();
  if (detector_) {
    // Message mode: the request costs budget and a real send, and can be lost
    // or addressed to a dead-believed-alive partner - then nothing averages.
    // The exchange itself stays atomic (documented idealization: the payload
    // is two doubles, and modelling its round trip buys no fidelity).
    if (!try_consume_budget(from)) return;
    ++messages_sent_;
    bytes_sent_ += 20 + 16;
    const sim::MessageFate fate =
        faults_ != nullptr ? faults_->draw_message_fate() : sim::MessageFate{};
    if (fate.lost || !alive(partner)) return;
    average_pair(nodes_[static_cast<std::size_t>(from.get())],
                 nodes_[static_cast<std::size_t>(partner.get())]);
    return;
  }
  average_pair(nodes_[static_cast<std::size_t>(from.get())],
               nodes_[static_cast<std::size_t>(partner.get())]);
  ++messages_sent_;
  bytes_sent_ += 20 + 16;  // header + two doubles
}

void MixedGossipService::run_cycle_message(std::uint64_t cycle) {
  const bool new_epoch = epoch_boundary(cycle);
  const SimTime now = engine_.now();

  for (int i = 0; i < n_; ++i) {
    const NodeId me{i};
    if (!alive(me)) continue;  // physically down nodes run nothing
    if (new_epoch) publish_and_reseed(me);
    auto& g = nodes_[static_cast<std::size_t>(i)];
    // SWIM sweep first: expired suspects become dead and leave the view, so
    // this cycle's digest no longer advertises them.
    detector_->sweep(me, now, [&g](NodeId dead) { g.rss.forget(dead); });
    g.rss.expire(now, kStalenessBoundS, me);
    // Budget renews every cycle. All sends below schedule their deliveries
    // strictly after this cycle event returns, so resetting inside the same
    // loop is race-free: no reply can be charged before its budget exists.
    budget_[static_cast<std::size_t>(i)] = message_budget_;

    // Shared SYNC digest: own fresh summary + every cached entry's (node,
    // stamp). libgossip's SYNC carries exactly this - keys and versions.
    auto digest = std::make_shared<std::vector<EntrySummary>>();
    digest->reserve(g.rss.size() + 1);
    digest->push_back(EntrySummary{me, now});
    for (const auto& e : g.rss.entries()) digest->push_back(EntrySummary{e.node, e.stamped_at});
    for (NodeId to : pick_targets(me, fanout_)) start_exchange(me, to, digest);
    aggregation_exchange(me);
  }
}

void MixedGossipService::start_exchange(NodeId from, NodeId to,
                                        const std::shared_ptr<std::vector<EntrySummary>>& digest) {
  if (!try_consume_budget(from)) return;
  const SimTime sent_at = engine_.now();
  // Ack timeout: if no direct message from `to` lands at `from` before the
  // timer fires, the initiator starts suspecting `to` (SWIM probe miss).
  engine_.schedule_in(ack_timeout_, [this, from, to, sent_at] {
    if (!alive(from)) return;
    if (detector_->answered_since(from, to, sent_at)) return;
    detector_->probe_missed(from, to, engine_.now(), suspect_timeout_);
  });
  post_message(from, to, 20 + 12 * digest->size(),
               [this, from, to, digest] { on_sync(from, to, digest); });
}

void MixedGossipService::on_sync(NodeId from, NodeId to,
                                 const std::shared_ptr<std::vector<EntrySummary>>& digest) {
  if (!alive(to)) return;  // receiver died while the SYNC was in flight
  const SimTime now = engine_.now();
  detector_->direct_evidence(to, from, now);
  // Budget check before building the reply: an exhausted responder stays
  // silent and the initiator's ack timeout does the rest.
  if (!try_consume_budget(to)) return;
  const auto& g = nodes_[static_cast<std::size_t>(to.get())];

  // Diff the digest against the local view. ACK1 = entries we know fresher
  // than the initiator (push) + nodes the initiator knows fresher (want).
  auto push = std::make_shared<std::vector<ResourceEntry>>();
  auto want = std::make_shared<std::vector<NodeId>>();
  if (++digest_epoch_ == 0) {  // wrapped: old marks could alias the new epoch
    std::fill(digest_mark_.begin(), digest_mark_.end(), 0U);
    digest_epoch_ = 1;
  }
  const auto in_digest = [this](NodeId node) {
    return digest_mark_[static_cast<std::size_t>(node.get())] == digest_epoch_;
  };
  for (const auto& s : *digest) {
    digest_mark_[static_cast<std::size_t>(s.node.get())] = digest_epoch_;
    if (s.node == to) continue;  // own state is always freshest locally
    const ResourceEntry* mine = g.rss.find(s.node);
    const SimTime my_stamp = mine != nullptr ? mine->stamped_at : -1.0;
    if (s.stamped_at > my_stamp) {
      want->push_back(s.node);
    } else if (s.stamped_at < my_stamp) {
      if (auto fwd = forwardable_entry(to, s.node)) push->push_back(*fwd);
    }
  }
  // Entries the initiator does not have at all - own state first.
  if (!in_digest(to)) {
    if (auto own = forwardable_entry(to, to)) push->push_back(*own);
  }
  for (const auto& e : g.rss.entries()) {
    if (e.node == from || in_digest(e.node)) continue;
    if (auto fwd = forwardable_entry(to, e.node)) push->push_back(*fwd);
  }
  post_message(to, from, 20 + 20 * push->size() + 4 * want->size(),
               [this, to, from, push, want] { on_ack1(to, from, push, want); });
}

void MixedGossipService::on_ack1(NodeId from, NodeId to,
                                 const std::shared_ptr<std::vector<ResourceEntry>>& push,
                                 const std::shared_ptr<std::vector<NodeId>>& want) {
  // Runs at the initiator (`to`); `from` is the responder that answered.
  if (!alive(to)) return;
  detector_->direct_evidence(to, from, engine_.now());
  receive(to, *push);
  // ACK2: the entries the responder asked for.
  auto reply = std::make_shared<std::vector<ResourceEntry>>();
  reply->reserve(want->size());
  for (NodeId w : *want) {
    if (auto fwd = forwardable_entry(to, w)) reply->push_back(*fwd);
  }
  if (reply->empty()) return;  // nothing left to say - no third leg
  if (!try_consume_budget(to)) return;
  post_message(to, from, 20 + 20 * reply->size(), [this, to, from, reply] {
    if (!alive(from)) return;
    detector_->direct_evidence(from, to, engine_.now());
    receive(from, *reply);
  });
}

bool MixedGossipService::try_consume_budget(NodeId n) {
  auto& b = budget_[static_cast<std::size_t>(n.get())];
  if (b <= 0) {
    ++messages_suppressed_;
    return false;
  }
  --b;
  return true;
}

std::optional<ResourceEntry> MixedGossipService::forwardable_entry(NodeId from, NodeId node) {
  if (node == from) {
    double load = 0.0;
    double cap = 1.0;
    local_state_(from, load, cap);
    return ResourceEntry{from, load, cap, engine_.now(), params_.ttl};
  }
  const ResourceEntry* e = nodes_[static_cast<std::size_t>(from.get())].rss.find(node);
  if (e == nullptr || e->ttl <= 0) return std::nullopt;
  ResourceEntry fwd = *e;
  fwd.ttl -= 1;
  return fwd;
}

void MixedGossipService::node_joined(NodeId n, const std::vector<NodeId>& bootstrap) {
  auto& g = nodes_[static_cast<std::size_t>(n.get())];
  g.rss.clear();
  g.agg_capacity = AggregationState{};
  g.agg_bandwidth = AggregationState{};
  if (detector_) detector_->reset_observer(n);  // fresh join: no prior grudges
  reseed_aggregation(n);
  for (NodeId contact : bootstrap) {
    if (contact == n || !alive(contact)) continue;
    double load = 0.0;
    double cap = 1.0;
    local_state_(contact, load, cap);
    g.rss.merge(ResourceEntry{contact, load, cap, engine_.now(), params_.ttl});
  }
}

void MixedGossipService::node_left(NodeId n) {
  auto& g = nodes_[static_cast<std::size_t>(n.get())];
  g.rss.clear();
  g.agg_capacity = AggregationState{};
  g.agg_bandwidth = AggregationState{};
  if (detector_) detector_->reset_observer(n);
}

const ResourceView& MixedGossipService::rss(NodeId n) const {
  return nodes_[static_cast<std::size_t>(n.get())].rss;
}

ResourceView& MixedGossipService::rss(NodeId n) {
  return nodes_[static_cast<std::size_t>(n.get())].rss;
}

GlobalAverages MixedGossipService::averages(NodeId n) const {
  const auto& g = nodes_[static_cast<std::size_t>(n.get())];
  GlobalAverages avg;
  avg.capacity_mips = std::max(g.agg_capacity.published, 1e-9);
  avg.bandwidth_mbps = std::max(g.agg_bandwidth.published, 1e-9);
  return avg;
}

double MixedGossipService::mean_rss_size() const {
  double sum = 0.0;
  int count = 0;
  for (int i = 0; i < n_; ++i) {
    if (!alive(NodeId{i})) continue;
    sum += static_cast<double>(nodes_[static_cast<std::size_t>(i)].rss.size());
    ++count;
  }
  return count == 0 ? 0.0 : sum / count;
}

double MixedGossipService::mean_idle_known() const {
  double sum = 0.0;
  int count = 0;
  for (int i = 0; i < n_; ++i) {
    if (!alive(NodeId{i})) continue;
    int idle = 0;
    for (const auto& e : nodes_[static_cast<std::size_t>(i)].rss.entries()) {
      if (e.load_mi <= 0.0) ++idle;
    }
    sum += idle;
    ++count;
  }
  return count == 0 ? 0.0 : sum / count;
}

}  // namespace dpjit::gossip
