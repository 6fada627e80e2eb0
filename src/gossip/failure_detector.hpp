// SWIM-style per-observer failure detection (Das et al., DSN 2002 shape):
// every node keeps its own belief about every peer - alive, suspect, or dead
// - driven purely by the messages it actually receives, replacing the
// oracular liveness array of the idealized gossip mode.
//
// Transitions (all per observer, no global knowledge):
//   alive --[probe unanswered]--> suspect (deadline = now + suspect_timeout)
//   suspect --[direct message from peer]--> alive          (refutation)
//   suspect --[deadline expires at next sweep]--> dead     (view forgets peer)
//   dead --[evidence stamped after the declaration]--> alive  (rejoin)
//
// Stale rumors are the classic SWIM hazard: once an observer declares a peer
// dead, gossiped entries about it are accepted only when their snapshot
// timestamp post-dates the declaration, so third-hand state cannot resurrect
// a dead peer (indirect_evidence implements the check).
#pragma once

#include <cstdint>
#include <stdexcept>
#include <vector>

#include "util/types.hpp"

namespace dpjit::gossip {

enum class PeerState : std::uint8_t { kAlive = 0, kSuspect = 1, kDead = 2 };

class FailureDetector {
 public:
  explicit FailureDetector(int node_count) : n_(node_count) {
    if (node_count < 1) throw std::invalid_argument("FailureDetector: node_count >= 1");
    const auto nn = static_cast<std::size_t>(n_) * static_cast<std::size_t>(n_);
    state_.assign(nn, static_cast<std::uint8_t>(PeerState::kAlive));
    // stamp_ is state-dependent: alive = last direct contact, suspect = the
    // declared-dead deadline, dead = time of the death declaration.
    stamp_.assign(nn, 0.0);
  }

  [[nodiscard]] PeerState state(NodeId observer, NodeId peer) const {
    return static_cast<PeerState>(state_[idx(observer, peer)]);
  }
  [[nodiscard]] bool believes_dead(NodeId observer, NodeId peer) const {
    return state(observer, peer) == PeerState::kDead;
  }

  /// A message from `peer` itself arrived at `observer`: refutes suspicion,
  /// revives a dead belief (the peer is demonstrably up right now).
  void direct_evidence(NodeId observer, NodeId peer, SimTime now) {
    const auto i = idx(observer, peer);
    if (state_[i] != static_cast<std::uint8_t>(PeerState::kAlive)) ++refutations_;
    state_[i] = static_cast<std::uint8_t>(PeerState::kAlive);
    stamp_[i] = now;
  }

  /// True when `peer` sent `observer` a direct message at or after `since`.
  [[nodiscard]] bool answered_since(NodeId observer, NodeId peer, SimTime since) const {
    const auto i = idx(observer, peer);
    return state_[i] == static_cast<std::uint8_t>(PeerState::kAlive) && stamp_[i] >= since;
  }

  /// A gossiped entry about `peer` stamped at `stamped_at` reached `observer`.
  /// Returns false when it is a stale rumor about a dead-believed peer (the
  /// caller must drop it); revives the belief when the snapshot post-dates
  /// the death declaration. Suspicion is NOT refuted by indirect evidence -
  /// only a direct message proves the path back works.
  [[nodiscard]] bool indirect_evidence(NodeId observer, NodeId peer, SimTime stamped_at) {
    const auto i = idx(observer, peer);
    if (state_[i] != static_cast<std::uint8_t>(PeerState::kDead)) return true;
    if (stamped_at <= stamp_[i]) return false;
    state_[i] = static_cast<std::uint8_t>(PeerState::kAlive);
    stamp_[i] = stamped_at;
    ++refutations_;
    return true;
  }

  /// A probe (SYNC) to `peer` went unanswered past the ack timeout.
  void probe_missed(NodeId observer, NodeId peer, SimTime now, double suspect_timeout_s) {
    const auto i = idx(observer, peer);
    if (state_[i] != static_cast<std::uint8_t>(PeerState::kAlive)) return;  // deadline stands
    state_[i] = static_cast<std::uint8_t>(PeerState::kSuspect);
    stamp_[i] = now + suspect_timeout_s;
    ++suspicions_;
  }

  /// Promotes `observer`'s expired suspects to dead, invoking `on_dead(peer)`
  /// for each in ascending peer id (deterministic order).
  template <typename Fn>
  void sweep(NodeId observer, SimTime now, Fn&& on_dead) {
    const auto base = static_cast<std::size_t>(observer.get()) * static_cast<std::size_t>(n_);
    for (int p = 0; p < n_; ++p) {
      const auto i = base + static_cast<std::size_t>(p);
      if (state_[i] == static_cast<std::uint8_t>(PeerState::kSuspect) && stamp_[i] <= now) {
        state_[i] = static_cast<std::uint8_t>(PeerState::kDead);
        stamp_[i] = now;
        ++declared_dead_;
        on_dead(NodeId{p});
      }
    }
  }

  /// Clears everything `observer` believes (fresh join: no prior grudges).
  void reset_observer(NodeId observer) {
    const auto base = static_cast<std::size_t>(observer.get()) * static_cast<std::size_t>(n_);
    for (std::size_t k = 0; k < static_cast<std::size_t>(n_); ++k) {
      state_[base + k] = static_cast<std::uint8_t>(PeerState::kAlive);
      stamp_[base + k] = 0.0;
    }
  }

  [[nodiscard]] std::uint64_t suspicions() const { return suspicions_; }
  [[nodiscard]] std::uint64_t declared_dead() const { return declared_dead_; }
  [[nodiscard]] std::uint64_t refutations() const { return refutations_; }

 private:
  [[nodiscard]] std::size_t idx(NodeId observer, NodeId peer) const {
    return static_cast<std::size_t>(observer.get()) * static_cast<std::size_t>(n_) +
           static_cast<std::size_t>(peer.get());
  }

  int n_;
  std::vector<std::uint8_t> state_;
  std::vector<SimTime> stamp_;
  std::uint64_t suspicions_ = 0;
  std::uint64_t declared_dead_ = 0;
  std::uint64_t refutations_ = 0;
};

}  // namespace dpjit::gossip
