#include "sim/network.h"

#include <stdexcept>

namespace ct::sim {

std::string to_string(NodeAddr a) {
  // Appended piecewise: `"s" + std::string&&` trips a GCC 12 -Wrestrict
  // false positive at -O3.
  std::string out = "s";
  out += std::to_string(a.site);
  out += "/n";
  out += std::to_string(a.node);
  return out;
}

std::string to_string(Message::Type t) {
  switch (t) {
    case Message::Type::kRequest: return "REQUEST";
    case Message::Type::kReply: return "REPLY";
    case Message::Type::kProposal: return "PROPOSAL";
    case Message::Type::kAccept: return "ACCEPT";
    case Message::Type::kHeartbeat: return "HEARTBEAT";
    case Message::Type::kActivate: return "ACTIVATE";
    case Message::Type::kViewChange: return "VIEW-CHANGE";
    case Message::Type::kActivateAck: return "ACTIVATE-ACK";
    case Message::Type::kCheckpoint: return "CHECKPOINT";
    case Message::Type::kStateRequest: return "STATE-REQUEST";
    case Message::Type::kStateReply: return "STATE-REPLY";
  }
  return "?";
}

bool is_control_message(Message::Type t) noexcept {
  switch (t) {
    case Message::Type::kActivate:
    case Message::Type::kActivateAck:
    case Message::Type::kCheckpoint:
    case Message::Type::kStateRequest:
    case Message::Type::kStateReply:
      return true;
    default:
      return false;
  }
}

Network::Network(Simulator& sim, std::vector<int> nodes_per_site,
                 NetworkOptions options)
    : sim_(sim), impairment_rng_(options.impairment_seed, "network-impairment") {
  configure(std::move(nodes_per_site), options);
}

void Network::configure(std::vector<int> nodes_per_site,
                        NetworkOptions options) {
  nodes_per_site_ = std::move(nodes_per_site);
  options_ = options;
  if (options_.loss_probability < 0.0 || options_.loss_probability >= 1.0) {
    throw std::invalid_argument("Network: loss probability must be in [0, 1)");
  }
  if (options_.latency_jitter_s < 0.0) {
    throw std::invalid_argument("Network: negative jitter");
  }
  if (options_.duplicate_probability < 0.0 ||
      options_.duplicate_probability >= 1.0) {
    throw std::invalid_argument(
        "Network: duplicate probability must be in [0, 1)");
  }
  if (options_.reorder_probability < 0.0 ||
      options_.reorder_probability >= 1.0 || options_.reorder_window_s < 0.0) {
    throw std::invalid_argument("Network: bad reordering parameters");
  }
  if (options_.control_loss_probability < 0.0 ||
      options_.control_loss_probability > 1.0) {
    throw std::invalid_argument(
        "Network: control loss probability must be in [0, 1]");
  }
  if (nodes_per_site_.empty()) {
    throw std::invalid_argument("Network: need at least one site");
  }
  offsets_.clear();
  std::size_t total = 0;
  for (const int n : nodes_per_site_) {
    if (n < 0) throw std::invalid_argument("Network: negative node count");
    offsets_.push_back(total);
    total += static_cast<std::size_t>(n);
  }
  handlers_.assign(total, Handler{});
  down_.assign(nodes_per_site_.size(), 0);
  isolated_.assign(nodes_per_site_.size(), 0);
  crashed_.assign(total, 0);
  link_down_.assign(nodes_per_site_.size() * nodes_per_site_.size(), 0);
  node_block_.assign(total, 0);
  cross_block_.assign(nodes_per_site_.size() * nodes_per_site_.size(), 0);
  impairments_ = options_.loss_probability > 0.0 ||
                 options_.control_loss_probability > 0.0 ||
                 options_.latency_jitter_s > 0.0 ||
                 options_.duplicate_probability > 0.0 ||
                 options_.reorder_probability > 0.0;
}

void Network::refresh_blocks() {
  const std::size_t sites = nodes_per_site_.size();
  for (std::size_t s = 0; s < sites; ++s) {
    for (int n = 0; n < nodes_per_site_[s]; ++n) {
      const std::size_t f = offsets_[s] + static_cast<std::size_t>(n);
      node_block_[f] = (crashed_[f] | down_[s]) != 0 ? 1 : 0;
    }
  }
  for (std::size_t a = 0; a < sites; ++a) {
    for (std::size_t b = 0; b < sites; ++b) {
      cross_block_[a * sites + b] =
          a != b && (isolated_[a] | isolated_[b] |
                     link_down_[a * sites + b]) != 0
              ? 1
              : 0;
    }
  }
}

void Network::reset(std::vector<int> nodes_per_site, NetworkOptions options) {
  configure(std::move(nodes_per_site), options);
  impairment_rng_ = util::Rng(options_.impairment_seed, "network-impairment");
  sent_ = 0;
  delivered_ = 0;
  duplicated_ = 0;
  drops_ = DropCounters{};
  pool_ = PoolStats{};
  // Every in-flight delivery was dropped with the simulator's event queue
  // (reset() here requires Simulator::reset() first), so all slots return
  // to the freelist with payload capacity kept warm.
  free_slots_.clear();
  for (std::uint32_t i = 0; i < slots_.size(); ++i) {
    slots_[i].refs = 0;
    slots_[i].msg.payload.clear();
    free_slots_.push_back(static_cast<std::uint32_t>(slots_.size()) - 1 - i);
  }
}

void Network::check_addr(NodeAddr a) const {
  if (a.site < 0 || a.site >= site_count() || a.node < 0 ||
      a.node >= nodes_per_site_[static_cast<std::size_t>(a.site)]) {
    throw std::out_of_range("Network: bad address " + to_string(a));
  }
}

std::size_t Network::flat_index(NodeAddr a) const {
  check_addr(a);
  return offsets_[static_cast<std::size_t>(a.site)] +
         static_cast<std::size_t>(a.node);
}

void Network::register_handler(NodeAddr addr, Handler handler) {
  handlers_[flat_index(addr)] = std::move(handler);
}

void Network::set_site_down(int site, bool down) {
  down_.at(static_cast<std::size_t>(site)) = down ? 1 : 0;
  refresh_blocks();
}

void Network::set_site_isolated(int site, bool isolated) {
  isolated_.at(static_cast<std::size_t>(site)) = isolated ? 1 : 0;
  refresh_blocks();
}

bool Network::site_down(int site) const {
  return down_.at(static_cast<std::size_t>(site)) != 0;
}

bool Network::site_isolated(int site) const {
  return isolated_.at(static_cast<std::size_t>(site)) != 0;
}

void Network::set_node_crashed(NodeAddr addr, bool crashed) {
  crashed_[flat_index(addr)] = crashed ? 1 : 0;
  refresh_blocks();
}

bool Network::node_crashed(NodeAddr addr) const {
  return crashed_[flat_index(addr)];
}

void Network::set_link_down(int site_a, int site_b, bool down) {
  if (site_a < 0 || site_a >= site_count() || site_b < 0 ||
      site_b >= site_count()) {
    throw std::out_of_range("Network: bad link site index");
  }
  const auto n = static_cast<std::size_t>(site_count());
  link_down_[static_cast<std::size_t>(site_a) * n +
             static_cast<std::size_t>(site_b)] = down ? 1 : 0;
  link_down_[static_cast<std::size_t>(site_b) * n +
             static_cast<std::size_t>(site_a)] = down ? 1 : 0;
  refresh_blocks();
}

bool Network::link_down(int site_a, int site_b) const {
  if (site_a < 0 || site_a >= site_count() || site_b < 0 ||
      site_b >= site_count()) {
    throw std::out_of_range("Network: bad link site index");
  }
  return link_down_[static_cast<std::size_t>(site_a) *
                        static_cast<std::size_t>(site_count()) +
                    static_cast<std::size_t>(site_b)];
}

bool Network::can_communicate(NodeAddr from, NodeAddr to) const {
  check_addr(from);
  check_addr(to);
  if (node_crashed(from) || node_crashed(to)) return false;
  if (site_down(from.site) || site_down(to.site)) return false;
  if (from.site != to.site &&
      (site_isolated(from.site) || site_isolated(to.site))) {
    return false;
  }
  if (from.site != to.site && link_down(from.site, to.site)) return false;
  return true;
}

std::uint32_t Network::materialize(NodeAddr from, const Message& msg) {
  std::uint32_t slot;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
    ++pool_.pool_hits;
  } else {
    slot = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
    ++pool_.pool_misses;
  }
  Message& m = slots_[slot].msg;
  m.type = msg.type;
  m.sender = from;
  m.request_id = msg.request_id;
  m.seq = msg.seq;
  m.view = msg.view;
  m.value = msg.value;
  m.corrupt = msg.corrupt;
  m.payload.assign(msg.payload.begin(), msg.payload.end());
  ++pool_.materializations;
  return slot;
}

void Network::release(std::uint32_t slot) {
  Slot& s = slots_[slot];
  if (--s.refs == 0) {
    s.msg.payload.clear();  // keeps capacity for the next occupant
    free_slots_.push_back(slot);
  }
}

void Network::deliver(NodeAddr to, std::uint32_t to_flat, std::uint32_t slot,
                      double latency) {
  ++slots_[slot].refs;
  const int to_site = to.site;
  sim_.schedule_in(latency, [this, to_site, to_flat, slot] {
    // Re-check destination health at delivery time: packets in flight to a
    // site that just flooded, got cut off, or whose node crashed are lost.
    if (node_block_[to_flat] != 0) {
      ++drops_.in_flight;
      release(slot);
      return;
    }
    const Message& msg = slots_[slot].msg;
    if (msg.sender.site != to_site &&
        cross_block_[site_pair(msg.sender.site, to_site)] != 0) {
      ++drops_.in_flight;
      release(slot);
      return;
    }
    const Handler& h = handlers_[to_flat];
    if (h) {
      ++delivered_;
      // The slot stays referenced (and address-stable in the deque) for
      // the duration of the handler, even if the handler sends and grows
      // the pool re-entrantly.
      h(msg);
    }
    release(slot);
  });
}

void Network::classify_send_drop(NodeAddr from, NodeAddr to) {
  // Legacy cause priority: crashed > site down > isolation > link.
  if (node_crashed(from) || node_crashed(to)) {
    ++drops_.crashed;
  } else if (site_down(from.site) || site_down(to.site)) {
    ++drops_.site_down;
  } else if (from.site != to.site &&
             (site_isolated(from.site) || site_isolated(to.site))) {
    ++drops_.isolation;
  } else {
    ++drops_.link_down;
  }
}

void Network::send_pooled(NodeAddr from, NodeAddr to, const Message& msg,
                          std::uint32_t* slot) {
  ++sent_;
  check_addr(from);
  check_addr(to);
  const auto from_flat = static_cast<std::uint32_t>(
      offsets_[static_cast<std::size_t>(from.site)] +
      static_cast<std::size_t>(from.node));
  const auto to_flat = static_cast<std::uint32_t>(
      offsets_[static_cast<std::size_t>(to.site)] +
      static_cast<std::size_t>(to.node));
  if ((node_block_[from_flat] | node_block_[to_flat]) != 0) {
    classify_send_drop(from, to);
    return;
  }
  if (from.site != to.site && cross_block_[site_pair(from.site, to.site)] != 0) {
    classify_send_drop(from, to);
    return;
  }
  if (!impairments_) {
    // No probabilistic impairment armed: no RNG draw, constant latency.
    if (*slot == kNoSlot) *slot = materialize(from, msg);
    deliver(to, to_flat, *slot,
            from.site == to.site ? options_.intra_site_latency_s
                                 : options_.inter_site_latency_s);
    return;
  }
  if (options_.loss_probability > 0.0 &&
      impairment_rng_.bernoulli(options_.loss_probability)) {
    ++drops_.loss;
    return;
  }
  if (options_.control_loss_probability > 0.0 && is_control_message(msg.type) &&
      impairment_rng_.bernoulli(options_.control_loss_probability)) {
    ++drops_.transfer_loss;
    return;
  }
  if (*slot == kNoSlot) *slot = materialize(from, msg);
  const auto draw_latency = [&] {
    double latency = from.site == to.site ? options_.intra_site_latency_s
                                          : options_.inter_site_latency_s;
    if (options_.latency_jitter_s > 0.0) {
      latency += impairment_rng_.uniform(0.0, options_.latency_jitter_s);
    }
    if (options_.reorder_probability > 0.0 &&
        impairment_rng_.bernoulli(options_.reorder_probability)) {
      // Holding a message back lets traffic sent later overtake it.
      latency += impairment_rng_.uniform(0.0, options_.reorder_window_s);
    }
    return latency;
  };
  deliver(to, to_flat, *slot, draw_latency());
  if (options_.duplicate_probability > 0.0 &&
      impairment_rng_.bernoulli(options_.duplicate_probability)) {
    ++duplicated_;
    deliver(to, to_flat, *slot, draw_latency());
  }
}

void Network::send(NodeAddr from, NodeAddr to, const Message& msg) {
  std::uint32_t slot = kNoSlot;
  send_pooled(from, to, msg, &slot);
}

void Network::broadcast(NodeAddr from, const Message& msg) {
  std::uint32_t slot = kNoSlot;  // one materialization shared by all targets
  for (int s = 0; s < site_count(); ++s) {
    for (int n = 0; n < nodes_at(s); ++n) {
      const NodeAddr to{s, n};
      if (to == from) continue;
      send_pooled(from, to, msg, &slot);
    }
  }
}

void Network::send_group(NodeAddr from, const std::vector<NodeAddr>& targets,
                         const Message& msg) {
  std::uint32_t slot = kNoSlot;
  for (const NodeAddr to : targets) {
    if (to == from) continue;
    send_pooled(from, to, msg, &slot);
  }
}

void Network::send_to_site(NodeAddr from, int site, const Message& msg) {
  std::uint32_t slot = kNoSlot;
  for (int n = 0; n < nodes_at(site); ++n) {
    const NodeAddr to{site, n};
    if (to == from) continue;
    send_pooled(from, to, msg, &slot);
  }
}

}  // namespace ct::sim
