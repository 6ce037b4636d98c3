#include "net/network.h"

#include <algorithm>
#include <cstring>
#include <deque>
#include <utility>

#include "util/log.h"

namespace scda::net {

NodeId Network::add_node(NodeRole role, std::string name) {
  if (routes_built_)
    throw std::logic_error("Network::add_node after build_routes");
  const auto id = NodeId::from_index(nodes_.size());
  nodes_.push_back(std::make_unique<Node>(id, role, std::move(name)));
  out_links_.emplace_back();
  return id;
}

LinkId Network::add_link(NodeId a, NodeId b, sim::BitRate capacity,
                         double prop_delay_s,
                         std::int64_t queue_limit_bytes) {
  if (routes_built_)
    throw std::logic_error("Network::add_link after build_routes");
  checked(a);
  checked(b);
  if (a == b) throw std::invalid_argument("Network::add_link: self loop");
  if (capacity <= sim::BitRate{})
    throw std::invalid_argument("Network::add_link: capacity must be > 0");
  const auto id = LinkId::from_index(links_.size());
  links_.push_back(std::make_unique<Link>(sim_, id, a, b, capacity,
                                          prop_delay_s, queue_limit_bytes));
  Link* raw = links_.back().get();
  raw->set_deliver([this, to = b](Packet&& p) { forward(std::move(p), to); });
  out_links_[a.index()].push_back(id);
  return id;
}

void Network::track_dirty_links() {
  dirty_links_.assign((links_.size() + 63) / 64 * 64, 0);
  for (std::size_t l = 0; l < links_.size(); ++l)
    links_[l]->bind_dirty_flag(&dirty_links_[l]);
}

void Network::take_dirty_links(std::vector<std::uint64_t>& into) {
  const std::size_t words = std::min(into.size(), dirty_links_.size() / 64);
  for (std::size_t w = 0; w < words; ++w) {
    std::uint8_t* flags = &dirty_links_[w * 64];
    std::uint64_t any = 0;
    for (std::size_t i = 0; i < 64; i += 8) {
      std::uint64_t chunk;
      std::memcpy(&chunk, flags + i, sizeof chunk);
      any |= chunk;
    }
    if (any == 0) continue;  // an idle fabric costs 8 loads per 64 links
    std::uint64_t bits = 0;
    for (std::size_t b = 0; b < 64; ++b)
      bits |= std::uint64_t{flags[b]} << b;  // flags are 0 or 1
    into[w] |= bits;
    std::memset(flags, 0, 64);
  }
}

std::pair<LinkId, LinkId> Network::add_duplex(NodeId a, NodeId b,
                                              sim::BitRate capacity,
                                              double prop_delay_s,
                                              std::int64_t queue_limit_bytes) {
  const LinkId ab = add_link(a, b, capacity, prop_delay_s,
                             queue_limit_bytes);
  const LinkId ba = add_link(b, a, capacity, prop_delay_s,
                             queue_limit_bytes);
  return {ab, ba};
}

void Network::build_routes() {
  const std::size_t n = nodes_.size();
  next_hop_.assign(n, std::vector<NodeId>(n, kInvalidNode));

  // BFS from every node over the out-link adjacency. For tree topologies
  // this is exact; for general graphs it yields deterministic shortest
  // hop-count paths (lowest link id explored first).
  std::vector<std::int32_t> dist(n);
  std::vector<NodeId> first_hop(n);
  for (std::size_t s = 0; s < n; ++s) {
    std::fill(dist.begin(), dist.end(), -1);
    std::fill(first_hop.begin(), first_hop.end(), kInvalidNode);
    std::deque<NodeId> q;
    const auto src = NodeId::from_index(s);
    dist[s] = 0;
    q.push_back(src);
    while (!q.empty()) {
      const NodeId u = q.front();
      q.pop_front();
      for (const LinkId lid : out_links_[u.index()]) {
        const NodeId v = links_[lid.index()]->to();
        if (dist[v.index()] != -1) continue;
        dist[v.index()] =
            dist[u.index()] + 1;
        first_hop[v.index()] =
            (u == src) ? v : first_hop[u.index()];
        q.push_back(v);
      }
    }
    for (std::size_t d = 0; d < n; ++d)
      next_hop_[s][d] = (d == s) ? src : first_hop[d];
  }
  routes_built_ = true;
}

LinkId Network::link_between(NodeId a, NodeId b) const {
  for (const LinkId lid : out_links_.at(checked(a))) {
    if (links_[lid.index()]->to() == b) return lid;
  }
  return kInvalidLink;
}

std::vector<LinkId> Network::path(NodeId src, NodeId dst) const {
  if (!routes_built_) throw std::logic_error("Network::path: routes not built");
  std::vector<LinkId> out;
  NodeId at = src;
  while (at != dst) {
    const NodeId nh = next_hop(at, dst);
    if (nh == kInvalidNode)
      throw std::runtime_error("Network::path: unreachable destination");
    const LinkId lid = link_between(at, nh);
    out.push_back(lid);
    at = nh;
  }
  return out;
}

void Network::pin_flow_route(FlowId flow, const std::vector<LinkId>& path) {
  if (path.empty())
    throw std::invalid_argument("pin_flow_route: empty path");
  std::unordered_map<NodeId, LinkId> hops;
  NodeId at = links_[path.front().index()]->from();
  for (const LinkId lid : path) {
    const Link& l = *links_.at(lid.index());
    if (l.from() != at)
      throw std::invalid_argument("pin_flow_route: path not contiguous");
    hops[at] = lid;
    at = l.to();
  }
  pinned_[flow] = std::move(hops);
}

void Network::unpin_flow_route(FlowId flow) { pinned_.erase(flow); }

void Network::send(Packet&& p) {
  if (!routes_built_) throw std::logic_error("Network::send: routes not built");
  forward(std::move(p), p.src);
}

void Network::forward(Packet&& p, NodeId at) {
  if (at == p.dst) {
    nodes_[checked(at)]->deliver_local(std::move(p));
    return;
  }
  // Source-routed flows follow their pinned path (data direction only;
  // the reverse direction has no entry at these nodes and falls through).
  if (!pinned_.empty() && p.type == PacketType::kData) {
    const auto fit = pinned_.find(p.flow);
    if (fit != pinned_.end()) {
      const auto hit = fit->second.find(at);
      if (hit != fit->second.end()) {
        (void)links_[hit->second.index()]->enqueue(
            std::move(p));
        return;
      }
    }
  }
  const NodeId nh = next_hop(at, p.dst);
  if (nh == kInvalidNode) {
    SCDA_LOG_WARN("network: no route from %d to %d, packet dropped",
                  at.value(), p.dst.value());
    return;
  }
  const LinkId lid = link_between(at, nh);
  // Drop-tail: enqueue may refuse the packet; loss is recovered by the
  // transport layer, exactly as in the real network.
  (void)links_[lid.index()]->enqueue(std::move(p));
}

}  // namespace scda::net
