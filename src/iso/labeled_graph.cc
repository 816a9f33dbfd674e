#include "iso/labeled_graph.h"

#include <algorithm>
#include <deque>

#include "common/logging.h"

namespace ntsg {

std::vector<TxName> CanonicalCycleRotation(const std::vector<TxName>& nodes) {
  if (nodes.empty()) return nodes;
  size_t k = std::min_element(nodes.begin(), nodes.end()) - nodes.begin();
  std::vector<TxName> rot;
  rot.reserve(nodes.size());
  rot.insert(rot.end(), nodes.begin() + k, nodes.end());
  rot.insert(rot.end(), nodes.begin(), nodes.begin() + k);
  return rot;
}

LabeledSg::LabeledSg(const std::vector<LabeledSiblingEdge>& conflict,
                     const std::vector<SiblingEdge>& precedes) {
  // Merge the two sorted relations into one edge table keyed by the sibling
  // edge; both inputs carry the canonical (parent, from, to) order, so the
  // merged table (and every adjacency list) inherits it.
  std::map<SiblingEdge, IsoEdge> merged;
  for (const LabeledSiblingEdge& e : conflict) {
    IsoEdge& iso = merged[e.edge];
    iso.edge = e.edge;
    iso.conflict = true;
    iso.kinds = e.label.kinds;
    iso.object = e.label.object;
  }
  for (const SiblingEdge& e : precedes) {
    IsoEdge& iso = merged[e];
    iso.edge = e;
    iso.precedes = true;
  }

  edges_.reserve(merged.size());
  for (const auto& [edge, iso] : merged) {
    uint32_t idx = static_cast<uint32_t>(edges_.size());
    edges_.push_back(iso);
    adj_[edge.from].push_back(idx);
    adj_.try_emplace(edge.to);  // sinks still need a node entry
    by_endpoints_[{edge.from, edge.to}] = idx;
    if (iso.conflict) ++conflict_count_;
    if (iso.precedes) ++precedes_count_;
    if (iso.anti_only()) ++anti_count_;
  }
}

LabeledSg LabeledSg::Build(const SystemType& type, const Trace& beta,
                           ConflictMode mode) {
  Trace serial = SerialPart(beta);
  return LabeledSg(LabeledConflictRelation(type, serial, mode),
                   PrecedesRelation(type, serial));
}

const IsoEdge* LabeledSg::FindEdge(TxName from, TxName to) const {
  auto it = by_endpoints_.find({from, to});
  return it == by_endpoints_.end() ? nullptr : &edges_[it->second];
}

std::optional<std::vector<TxName>> LabeledSg::FindCycleWhere(
    bool include_anti) const {
  // Iterative DFS, white/gray/black. A gray target closes a cycle; the gray
  // stack prefix from that target is the witness.
  std::map<TxName, int> color;
  for (const auto& [n, _] : adj_) color[n] = 0;

  struct Frame {
    TxName node;
    size_t next;
  };
  for (const auto& [root, _] : adj_) {
    if (color[root] != 0) continue;
    std::vector<Frame> stack;
    stack.push_back(Frame{root, 0});
    color[root] = 1;
    while (!stack.empty()) {
      Frame f = stack.back();
      const std::vector<uint32_t>& out = adj_.at(f.node);
      if (f.next >= out.size()) {
        color[f.node] = 2;
        stack.pop_back();
        continue;
      }
      ++stack.back().next;
      const IsoEdge& e = edges_[out[f.next]];
      if (!include_anti && e.anti_only()) continue;
      TxName m = e.edge.to;
      if (color[m] == 1) {
        size_t k = stack.size();
        while (k > 0 && stack[k - 1].node != m) --k;
        NTSG_CHECK(k > 0);
        std::vector<TxName> cycle;
        for (size_t i = k - 1; i < stack.size(); ++i) {
          cycle.push_back(stack[i].node);
        }
        return CanonicalCycleRotation(cycle);
      }
      if (color[m] == 0) {
        color[m] = 1;
        stack.push_back(Frame{m, 0});
      }
    }
  }
  return std::nullopt;
}

std::vector<TxName> LabeledSg::NonAntiPath(TxName from, TxName to) const {
  if (from == to) return {from};
  std::map<TxName, TxName> parent;
  std::deque<TxName> queue;
  parent[from] = from;
  queue.push_back(from);
  while (!queue.empty()) {
    TxName n = queue.front();
    queue.pop_front();
    auto it = adj_.find(n);
    if (it == adj_.end()) continue;
    for (uint32_t idx : it->second) {
      const IsoEdge& e = edges_[idx];
      if (e.anti_only()) continue;
      TxName m = e.edge.to;
      if (parent.count(m) != 0) continue;
      parent[m] = n;
      if (m == to) {
        std::vector<TxName> path;
        for (TxName p = to; p != from; p = parent[p]) path.push_back(p);
        path.push_back(from);
        std::reverse(path.begin(), path.end());
        return path;
      }
      queue.push_back(m);
    }
  }
  return {};
}

std::vector<TxName> LabeledSg::AnyPath(TxName from, TxName to) const {
  if (from == to) return {from};
  std::map<TxName, TxName> parent;
  std::deque<TxName> queue;
  parent[from] = from;
  queue.push_back(from);
  while (!queue.empty()) {
    TxName n = queue.front();
    queue.pop_front();
    auto it = adj_.find(n);
    if (it == adj_.end()) continue;
    for (uint32_t idx : it->second) {
      TxName m = edges_[idx].edge.to;
      if (parent.count(m) != 0) continue;
      parent[m] = n;
      if (m == to) {
        std::vector<TxName> path;
        for (TxName p = to; p != from; p = parent[p]) path.push_back(p);
        path.push_back(from);
        std::reverse(path.begin(), path.end());
        return path;
      }
      queue.push_back(m);
    }
  }
  return {};
}

std::optional<std::vector<TxName>> LabeledSg::FindDependencyCycle() const {
  return FindCycleWhere(/*include_anti=*/false);
}

std::optional<std::vector<TxName>> LabeledSg::FindSingleAntiCycle() const {
  // With no dependency-only cycle (the caller checked), a cycle has exactly
  // one anti edge iff some anti edge (u, v) closes against a non-anti path
  // v ->* u. Scanning anti edges in canonical order keeps the witness
  // stable.
  for (const IsoEdge& e : edges_) {
    if (!e.anti_only()) continue;
    std::vector<TxName> path = NonAntiPath(e.edge.to, e.edge.from);
    if (path.empty()) continue;
    std::vector<TxName> cycle;
    cycle.push_back(e.edge.from);
    cycle.insert(cycle.end(), path.begin(), path.end() - 1);
    return CanonicalCycleRotation(cycle);
  }
  return std::nullopt;
}

std::optional<std::vector<TxName>> LabeledSg::FindAdjacentAntiWalk() const {
  // Two cyclically consecutive anti edges are u -> v -> w (both anti) plus
  // any return path w ->* u; u == w is the all-anti 2-cycle. The walk may
  // revisit nodes, so this cannot be phrased as a simple-cycle search.
  std::map<TxName, std::vector<TxName>> in_anti, out_anti;
  for (const IsoEdge& e : edges_) {
    if (!e.anti_only()) continue;
    out_anti[e.edge.from].push_back(e.edge.to);
    in_anti[e.edge.to].push_back(e.edge.from);
  }
  for (const auto& [v, sources] : in_anti) {
    auto out_it = out_anti.find(v);
    if (out_it == out_anti.end()) continue;
    for (TxName u : sources) {
      for (TxName w : out_it->second) {
        if (u == w) return std::vector<TxName>{u, v};
        std::vector<TxName> path = AnyPath(w, u);
        if (path.empty()) continue;
        std::vector<TxName> walk;
        walk.push_back(u);
        walk.push_back(v);
        walk.insert(walk.end(), path.begin(), path.end() - 1);
        return walk;  // no rotation: callers rely on the anti pair leading
      }
    }
  }
  return std::nullopt;
}

std::optional<std::vector<TxName>> LabeledSg::FindAnyCycle() const {
  return FindCycleWhere(/*include_anti=*/true);
}

}  // namespace ntsg
