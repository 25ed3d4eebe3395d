#include "lms/tsdb/trace_assembly.hpp"

#include <algorithm>
#include <cstdio>
#include <functional>
#include <map>

#include "lms/json/json.hpp"
#include "lms/obs/trace.hpp"

namespace lms::tsdb {

namespace {

/// Decode one exported span record (the "span" field JSON). Returns false
/// on malformed input — the caller counts, assembly continues.
bool decode_span(const std::string& text, TraceNode& out) {
  auto parsed = json::parse(text);
  if (!parsed.ok() || !parsed->is_object()) return false;
  const json::Object& o = parsed->get_object();
  const json::Value* span_id = o.find("span_id");
  if (span_id == nullptr || !span_id->is_string()) return false;
  const auto id = obs::parse_trace_id_hex(span_id->get_string());
  if (!id || *id == 0) return false;
  out.span_id = *id;
  if (const json::Value* p = o.find("parent"); p != nullptr && p->is_string()) {
    out.parent_span_id = obs::parse_trace_id_hex(p->get_string()).value_or(0);
  }
  if (const json::Value* v = o.find("name")) out.name = v->as_string();
  if (const json::Value* v = o.find("start_ns")) out.start_ns = v->as_int();
  if (const json::Value* v = o.find("duration_ns")) out.duration_ns = v->as_int();
  if (const json::Value* v = o.find("ok")) out.ok = v->as_bool(true);
  if (const json::Value* v = o.find("note")) out.note = v->as_string();
  return true;
}

/// Post-order finish: sort children by start, then derive the gap analysis
/// from the merged child intervals clamped to the parent's own window.
void finish_node(TraceNode& node) {
  std::sort(node.children.begin(), node.children.end(),
            [](const TraceNode& a, const TraceNode& b) {
              if (a.start_ns != b.start_ns) return a.start_ns < b.start_ns;
              return a.span_id < b.span_id;
            });
  for (TraceNode& c : node.children) finish_node(c);

  const TimeNs lo = node.start_ns;
  const TimeNs hi = node.start_ns + std::max<std::int64_t>(node.duration_ns, 0);
  std::vector<std::pair<TimeNs, TimeNs>> merged;
  for (const TraceNode& c : node.children) {
    TimeNs b = std::max(c.start_ns, lo);
    TimeNs e = std::min<TimeNs>(c.start_ns + std::max<std::int64_t>(c.duration_ns, 0), hi);
    if (e <= b) continue;
    if (!merged.empty() && b <= merged.back().second) {
      merged.back().second = std::max(merged.back().second, e);
    } else {
      merged.emplace_back(b, e);
    }
  }
  std::int64_t covered = 0;
  std::int64_t largest_gap = 0;
  TimeNs cursor = lo;
  for (const auto& [b, e] : merged) {
    largest_gap = std::max<std::int64_t>(largest_gap, b - cursor);
    covered += e - b;
    cursor = e;
  }
  if (!merged.empty()) largest_gap = std::max<std::int64_t>(largest_gap, hi - cursor);
  node.self_ns = std::max<std::int64_t>(node.duration_ns - covered, 0);
  node.largest_gap_ns = node.children.empty() ? 0 : largest_gap;
}

}  // namespace

TraceTree assemble_trace(const ReadSnapshot& snapshot, std::uint64_t trace_id,
                         std::string_view measurement) {
  TraceTree tree;
  tree.trace_id = trace_id;
  if (!snapshot) return tree;

  // 1. Decode: the trace_id tag makes this a tag-index lookup, not a scan.
  std::vector<TraceNode> nodes;
  const std::vector<Tag> required = {{"trace_id", obs::trace_id_hex(trace_id)}};
  for (const Series* s : snapshot->series_matching(measurement, required)) {
    const auto cit = s->columns.find("span");
    if (cit == s->columns.end()) continue;
    const Column& spans = cit->second;
    if (spans.type() != Column::Type::kString) {
      tree.malformed_spans += spans.size();
      continue;
    }
    for (const std::string& record : spans.strings()) {
      TraceNode node;
      if (!decode_span(record, node)) {
        ++tree.malformed_spans;
        continue;
      }
      node.component = std::string(s->tag("component"));
      node.host = std::string(s->tag("host"));
      nodes.push_back(std::move(node));
    }
  }
  tree.span_count = nodes.size();
  if (nodes.empty()) return tree;

  // 2. Attach children to parents by span id (first occurrence wins when a
  // span was exported twice, e.g. a replayed spool batch).
  std::map<std::uint64_t, std::size_t> by_id;
  for (std::size_t i = 0; i < nodes.size(); ++i) by_id.emplace(nodes[i].span_id, i);
  std::vector<std::vector<std::size_t>> children(nodes.size());
  std::vector<std::size_t> root_indices;
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    const std::uint64_t parent = nodes[i].parent_span_id;
    const auto pit = parent != 0 ? by_id.find(parent) : by_id.end();
    if (pit == by_id.end() || pit->second == i) {
      nodes[i].orphan = parent != 0;
      root_indices.push_back(i);
    } else {
      children[pit->second].push_back(i);
    }
  }

  // 3. Materialize depth-first. The visited set breaks parent cycles that a
  // malformed export could produce; anything left unreached afterwards is
  // appended as an orphan root so no stored span silently disappears.
  std::vector<bool> visited(nodes.size(), false);
  // NOLINTNEXTLINE(misc-no-recursion)
  const std::function<TraceNode(std::size_t)> materialize = [&](std::size_t i) {
    visited[i] = true;
    TraceNode node = std::move(nodes[i]);
    for (const std::size_t c : children[i]) {
      if (!visited[c]) node.children.push_back(materialize(c));
    }
    return node;
  };
  for (const std::size_t r : root_indices) {
    if (!visited[r]) tree.roots.push_back(materialize(r));
  }
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    if (!visited[i]) {
      TraceNode node = materialize(i);
      node.orphan = true;
      tree.roots.push_back(std::move(node));
    }
  }
  std::sort(tree.roots.begin(), tree.roots.end(),
            [](const TraceNode& a, const TraceNode& b) {
              if (a.start_ns != b.start_ns) return a.start_ns < b.start_ns;
              return a.span_id < b.span_id;
            });
  for (TraceNode& r : tree.roots) finish_node(r);
  return tree;
}

namespace {

json::Object node_to_json(const TraceNode& node) {
  json::Object o;
  o["span_id"] = obs::trace_id_hex(node.span_id);
  if (node.parent_span_id != 0) o["parent"] = obs::trace_id_hex(node.parent_span_id);
  o["name"] = node.name;
  o["component"] = node.component;
  if (!node.host.empty()) o["host"] = node.host;
  o["start_ns"] = static_cast<std::int64_t>(node.start_ns);
  o["duration_ns"] = node.duration_ns;
  o["self_ns"] = node.self_ns;
  if (node.largest_gap_ns > 0) o["largest_gap_ns"] = node.largest_gap_ns;
  o["ok"] = node.ok;
  if (!node.note.empty()) o["note"] = node.note;
  if (node.orphan) o["orphan"] = true;
  json::Array kids;
  for (const TraceNode& c : node.children) kids.emplace_back(node_to_json(c));
  o["children"] = std::move(kids);
  return o;
}

std::string format_ns(std::int64_t ns) {
  char buf[48];
  if (ns >= 1000000000) {
    std::snprintf(buf, sizeof(buf), "%.2fs", static_cast<double>(ns) / 1e9);
  } else if (ns >= 1000000) {
    std::snprintf(buf, sizeof(buf), "%.2fms", static_cast<double>(ns) / 1e6);
  } else if (ns >= 1000) {
    std::snprintf(buf, sizeof(buf), "%.1fus", static_cast<double>(ns) / 1e3);
  } else {
    std::snprintf(buf, sizeof(buf), "%lldns", static_cast<long long>(ns));
  }
  return buf;
}

void append_waterfall(std::string& out, const TraceNode& node, std::size_t depth, TimeNs t0,
                      std::int64_t total_ns) {
  static constexpr std::size_t kBarWidth = 32;
  // Bar: the span's [start, end) window mapped onto the whole trace.
  std::string bar(kBarWidth, ' ');
  if (total_ns > 0) {
    const double scale = static_cast<double>(kBarWidth) / static_cast<double>(total_ns);
    std::size_t b = static_cast<std::size_t>(static_cast<double>(node.start_ns - t0) * scale);
    std::size_t e = static_cast<std::size_t>(
        static_cast<double>(node.start_ns - t0 + std::max<std::int64_t>(node.duration_ns, 0)) *
        scale);
    b = std::min(b, kBarWidth - 1);
    e = std::min(std::max(e, b + 1), kBarWidth);
    for (std::size_t i = b; i < e; ++i) bar[i] = '#';
  }
  out += '|';
  out += bar;
  out += "| ";
  out.append(2 * depth, ' ');
  out += node.name;
  out += " (";
  out += node.component;
  if (!node.host.empty()) {
    out += '@';
    out += node.host;
  }
  out += ") ";
  out += format_ns(node.duration_ns);
  if (node.self_ns > 0 && !node.children.empty()) {
    out += " self=";
    out += format_ns(node.self_ns);
  }
  if (!node.ok) out += " ERROR";
  if (!node.note.empty()) {
    out += " [";
    out += node.note;
    out += ']';
  }
  if (node.orphan) out += " (orphan)";
  out += '\n';
  for (const TraceNode& c : node.children) {
    append_waterfall(out, c, depth + 1, t0, total_ns);
  }
}

void trace_extent(const TraceNode& node, TimeNs& t0, TimeNs& t1) {
  t0 = std::min(t0, node.start_ns);
  t1 = std::max<TimeNs>(t1, node.start_ns + std::max<std::int64_t>(node.duration_ns, 0));
  for (const TraceNode& c : node.children) trace_extent(c, t0, t1);
}

}  // namespace

std::string trace_tree_to_json(const TraceTree& tree) {
  json::Object top;
  top["trace_id"] = obs::trace_id_hex(tree.trace_id);
  top["span_count"] = static_cast<std::int64_t>(tree.span_count);
  if (tree.malformed_spans > 0) {
    top["malformed_spans"] = static_cast<std::int64_t>(tree.malformed_spans);
  }
  json::Array roots;
  for (const TraceNode& r : tree.roots) roots.emplace_back(node_to_json(r));
  top["roots"] = std::move(roots);
  return json::Value(std::move(top)).dump();
}

std::string trace_tree_to_waterfall(const TraceTree& tree) {
  std::string out = "trace " + obs::trace_id_hex(tree.trace_id) + " — " +
                    std::to_string(tree.span_count) + " spans\n";
  if (tree.roots.empty()) return out;
  TimeNs t0 = tree.roots.front().start_ns;
  TimeNs t1 = t0;
  for (const TraceNode& r : tree.roots) trace_extent(r, t0, t1);
  const std::int64_t total = t1 - t0;
  out += "total ";
  out += format_ns(total);
  out += '\n';
  for (const TraceNode& r : tree.roots) append_waterfall(out, r, 0, t0, total);
  return out;
}

}  // namespace lms::tsdb
