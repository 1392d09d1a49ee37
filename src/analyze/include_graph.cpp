#include "analyze/include_graph.hpp"

#include <map>
#include <set>
#include <string>

namespace nowlb::analyze {

namespace {

const Rule* layer_rule() { return rule_by_name(kRuleLayer); }
const Rule* cycle_rule() { return rule_by_name(kRuleCycle); }

std::string module_of(const std::string& path) {
  return path.substr(0, path.find('/'));
}

}  // namespace

void run_layering_rules(const std::vector<ScannedFile>& files,
                        std::vector<Finding>& out) {
  std::map<std::string, const ScannedFile*> by_path;
  for (const auto& f : files) by_path[f.rel_path] = &f;

  // L001 — upward (or sideways cross-module) includes.
  const std::map<std::string, int>& ranks = layer_of();
  for (const auto& f : files) {
    const auto src_rank = ranks.find(f.module);
    for (const auto& inc : f.includes) {
      if (inc.angled || !by_path.count(inc.path)) continue;  // not ours
      const std::string dst_mod = module_of(inc.path);
      if (dst_mod == f.module) continue;
      const auto dst_rank = ranks.find(dst_mod);
      if (src_rank == ranks.end() || dst_rank == ranks.end())
        continue;  // unranked module: out of the layering contract
      if (dst_rank->second < src_rank->second) continue;  // downward: fine
      Finding fd;
      fd.rule = layer_rule();
      fd.rel_path = f.rel_path;
      fd.line = inc.line;
      fd.message = "layering violation: " + f.module + " (layer " +
                   std::to_string(src_rank->second) + ") includes " +
                   dst_mod + " (layer " + std::to_string(dst_rank->second) +
                   "): \"" + inc.path + "\"";
      out.push_back(std::move(fd));
    }
  }

  // L002 — cycles in the file-level graph, DFS with three colours. Each
  // cycle is reported once, anchored at the back-edge source, with the
  // full path in the message. Iteration over the sorted map keeps reports
  // deterministic.
  std::map<std::string, int> colour;  // 0 white, 1 grey, 2 black
  std::vector<std::string> stack;
  std::set<std::string> reported;

  auto dfs = [&](auto&& self, const std::string& node) -> void {
    colour[node] = 1;
    stack.push_back(node);
    const ScannedFile* f = by_path.at(node);
    for (const auto& inc : f->includes) {
      if (inc.angled || !by_path.count(inc.path)) continue;
      const int c = colour[inc.path];
      if (c == 0) {
        self(self, inc.path);
      } else if (c == 1) {
        // Back edge: node -> inc.path closes a cycle along the stack.
        std::string cyc;
        bool in = false;
        for (const auto& s : stack) {
          if (s == inc.path) in = true;
          if (in) cyc += s + " -> ";
        }
        cyc += inc.path;
        if (reported.insert(cyc).second) {
          Finding fd;
          fd.rule = cycle_rule();
          fd.rel_path = node;
          fd.line = inc.line;
          fd.message = "include cycle: " + cyc;
          out.push_back(std::move(fd));
        }
      }
    }
    stack.pop_back();
    colour[node] = 2;
  };

  for (const auto& [path, file] : by_path) {
    (void)file;
    if (colour[path] == 0) dfs(dfs, path);
  }
}

}  // namespace nowlb::analyze
