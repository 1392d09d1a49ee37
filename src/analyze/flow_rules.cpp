// P+F-rules: the cross-module tag-flow graph.
//
// Every kTag* constant declared anywhere in the tree gets its use sites
// classified as send (send/post call, or `tag = kTagX` message
// construction), recv (recv*/comparison/case dispatch), or other
// (reliable-tag lists, fault windows, log text). The rules:
//
//   P001 — declared but never referenced: dead protocol surface.
//   P002 — referenced but never examined on the receive side.
//   F001 — examined on the receive side but with no send site anywhere:
//          the dispatch arm is unreachable.
//   F002 — endpoint asymmetry: a tag sent from inside a configured
//          master/slave pair must be received inside the same pair, and
//          vice versa. Self-loops (slave -> slave work movement) count.
#include <algorithm>
#include <cctype>
#include <string>
#include <vector>

#include "analyze/rules.hpp"

namespace nowlb::analyze {

namespace {

/// One reference to a kTag* constant, classified by wire direction.
struct TagSite {
  enum Kind {
    Send,   // send/post call, or `tag = kTagX` message construction
    Recv,   // recv*/try_recv/case/== or != comparison
    Other,  // any other mention (reliable-tag lists, fault windows, ...)
  };
  Kind kind = Other;
  std::string file;
  int line = 0;
};

struct TagDecl {
  std::string name;
  std::string file;  // declaring file
  int line = 0;
  std::vector<TagSite> sites;
};

bool ident_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

/// First identifier at or after `i`; advances `i` past it.
std::string next_ident(const std::string& s, std::size_t& i) {
  while (i < s.size() && !ident_char(s[i])) ++i;
  const std::size_t b = i;
  while (i < s.size() && ident_char(s[i])) ++i;
  return s.substr(b, i - b);
}

bool is_tag_name(const std::string& id) {
  return id.size() > 4 && id.compare(0, 4, "kTag") == 0 &&
         std::isupper(static_cast<unsigned char>(id[4]));
}

/// All kTag* identifiers on a line.
void extract_tags(const std::string& line, std::vector<std::string>& ids) {
  std::size_t i = 0;
  for (;;) {
    const std::string id = next_ident(line, i);
    if (id.empty()) break;
    if (is_tag_name(id)) ids.push_back(id);
  }
}

/// Classify one line's wire direction for tag-flow purposes.
TagSite::Kind classify_tag_line(const std::string& line) {
  // Receive side: a recv-family call, a comparison, or a switch case.
  if (line.find("recv") != std::string::npos ||
      line.find("==") != std::string::npos ||
      line.find("!=") != std::string::npos ||
      find_ident(line, "case") != std::string::npos)
    return TagSite::Recv;
  // Send side: a send/post call, or message construction `tag = kTagX`.
  if (find_ident(line, "send") != std::string::npos ||
      find_ident(line, "post") != std::string::npos)
    return TagSite::Send;
  const std::size_t tp = find_ident(line, "tag");
  if (tp != std::string::npos) {
    const std::size_t after = line.find_first_not_of(" \t", tp + 3);
    if (after != std::string::npos && line[after] == '=' &&
        (after + 1 >= line.size() || line[after + 1] != '='))
      return TagSite::Send;
  }
  return TagSite::Other;
}

/// Every kTag* declaration with its classified use sites, sorted by name.
std::vector<TagDecl> scan_tags(const std::vector<ScannedFile>& files) {
  std::vector<TagDecl> tags;
  auto find_tag = [&](const std::string& name) -> TagDecl* {
    for (auto& t : tags)
      if (t.name == name) return &t;
    return nullptr;
  };

  // Pass 1: declarations — `constexpr ... Tag kTagX = ...`.
  for (const auto& f : files) {
    for (int li = 0; li < f.line_count(); ++li) {
      const std::string& line = f.code[li];
      if (find_ident(line, "constexpr") == std::string::npos) continue;
      if (find_ident(line, "Tag") == std::string::npos) continue;
      std::vector<std::string> ids;
      extract_tags(line, ids);
      for (const auto& id : ids) {
        if (find_tag(id)) continue;
        TagDecl t;
        t.name = id;
        t.file = f.rel_path;
        t.line = li + 1;
        tags.push_back(std::move(t));
      }
    }
  }

  // Pass 2: classified use sites. Physical lines are joined into
  // paren-balanced logical statements first, so a tag on the continuation
  // line of a multi-line `ctx.send(...)` call still classifies as a send.
  // A line ending in '{' terminates the join (a lambda or function body
  // is starting — its statements classify on their own), as does an
  // 8-line window: both keep a multi-hundred-line lambda argument from
  // collapsing into one statement.
  for (const auto& f : files) {
    int li = 0;
    while (li < f.line_count()) {
      const int stmt_begin = li;
      std::string stmt = f.code[li];
      int depth = 0;
      auto count = [&depth](const std::string& line) {
        for (char c : line) {
          if (c == '(') ++depth;
          if (c == ')') --depth;
        }
      };
      auto opens_block = [](const std::string& line) {
        const auto last = line.find_last_not_of(" \t");
        return last != std::string::npos && line[last] == '{';
      };
      count(stmt);
      while (depth > 0 && li + 1 < f.line_count() &&
             li - stmt_begin < 8 && !opens_block(f.code[li])) {
        ++li;
        stmt += ' ';
        stmt += f.code[li];
        count(f.code[li]);
      }
      const int stmt_end = li;
      ++li;

      std::vector<std::string> ids;
      extract_tags(stmt, ids);
      if (ids.empty()) continue;
      const TagSite::Kind kind = classify_tag_line(stmt);
      // Anchor each tag at the physical line that names it.
      for (int pl = stmt_begin; pl <= stmt_end; ++pl) {
        std::vector<std::string> line_ids;
        extract_tags(f.code[pl], line_ids);
        for (const auto& id : line_ids) {
          TagDecl* t = find_tag(id);
          if (!t) continue;
          if (t->file == f.rel_path && t->line == pl + 1) continue;  // decl
          TagSite site;
          site.file = f.rel_path;
          site.line = pl + 1;
          site.kind = kind;
          t->sites.push_back(site);
        }
      }
    }
  }
  std::sort(tags.begin(), tags.end(),
            [](const TagDecl& a, const TagDecl& b) { return a.name < b.name; });
  return tags;
}

Finding make(const Rule* r, const TagDecl& t, int line, std::string key,
             std::string message) {
  Finding fd;
  fd.rule = r;
  fd.rel_path = t.file;
  fd.line = line;
  fd.key = std::move(key);
  fd.message = std::move(message);
  return fd;
}

int count_kind(const TagDecl& t, TagSite::Kind k) {
  int n = 0;
  for (const auto& s : t.sites)
    if (s.kind == k) ++n;
  return n;
}

}  // namespace

void run_flow_rules(const std::vector<ScannedFile>& files,
                    const RuleConfig& cfg, std::vector<Finding>& out) {
  const Rule* p001 = rule_by_name(kRuleTagUnhandled);
  const Rule* p002 = rule_by_name(kRuleTagNoRecv);
  const Rule* f001 = rule_by_name(kRuleTagNoOrigin);
  const Rule* f002 = rule_by_name(kRuleTagAsym);

  for (const TagDecl& t : scan_tags(files)) {
    const int sends = count_kind(t, TagSite::Send);
    const int recvs = count_kind(t, TagSite::Recv);

    if (t.sites.empty()) {
      out.push_back(make(p001, t, t.line, t.name,
                         "message tag " + t.name +
                             " is declared but never dispatched"));
      continue;
    }
    if (recvs == 0) {
      out.push_back(make(
          p002, t, t.line, t.name,
          "message tag " + t.name +
              " is sent but never examined on the receive side"));
      continue;
    }
    if (sends == 0) {
      // Anchor at the first recv site: that's the unreachable dispatch.
      const TagSite* first = nullptr;
      for (const auto& s : t.sites)
        if (s.kind == TagSite::Recv) {
          first = &s;
          break;
        }
      Finding fd;
      fd.rule = f001;
      fd.rel_path = first->file;
      fd.line = first->line;
      fd.key = t.name;
      fd.message = "message tag " + t.name + " is received (" + first->file +
                   ":" + std::to_string(first->line) +
                   ") but nothing ever sends it";
      out.push_back(std::move(fd));
      continue;
    }

    // F002: per endpoint pair, a within-pair send needs a within-pair
    // recv and vice versa.
    for (const auto& [a, b] : cfg.endpoint_pairs) {
      auto in_pair = [&](const TagSite& s) {
        return s.file == a || s.file == b;
      };
      int pair_sends = 0, pair_recvs = 0;
      const TagSite* anchor = nullptr;
      for (const auto& s : t.sites) {
        if (!in_pair(s)) continue;
        if (s.kind == TagSite::Send) {
          ++pair_sends;
          if (!anchor) anchor = &s;
        } else if (s.kind == TagSite::Recv) {
          ++pair_recvs;
          if (!anchor) anchor = &s;
        }
      }
      if (pair_sends == 0 && pair_recvs == 0) continue;  // not their tag
      if (pair_sends > 0 && pair_recvs == 0) {
        Finding fd;
        fd.rule = f002;
        fd.rel_path = anchor->file;
        fd.line = anchor->line;
        fd.key = t.name + "@" + a;
        fd.message = "tag " + t.name + " is sent inside the endpoint pair (" +
                     a + ", " + b + ") but never received there";
        out.push_back(std::move(fd));
      } else if (pair_recvs > 0 && pair_sends == 0) {
        Finding fd;
        fd.rule = f002;
        fd.rel_path = anchor->file;
        fd.line = anchor->line;
        fd.key = t.name + "@" + a;
        fd.message = "tag " + t.name +
                     " is received inside the endpoint pair (" + a + ", " + b +
                     ") but never sent there";
        out.push_back(std::move(fd));
      }
    }
  }
}

}  // namespace nowlb::analyze
