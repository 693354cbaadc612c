#include "obs/report.hh"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "common/stats.hh"

namespace csd
{
namespace obs
{

namespace
{

std::string
lower(const std::string &s)
{
    std::string out = s;
    for (char &c : out)
        c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
    return out;
}

void
flattenInto(const minijson::JsonValue &v, const std::string &prefix,
            bool top_level, std::map<std::string, double> &out)
{
    using Kind = minijson::JsonValue::Kind;
    switch (v.kind) {
      case Kind::Number:
        if (!prefix.empty())
            out[prefix] = v.number;
        return;
      case Kind::Object: {
        // {"value": N, "desc": "..."} stat leaves collapse to N.
        if (v.has("value") && v.at("value").isNumber() &&
            v.fields.size() <= 2 &&
            (v.fields.size() == 1 || v.has("desc"))) {
            if (!prefix.empty())
                out[prefix] = v.at("value").number;
            return;
        }
        for (const auto &[key, child] : v.fields) {
            if (top_level && key == "manifest")
                continue;
            // Stat-tree child groups splice their names directly into
            // the path instead of a "groups.<index>" segment.
            if (key == "groups" && child->isArray()) {
                bool all_named = !child->items.empty();
                for (const auto &item : child->items)
                    all_named = all_named && item->isObject() &&
                                item->has("name") &&
                                item->at("name").isString();
                if (all_named) {
                    for (const auto &item : child->items) {
                        const std::string &name = item->at("name").str;
                        flattenInto(*item,
                                    prefix.empty() ? name
                                                   : prefix + "." + name,
                                    false, out);
                    }
                    continue;
                }
            }
            flattenInto(*child,
                        prefix.empty() ? key : prefix + "." + key, false,
                        out);
        }
        return;
      }
      case Kind::Array: {
        for (std::size_t i = 0; i < v.items.size(); ++i) {
            flattenInto(*v.items[i],
                        prefix + "[" + std::to_string(i) + "]", false,
                        out);
        }
        return;
      }
      default:
        return;  // strings, bools, nulls are not diffable results
    }
}

} // namespace

void
flattenNumeric(const minijson::JsonValue &root, const std::string &prefix,
               std::map<std::string, double> &out)
{
    // A stat-tree root carries its own "name" ("sim"); drop it from
    // paths the way child "groups" names are spliced, keeping the
    // root's members at the top level.
    flattenInto(root, prefix, /*top_level=*/true, out);
}

std::string
classifyKey(const std::string &key)
{
    const std::string k = lower(key);
    if (k.find("cpi") != std::string::npos)
        return "cpi";
    if (k.find("energy") != std::string::npos ||
        k.find("_nj") != std::string::npos ||
        k.find("leakage") != std::string::npos)
        return "energy";
    if (k.find("channel") != std::string::npos ||
        k.find("leak") != std::string::npos ||
        k.find("stealth") != std::string::npos)
        return "channel";
    return "other";
}

std::vector<DiffRow>
diffStats(const std::map<std::string, double> &old_stats,
          const std::map<std::string, double> &new_stats)
{
    std::vector<DiffRow> rows;
    for (const auto &[key, old_value] : old_stats) {
        DiffRow row;
        row.key = key;
        row.kind = classifyKey(key);
        row.oldValue = old_value;
        auto it = new_stats.find(key);
        if (it == new_stats.end()) {
            row.onlyOld = true;
            row.delta = -old_value;
            row.pct = old_value != 0.0 ? -100.0 : 0.0;
        } else {
            row.newValue = it->second;
            row.delta = row.newValue - row.oldValue;
            if (row.delta == 0.0)
                continue;
            row.pct = row.oldValue != 0.0
                          ? 100.0 * row.delta / std::fabs(row.oldValue)
                          : 0.0;
        }
        rows.push_back(std::move(row));
    }
    for (const auto &[key, new_value] : new_stats) {
        if (old_stats.count(key))
            continue;
        DiffRow row;
        row.key = key;
        row.kind = classifyKey(key);
        row.newValue = new_value;
        row.onlyNew = true;
        row.delta = new_value;
        rows.push_back(std::move(row));
    }
    std::sort(rows.begin(), rows.end(),
              [](const DiffRow &a, const DiffRow &b) {
                  const double da = std::fabs(a.delta);
                  const double db = std::fabs(b.delta);
                  if (da != db)
                      return da > db;
                  const double pa = std::fabs(a.pct);
                  const double pb = std::fabs(b.pct);
                  if (pa != pb)
                      return pa > pb;
                  return a.key < b.key;  // deterministic order
              });
    return rows;
}

void
writeReport(std::ostream &os, const std::vector<DiffRow> &rows,
            std::size_t top, const std::string &kind)
{
    std::size_t shown = 0;
    std::size_t matched = 0;
    char buf[64];
    os << "  kind     old             new             delta        "
          "%       key\n";
    for (const DiffRow &row : rows) {
        if (!kind.empty() && row.kind != kind)
            continue;
        ++matched;
        if (top != 0 && shown >= top)
            continue;
        ++shown;
        os << "  " << row.kind;
        for (std::size_t i = row.kind.size(); i < 9; ++i)
            os << ' ';
        std::snprintf(buf, sizeof(buf), "%-15.6g %-15.6g %+-12.6g ",
                      row.oldValue, row.newValue, row.delta);
        os << buf;
        if (row.onlyOld)
            os << "gone    ";
        else if (row.onlyNew)
            os << "new     ";
        else {
            std::snprintf(buf, sizeof(buf), "%+-7.1f%%", row.pct);
            os << buf;
        }
        os << " " << row.key << "\n";
    }
    if (matched == 0) {
        os << "  (no differing statistics"
           << (kind.empty() ? "" : " of kind '" + kind + "'") << ")\n";
    } else if (shown < matched) {
        os << "  ... " << (matched - shown) << " more row"
           << (matched - shown == 1 ? "" : "s")
           << " (raise --top to see them)\n";
    }
}

void
writeReportJson(std::ostream &os, const std::string &old_path,
                const std::string &new_path,
                const std::vector<DiffRow> &rows, const std::string &kind)
{
    os << "{\"schema_version\": 1, \"old\": \"" << jsonEscape(old_path)
       << "\", \"new\": \"" << jsonEscape(new_path) << '"';
    if (!kind.empty())
        os << ", \"kind\": \"" << jsonEscape(kind) << '"';

    std::size_t matched = 0;
    for (const DiffRow &row : rows)
        matched += kind.empty() || row.kind == kind;
    os << ", \"differing\": " << matched << ", \"rows\": [";

    bool first = true;
    for (const DiffRow &row : rows) {
        if (!kind.empty() && row.kind != kind)
            continue;
        os << (first ? "" : ", ") << "{\"key\": \"" << jsonEscape(row.key)
           << "\", \"kind\": \"" << row.kind << "\", \"old\": "
           << row.oldValue << ", \"new\": " << row.newValue
           << ", \"delta\": " << row.delta << ", \"pct\": " << row.pct
           << ", \"status\": \""
           << (row.onlyOld ? "gone" : row.onlyNew ? "new" : "changed")
           << "\"}";
        first = false;
    }
    os << "]}\n";
}

std::map<std::string, double>
loadFlattened(const std::string &path)
{
    std::ifstream file(path);
    if (!file)
        throw std::runtime_error("cannot open '" + path + "'");
    std::ostringstream text;
    text << file.rdbuf();
    minijson::JsonPtr root = minijson::parseJson(text.str());
    std::map<std::string, double> out;
    flattenNumeric(*root, "", out);
    return out;
}

} // namespace obs
} // namespace csd
