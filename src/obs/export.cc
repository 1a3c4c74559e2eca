#include "obs/export.h"

#include <algorithm>
#include <cctype>
#include <cinttypes>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace qf::obs {
namespace {

/// Appends printf-formatted text to `out`.
void Appendf(std::string* out, const char* fmt, ...)
    __attribute__((format(printf, 2, 3)));
void Appendf(std::string* out, const char* fmt, ...) {
  char buf[512];
  va_list args;
  va_start(args, fmt);
  const int n = std::vsnprintf(buf, sizeof(buf), fmt, args);
  va_end(args);
  if (n > 0) {
    out->append(buf, std::min(static_cast<size_t>(n), sizeof(buf) - 1));
  }
}

/// Escapes a string for a JSON or Prometheus HELP context.
std::string Escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default: out += c;
    }
  }
  return out;
}

/// Formats a label body plus extra labels into `{...}` (or "" when empty).
std::string LabelBlock(const std::string& body, const std::string& extra) {
  if (body.empty() && extra.empty()) return "";
  std::string out = "{";
  out += body;
  if (!body.empty() && !extra.empty()) out += ",";
  out += extra;
  out += "}";
  return out;
}

const char* QuantileLabel(double q) {
  if (q == 0.5) return "0.5";
  if (q == 0.9) return "0.9";
  if (q == 0.99) return "0.99";
  if (q == 0.999) return "0.999";
  return "1";
}

}  // namespace

ParsedName SplitMetricName(std::string_view name) {
  ParsedName out;
  const size_t brace = name.find('{');
  if (brace == std::string_view::npos) {
    out.base = std::string(name);
    return out;
  }
  out.base = std::string(name.substr(0, brace));
  std::string_view rest = name.substr(brace + 1);
  if (!rest.empty() && rest.back() == '}') rest.remove_suffix(1);
  out.labels = std::string(rest);
  return out;
}

std::string RenderPrometheus(const MetricsSnapshot& snapshot) {
  std::string out;
  out.reserve(4096);

  auto emit_header = [&out](std::string* last_base, const std::string& base,
                            const std::string& help, const char* type) {
    if (*last_base == base) return;
    *last_base = base;
    if (!help.empty()) {
      Appendf(&out, "# HELP %s %s\n", base.c_str(), Escape(help).c_str());
    }
    Appendf(&out, "# TYPE %s %s\n", base.c_str(), type);
  };

  std::string last_base;
  for (const CounterSample& c : snapshot.counters) {
    const ParsedName n = SplitMetricName(c.name);
    emit_header(&last_base, n.base, c.help, "counter");
    Appendf(&out, "%s%s %" PRIu64 "\n", n.base.c_str(),
            LabelBlock(n.labels, "").c_str(), c.value);
  }
  last_base.clear();
  for (const GaugeSample& g : snapshot.gauges) {
    const ParsedName n = SplitMetricName(g.name);
    emit_header(&last_base, n.base, g.help, "gauge");
    Appendf(&out, "%s%s %" PRId64 "\n", n.base.c_str(),
            LabelBlock(n.labels, "").c_str(), g.value);
  }
  // Histograms export as summaries. Samples sharing a base name (per-shard
  // label variants) must be contiguous under one TYPE header, so sort a
  // view by base first.
  std::vector<const HistogramSample*> hists;
  hists.reserve(snapshot.histograms.size());
  for (const HistogramSample& h : snapshot.histograms) hists.push_back(&h);
  std::stable_sort(hists.begin(), hists.end(),
                   [](const HistogramSample* a, const HistogramSample* b) {
                     return SplitMetricName(a->name).base <
                            SplitMetricName(b->name).base;
                   });
  last_base.clear();
  for (const HistogramSample* h : hists) {
    const ParsedName n = SplitMetricName(h->name);
    emit_header(&last_base, n.base, h->help, "summary");
    for (double q : kExportQuantiles) {
      std::string extra = "quantile=\"";
      extra += QuantileLabel(q);
      extra += "\"";
      Appendf(&out, "%s%s %" PRIu64 "\n", n.base.c_str(),
              LabelBlock(n.labels, extra).c_str(), h->data.Quantile(q));
    }
    Appendf(&out, "%s_sum%s %" PRIu64 "\n", n.base.c_str(),
            LabelBlock(n.labels, "").c_str(), h->data.sum());
    Appendf(&out, "%s_count%s %" PRIu64 "\n", n.base.c_str(),
            LabelBlock(n.labels, "").c_str(), h->data.count());
  }
  return out;
}

std::string RenderJsonLine(const MetricsSnapshot& snapshot) {
  std::string out;
  out.reserve(2048);
  Appendf(&out, "{\"ts_ns\":%" PRIu64 ",\"mono_ns\":%" PRIu64, snapshot.wall_ns,
          snapshot.mono_ns);
  out += ",\"counters\":{";
  for (size_t i = 0; i < snapshot.counters.size(); ++i) {
    const CounterSample& c = snapshot.counters[i];
    Appendf(&out, "%s\"%s\":%" PRIu64, i == 0 ? "" : ",",
            Escape(c.name).c_str(), c.value);
  }
  out += "},\"gauges\":{";
  for (size_t i = 0; i < snapshot.gauges.size(); ++i) {
    const GaugeSample& g = snapshot.gauges[i];
    Appendf(&out, "%s\"%s\":%" PRId64, i == 0 ? "" : ",",
            Escape(g.name).c_str(), g.value);
  }
  out += "},\"histograms\":{";
  for (size_t i = 0; i < snapshot.histograms.size(); ++i) {
    const HistogramSample& h = snapshot.histograms[i];
    Appendf(&out, "%s\"%s\":{\"count\":%" PRIu64 ",\"sum\":%" PRIu64
                  ",\"max\":%" PRIu64 ",\"mean\":%.3f",
            i == 0 ? "" : ",", Escape(h.name).c_str(), h.data.count(),
            h.data.sum(), h.data.max(), h.data.Mean());
    for (double q : kExportQuantiles) {
      Appendf(&out, ",\"p%s\":%" PRIu64, QuantileLabel(q),
              h.data.Quantile(q));
    }
    out += "}";
  }
  out += "}}\n";
  return out;
}

// ---------------------------------------------------------------------------
// JSON parser.

namespace {

struct JsonCursor {
  std::string_view text;
  size_t pos = 0;
  std::string error;

  bool Fail(const std::string& message) {
    if (error.empty()) {
      error = message + " at offset " + std::to_string(pos);
    }
    return false;
  }
  void SkipWs() {
    while (pos < text.size() &&
           std::isspace(static_cast<unsigned char>(text[pos]))) {
      ++pos;
    }
  }
  bool Peek(char* c) {
    SkipWs();
    if (pos >= text.size()) return false;
    *c = text[pos];
    return true;
  }
  bool Consume(char expected) {
    SkipWs();
    if (pos >= text.size() || text[pos] != expected) {
      return Fail(std::string("expected '") + expected + "'");
    }
    ++pos;
    return true;
  }
};

bool ParseValue(JsonCursor* cur, JsonValue* out, int depth);

bool ParseString(JsonCursor* cur, std::string* out) {
  if (!cur->Consume('"')) return false;
  out->clear();
  while (cur->pos < cur->text.size()) {
    char c = cur->text[cur->pos++];
    if (c == '"') return true;
    if (c == '\\') {
      if (cur->pos >= cur->text.size()) return cur->Fail("bad escape");
      char e = cur->text[cur->pos++];
      switch (e) {
        case '"': out->push_back('"'); break;
        case '\\': out->push_back('\\'); break;
        case '/': out->push_back('/'); break;
        case 'n': out->push_back('\n'); break;
        case 't': out->push_back('\t'); break;
        case 'r': out->push_back('\r'); break;
        case 'b': out->push_back('\b'); break;
        case 'f': out->push_back('\f'); break;
        case 'u': {
          if (cur->pos + 4 > cur->text.size()) return cur->Fail("bad \\u");
          // Pass the raw escape through; the tools never emit non-ASCII.
          out->append("\\u");
          out->append(cur->text.substr(cur->pos, 4));
          cur->pos += 4;
          break;
        }
        default: return cur->Fail("bad escape");
      }
    } else {
      out->push_back(c);
    }
  }
  return cur->Fail("unterminated string");
}

bool ParseNumber(JsonCursor* cur, JsonValue* out) {
  const size_t start = cur->pos;
  while (cur->pos < cur->text.size() &&
         (std::isdigit(static_cast<unsigned char>(cur->text[cur->pos])) ||
          std::strchr("+-.eE", cur->text[cur->pos]) != nullptr)) {
    ++cur->pos;
  }
  const std::string token(cur->text.substr(start, cur->pos - start));
  char* end = nullptr;
  out->number = std::strtod(token.c_str(), &end);
  if (end == token.c_str() || *end != '\0') return cur->Fail("bad number");
  out->kind = JsonValue::Kind::kNumber;
  return true;
}

bool ParseLiteral(JsonCursor* cur, const char* lit) {
  const size_t n = std::strlen(lit);
  if (cur->text.substr(cur->pos, n) != lit) return cur->Fail("bad literal");
  cur->pos += n;
  return true;
}

bool ParseValue(JsonCursor* cur, JsonValue* out, int depth) {
  if (depth > 32) return cur->Fail("nesting too deep");
  char c;
  if (!cur->Peek(&c)) return cur->Fail("unexpected end of input");
  switch (c) {
    case '{': {
      cur->Consume('{');
      out->kind = JsonValue::Kind::kObject;
      char next;
      if (cur->Peek(&next) && next == '}') return cur->Consume('}');
      for (;;) {
        std::string key;
        if (!ParseString(cur, &key)) return false;
        if (!cur->Consume(':')) return false;
        auto value = std::make_unique<JsonValue>();
        if (!ParseValue(cur, value.get(), depth + 1)) return false;
        out->object[key] = std::move(value);
        if (!cur->Peek(&next)) return cur->Fail("unterminated object");
        if (next == ',') {
          cur->Consume(',');
          continue;
        }
        return cur->Consume('}');
      }
    }
    case '[': {
      cur->Consume('[');
      out->kind = JsonValue::Kind::kArray;
      char next;
      if (cur->Peek(&next) && next == ']') return cur->Consume(']');
      for (;;) {
        auto value = std::make_unique<JsonValue>();
        if (!ParseValue(cur, value.get(), depth + 1)) return false;
        out->array.push_back(std::move(value));
        if (!cur->Peek(&next)) return cur->Fail("unterminated array");
        if (next == ',') {
          cur->Consume(',');
          continue;
        }
        return cur->Consume(']');
      }
    }
    case '"':
      out->kind = JsonValue::Kind::kString;
      return ParseString(cur, &out->string);
    case 't':
      out->kind = JsonValue::Kind::kBool;
      out->boolean = true;
      return ParseLiteral(cur, "true");
    case 'f':
      out->kind = JsonValue::Kind::kBool;
      out->boolean = false;
      return ParseLiteral(cur, "false");
    case 'n':
      out->kind = JsonValue::Kind::kNull;
      return ParseLiteral(cur, "null");
    default:
      return ParseNumber(cur, out);
  }
}

}  // namespace

bool ParseJson(std::string_view text, JsonValue* out, std::string* error) {
  JsonCursor cur{text, 0, {}};
  if (!ParseValue(&cur, out, 0)) {
    if (error != nullptr) *error = cur.error;
    return false;
  }
  cur.SkipWs();
  if (cur.pos != text.size()) {
    if (error != nullptr) *error = "trailing content";
    return false;
  }
  return true;
}

// ---------------------------------------------------------------------------
// Prometheus exposition validation.

namespace {

bool ValidMetricNameChar(char c, bool first) {
  if (std::isalpha(static_cast<unsigned char>(c)) || c == '_' || c == ':') {
    return true;
  }
  return !first && std::isdigit(static_cast<unsigned char>(c));
}

/// Validates `name{labels} value` sample syntax. Returns false + error.
bool ValidateSampleLine(std::string_view line, std::string* error) {
  size_t i = 0;
  if (line.empty() || !ValidMetricNameChar(line[0], true)) {
    *error = "sample does not start with a metric name";
    return false;
  }
  while (i < line.size() && ValidMetricNameChar(line[i], false)) ++i;
  if (i < line.size() && line[i] == '{') {
    const size_t close = line.find('}', i);
    if (close == std::string_view::npos) {
      *error = "unterminated label block";
      return false;
    }
    // Labels: name="value" pairs, comma-separated; quotes must balance.
    std::string_view body = line.substr(i + 1, close - i - 1);
    size_t quotes = std::count(body.begin(), body.end(), '"');
    if (!body.empty() && (quotes == 0 || quotes % 2 != 0 ||
                          body.find('=') == std::string_view::npos)) {
      *error = "malformed label block";
      return false;
    }
    i = close + 1;
  }
  if (i >= line.size() || line[i] != ' ') {
    *error = "missing space before value";
    return false;
  }
  const std::string value(line.substr(i + 1));
  if (value.empty()) {
    *error = "missing sample value";
    return false;
  }
  char* end = nullptr;
  std::strtod(value.c_str(), &end);
  if (end == value.c_str() || *end != '\0') {
    *error = "sample value is not a number";
    return false;
  }
  return true;
}

}  // namespace

PromValidation ValidatePrometheusText(std::string_view text) {
  PromValidation result;
  size_t line_no = 0;
  size_t pos = 0;
  while (pos <= text.size()) {
    const size_t eol = text.find('\n', pos);
    std::string_view line = text.substr(
        pos, eol == std::string_view::npos ? text.size() - pos : eol - pos);
    ++line_no;
    pos = eol == std::string_view::npos ? text.size() + 1 : eol + 1;
    if (line.empty()) continue;
    if (line[0] == '#') {
      if (line.rfind("# HELP ", 0) == 0) continue;
      if (line.rfind("# TYPE ", 0) == 0) {
        ++result.families;
        const std::string_view rest = line.substr(7);
        const size_t sp = rest.find(' ');
        const std::string_view type =
            sp == std::string_view::npos ? "" : rest.substr(sp + 1);
        if (type != "counter" && type != "gauge" && type != "summary" &&
            type != "histogram" && type != "untyped") {
          result.error = "line " + std::to_string(line_no) +
                         ": unknown TYPE '" + std::string(type) + "'";
          return result;
        }
        continue;
      }
      continue;  // other comments are legal
    }
    std::string error;
    if (!ValidateSampleLine(line, &error)) {
      result.error = "line " + std::to_string(line_no) + ": " + error;
      return result;
    }
    ++result.samples;
  }
  result.ok = true;
  return result;
}

}  // namespace qf::obs
