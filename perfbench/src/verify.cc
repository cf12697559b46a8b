#include "verify.hh"

#include <functional>

#include "serve/canonical.hh"
#include "serve/json.hh"

namespace perfbench {

using hypar::serve::JsonValue;

namespace {

bool
contains(std::string_view haystack, const std::string &needle)
{
    return haystack.find(needle) != std::string_view::npos;
}

bool
isStats(std::string_view response)
{
    return contains(response, "\"op\":\"stats\"");
}

void
canon(const JsonValue &v, std::string &out)
{
    switch (v.kind()) {
    case JsonValue::Kind::kNull:
        out += "null";
        break;
    case JsonValue::Kind::kBool:
        out += v.asBool() ? "true" : "false";
        break;
    case JsonValue::Kind::kNumber:
        out += hypar::serve::canonicalDouble(v.asNumber());
        break;
    case JsonValue::Kind::kString:
        out += '"' + v.asString() + '"';
        break;
    case JsonValue::Kind::kArray:
        out += '[';
        for (const JsonValue &e : v.asArray()) {
            canon(e, out);
            out += ',';
        }
        out += ']';
        break;
    case JsonValue::Kind::kObject:
        out += '{';
        for (const auto &[key, e] : v.asObject()) {
            out += key + ':';
            canon(e, out);
            out += ',';
        }
        out += '}';
        break;
    }
}

/** The fields a correct planner/simulator must reproduce exactly. */
constexpr const char *kResultFields[] = {
    "ok",       "op",        "plan",      "comm_bytes", "metrics",
    "level",    "evaluated", "best_mask", "best_bits",  "batched",
};

} // namespace

std::string
checkResponse(const Request &expect, std::string_view response)
{
    if (response.rfind("{\"ok\":true,", 0) != 0)
        return "not ok";
    if (!contains(response, "\"op\":\"" + expect.op + "\""))
        return "op is not " + expect.op;
    if (!expect.cache.empty() &&
        !contains(response, "\"cache\":\"" + expect.cache + "\""))
        return "cache state is not " + expect.cache;
    if (expect.certifiedExact && !contains(response, "\"certified_exact\":true"))
        return "plan is not certified exact";
    if (expect.masks != 0 &&
        !contains(response,
                  "\"evaluated\":" + std::to_string(expect.masks) + ","))
        return "sweep did not evaluate " + std::to_string(expect.masks) +
               " masks";
    return {};
}

void
ResultDigest::add(std::string_view response)
{
    if (isStats(response))
        return;
    const JsonValue root = JsonValue::parse(response);
    std::string text;
    for (const char *field : kResultFields)
        if (const JsonValue *v = root.find(field)) {
            text += field;
            text += '=';
            canon(*v, text);
            text += ';';
        }
    if (const JsonValue *search = root.find("search"))
        if (const JsonValue *exact = search->find("certified_exact"))
            text += exact->asBool() ? "exact;" : "inexact;";
    sha_.update(text + "\n");
}

const char *
expectedDigest(Workload workload)
{
    switch (workload) {
    case Workload::kColdPlan:
        return "57d98bbfb05c67dd53ec6d1fef5f9bd69ce3e4df3d8646505238a23f452b0bb2";
    case Workload::kWarmServe:
        return "5d67f6de4c3abe8509f018f64d64b321b2c846412b2b2aecdff0430ca9e8e52d";
    }
    return "";
}

std::uint64_t
responseKey(std::string_view response)
{
    if (isStats(response))
        return 0;
    return std::hash<std::string_view>{}(response);
}

} // namespace perfbench
