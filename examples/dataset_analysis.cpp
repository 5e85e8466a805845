// Dataset service with in-situ analysis scripts (§3.2's composition
// example, in the spirit of Colza/Poesie): a "dataset" component M stores
// dataset metadata in Yokan and bytes in Warabi, and executes analysis
// scripts next to the data through a Poesie dependency — the whole service
// assembled from a single Bedrock configuration across two processes.
//
//   $ ./examples/dataset_analysis
#include "bedrock/client.hpp"
#include "bedrock/process.hpp"
#include "composed/dataset.hpp"
#include "remi/provider.hpp"

#include <cstdio>
#include <cstdlib>

using namespace mochi;
using namespace mochi::composed;

namespace {

/// Stop the walkthrough at the first step that fails.
void check(const Status& st, const char* step) {
    if (st.ok()) return;
    std::fprintf(stderr, "%s failed: %s\n", step, st.error().message.c_str());
    std::exit(1);
}

} // namespace

int main() {
    yokan::register_module();
    warabi::register_module();
    poesie::register_module();
    register_dataset_module();
    auto fabric = mercury::Fabric::create();

    // Storage node: metadata + blobs.
    auto storage = bedrock::Process::spawn(fabric, "sim://storage", *json::Value::parse(R"({
      "libraries": {"yokan": "libyokan.so", "warabi": "libwarabi.so"},
      "providers": [
        {"name": "meta", "type": "yokan", "provider_id": 1,
         "config": {"name": "dataset_metadata"}},
        {"name": "blobs", "type": "warabi", "provider_id": 2}
      ]
    })")).value();

    // Front node: the dataset component + the interpreter, with
    // cross-process dependencies on the storage node.
    auto front = bedrock::Process::spawn(fabric, "sim://front", *json::Value::parse(R"({
      "libraries": {"poesie": "libpoesie.so", "dataset": "libdataset.so"},
      "providers": [
        {"name": "scripting", "type": "poesie", "provider_id": 3},
        {"name": "datasets", "type": "dataset", "provider_id": 10,
         "dependencies": {"meta": "yokan:1@sim://storage",
                           "data": "warabi:2@sim://storage",
                           "script": "scripting"}}
      ]
    })")).value();

    auto app = margo::Instance::create(fabric, "sim://app").value();
    DatasetHandle ds{app, "sim://front", 10};

    std::printf("== ingesting simulation outputs\n");
    check(ds.create("step0/energies", "10 12 9 14 11 13 8 15"), "create");
    check(ds.create("step0/labels", "a b c d e f g h"), "create");
    check(ds.create("step1/energies", "20 22 19 24 21 23 18 25"), "create");
    auto names = ds.list();
    std::printf("   datasets:");
    for (const auto& n : *names) std::printf(" %s", n.c_str());
    std::printf("\n");

    std::printf("== running analysis scripts next to the data (Poesie)\n");
    // Scripts receive $dataset (the content) and $name; this one parses the
    // space-separated values and computes simple statistics.
    const char* stats_script = R"(
        $values = [];
        $current = "";
        $i = 0;
        while ($i <= count($dataset)) {
            $c = "";
            if ($i < count($dataset)) { $c = $dataset[$i]; }
            if ($c == " " || $i == count($dataset)) {
                if ($current != "") { array_push($values, int($current)); }
                $current = "";
            } else {
                $current = $current + $c;
            }
            $i = $i + 1;
        }
        $sum = 0;
        $mx = $values[0];
        $mn = $values[0];
        foreach ($values as $v) {
            $sum = $sum + $v;
            $mx = max($mx, $v);
            $mn = min($mn, $v);
        }
        return {"name" => $name, "count" => count($values),
                 "sum" => $sum, "min" => $mn, "max" => $mx};
    )";
    for (const char* name : {"step0/energies", "step1/energies"}) {
        auto r = ds.run_script(name, stats_script);
        if (!r) {
            std::fprintf(stderr, "script failed: %s\n", r.error().message.c_str());
            return 1;
        }
        std::printf("   %-18s count=%lld sum=%lld min=%lld max=%lld\n",
                    (*r)["name"].as_string().c_str(),
                    static_cast<long long>((*r)["count"].as_integer()),
                    static_cast<long long>((*r)["sum"].as_integer()),
                    static_cast<long long>((*r)["min"].as_integer()),
                    static_cast<long long>((*r)["max"].as_integer()));
    }

    std::printf("== the full service composition, from the live config (Jx9):\n");
    bedrock::Client bc{app};
    auto deps = bc.makeServiceHandle("sim://front").queryConfig(R"(
        $out = [];
        foreach ($__config__.providers as $p) {
            if (contains($p, "resolved_dependencies")) {
                foreach ($p.resolved_dependencies as $d) {
                    array_push($out, $p.name + " -> " + $d);
                }
            }
        }
        return $out;
    )");
    for (const auto& edge : deps->as_array()) std::printf("   %s\n", edge.as_string().c_str());

    app->shutdown();
    front->shutdown();
    storage->shutdown();
    std::printf("== done\n");
    return 0;
}
