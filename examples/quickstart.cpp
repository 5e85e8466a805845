// Quickstart: bootstrap a Mochi service from a Listing-3-style Bedrock
// configuration, talk to its Yokan provider, reconfigure it online
// (Listing 5), query it with Jx9 (Listing 4) and inspect the Margo
// monitoring statistics (Listing 1).
//
//   $ ./examples/quickstart
#include "bedrock/client.hpp"
#include "bedrock/process.hpp"
#include "remi/provider.hpp"
#include "yokan/provider.hpp"

#include <cstdio>
#include <cstdlib>

using namespace mochi;

namespace {

/// Stop the walkthrough at the first step that fails.
void check(const Status& st, const char* step) {
    if (st.ok()) return;
    std::fprintf(stderr, "%s failed: %s\n", step, st.error().message.c_str());
    std::exit(1);
}

} // namespace

int main() {
    // Components register their Bedrock modules ("shared libraries").
    yokan::register_module();
    remi::register_module();

    // One simulated network; one service process bootstrapped from JSON.
    auto fabric = mercury::Fabric::create();
    auto config = json::Value::parse(R"({
      "margo": {
        "argobots": {
          "pools": [
            {"name": "__primary__", "type": "fifo_wait", "access": "mpmc"},
            {"name": "MyPoolX", "type": "fifo_wait", "access": "mpmc"}
          ],
          "xstreams": [
            {"name": "__primary__", "scheduler": {"type": "basic_wait", "pools": ["__primary__"]}},
            {"name": "MyES0", "scheduler": {"type": "basic", "pools": ["MyPoolX"]}}
          ]
        }
      },
      "libraries": {"yokan": "libyokan.so", "remi": "libremi.so"},
      "providers": [
        {"name": "remi", "type": "remi", "provider_id": 1},
        {"name": "myDatabase", "type": "yokan", "provider_id": 42,
         "pool": "MyPoolX",
         "config": {"name": "quickstart_db", "backend": "map"},
         "dependencies": {"remi": "remi"}}
      ]
    })").value();

    auto server = bedrock::Process::spawn(fabric, "sim://server", config);
    if (!server) {
        std::fprintf(stderr, "bootstrap failed: %s\n", server.error().message.c_str());
        return 1;
    }
    std::printf("== bootstrapped %s with providers:", (*server)->address().c_str());
    for (const auto& name : (*server)->provider_names()) std::printf(" %s", name.c_str());
    std::printf("\n");

    // A client process with its own Margo runtime.
    auto client = margo::Instance::create(fabric, "sim://client").value();

    // Use the Yokan database through its resource handle (Figure 1).
    yokan::Database db{client, "sim://server", 42};
    check(db.put("mochi", "dynamic"), "put");
    check(db.put("margo", "runtime"), "put");
    check(db.put("bedrock", "bootstrap"), "put");
    std::printf("== db contains %llu keys; mochi -> %s\n",
                static_cast<unsigned long long>(db.count().value()),
                db.get("mochi")->c_str());

    // Online reconfiguration through Bedrock's client API (Listing 5).
    bedrock::Client bc{client};
    auto p = bc.makeServiceHandle("sim://server");
    check(p.addPool(json::Value::parse(R"({"name": "ExtraPool", "type": "fifo_wait"})").value()),
          "addPool");
    check(p.addXstream(json::Value::parse(
                           R"({"name": "ExtraES", "scheduler": {"pools": ["ExtraPool"]}})")
                           .value()),
          "addXstream");
    std::printf("== added ExtraPool + ExtraES at run time\n");

    // Query the live configuration with Jx9 (Listing 4, verbatim).
    auto names = p.queryConfig(R"(
        $result = [];
        foreach ($__config__.providers as $p) {
            array_push($result, $p.name); }
        return $result;
    )");
    std::printf("== jx9 provider query: %s\n", names->dump().c_str());
    auto pools = p.queryConfig(R"(
        $out = [];
        foreach ($__config__.margo.argobots.pools as $pl) { array_push($out, $pl.name); }
        return $out;
    )");
    std::printf("== jx9 pool query: %s\n", pools->dump().c_str());

    // Monitoring statistics (Listing 1): available at run time, at no
    // engineering cost to the Yokan component.
    auto stats = (*server)->margo_instance()->monitoring_json();
    std::printf("== server monitoring statistics (Listing 1 shape):\n%s\n",
                stats.dump(2).c_str());

    client->shutdown();
    (*server)->shutdown();
    std::printf("== done\n");
    return 0;
}
