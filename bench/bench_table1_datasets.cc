// Table I: statistics of the (simulated) benchmarks.
//
// Paper reference (original crawled datasets):
//   TwiBot-20: 229,580 users / 227,979 edges / 2 relations
//   TwiBot-22: 1,000,000 users / 3,743,634 edges / 2 relations
//   MGTAB:     10,199 users / 1,700,108 edges / 7 relations
// Our simulants preserve class imbalance, relation counts and the relative
// density ordering at reduced scale.
#include "bench_common.h"

using namespace bsg;
using namespace bsg::bench;

namespace {

void AddRow(TablePrinter* t, const HeteroGraph& g) {
  t->AddRow({g.name, std::to_string(g.num_nodes),
             std::to_string(g.NumHumans()), std::to_string(g.NumBots()),
             std::to_string(g.TotalEdges()),
             std::to_string(g.num_relations())});
}

}  // namespace

int main() {
  PrintHeader("Table I: statistics of benchmarks (simulated)");
  TablePrinter t({"Benchmark", "# users", "# human", "# bot", "# edges",
                  "# relations"});
  AddRow(&t, Graph20());
  AddRow(&t, Graph22());
  AddRow(&t, GraphMgtab());
  std::printf("%s\n", t.ToString().c_str());
  std::printf("Paper-scale originals: TwiBot-20 229,580u/2rel; "
              "TwiBot-22 1,000,000u (14.0%% bots)/2rel; MGTAB 10,199u/7rel.\n"
              "Simulants preserve class imbalance and relation structure at "
              "laptop scale.\n");
  return 0;
}
