/**
 * @file
 * ETL pipeline example: load a compressed TPC-H-like lineitem CSV into
 * the mini columnar store twice - CPU-only and with the UDP offloading
 * decompression + parsing - and compare the stage breakdowns
 * (the Figure 1 -> Figure 21 story in one program).  Exits 1 when the
 * two loads' tables differ in any value or dictionary.
 */
#include "etl/loader.hpp"

#include <cstdio>

using namespace udp;
using namespace udp::etl;

/// Column-by-column equality: names, types, values and dictionaries.
bool
same_table(const Table &a, const Table &b)
{
    if (a.num_rows() != b.num_rows() || a.num_cols() != b.num_cols())
        return false;
    for (std::size_t c = 0; c < a.num_cols(); ++c) {
        const Column &x = a.col(c), &y = b.col(c);
        if (x.name != y.name || x.type != y.type || x.ints != y.ints ||
            x.doubles != y.doubles || x.codes != y.codes ||
            x.dict.values != y.dict.values)
            return false;
    }
    return true;
}

int
main()
{
    const double sf = 2.0;
    std::printf("generating lineitem at SF %.1f (%zu rows)...\n", sf,
                static_cast<std::size_t>(sf * kRowsPerScale));
    const std::string csv = lineitem_csv(sf);
    const Bytes comp = compress_for_load(csv);
    std::printf("csv %.2f MB -> compressed %.2f MB\n\n",
                double(csv.size()) / 1e6, double(comp.size()) / 1e6);

    Table cpu_table("lineitem", lineitem_schema());
    const LoadBreakdown cpu = load_cpu(comp, cpu_table);

    Machine m(AddressingMode::Restricted);
    Table udp_table("lineitem", lineitem_schema());
    const LoadBreakdown udp = load_udp_offload(m, comp, udp_table, 32);

    auto show = [](const char *name, const LoadBreakdown &bd) {
        std::printf("%-12s io %.4fs | decompress %.4fs | parse %.4fs | "
                    "deserialize %.4fs | total %.4fs\n",
                    name, bd.io, bd.decompress, bd.parse, bd.deserialize,
                    bd.total_seconds());
    };
    show("CPU only", cpu);
    show("UDP offload", udp);

    const bool same = same_table(cpu_table, udp_table);
    std::printf("\nrows loaded  : %zu (tables identical: %s)\n",
                cpu_table.num_rows(), same ? "yes" : "NO");
    std::printf("table memory : %.2f MB (dictionary-encoded text)\n",
                double(cpu_table.bytes()) / 1e6);
    std::printf("CPU fraction of wall-clock (CPU-only run): %.1f%%\n",
                100 * cpu.cpu_seconds() / cpu.total_seconds());
    std::printf("accelerable work offloaded: %.4fs -> %.4fs (%.1fx)\n",
                cpu.decompress + cpu.parse, udp.decompress + udp.parse,
                (cpu.decompress + cpu.parse) /
                    (udp.decompress + udp.parse));
    return same ? 0 : 1;
}
