/**
 * @file
 * Unit tests for the per-set channel telemetry monitor
 * (memory/set_monitor.hh): counter recording, actor attribution,
 * watched-line ground truth, heatmap rolling/truncation, the CSV/JSON
 * exports, and the hierarchy integration behind armSetMonitor().
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "common/json.hh"
#include "memory/hierarchy.hh"
#include "memory/set_monitor.hh"

namespace csd
{
namespace
{

using minijson::parseJson;
using Structure = CacheSetMonitor::Structure;

TEST(SetMonitor, StructureNames)
{
    EXPECT_STREQ(CacheSetMonitor::structureName(Structure::L1I), "l1i");
    EXPECT_STREQ(CacheSetMonitor::structureName(Structure::L1D), "l1d");
    EXPECT_STREQ(CacheSetMonitor::structureName(Structure::UopCache),
                 "uop_cache");
}

TEST(SetMonitor, AttachAndCounters)
{
    CacheSetMonitor monitor;
    EXPECT_FALSE(monitor.attached(Structure::L1D));
    monitor.attach(Structure::L1D, 8);
    ASSERT_TRUE(monitor.attached(Structure::L1D));
    ASSERT_EQ(monitor.counters(Structure::L1D).size(), 8u);

    monitor.recordAccess(Structure::L1D, 3, 0xc0, /*miss=*/true);
    monitor.recordAccess(Structure::L1D, 3, 0xc0, /*miss=*/false);
    monitor.recordAccess(Structure::L1D, 5, 0x140, /*miss=*/true);
    monitor.recordEviction(Structure::L1D, 3);
    monitor.recordInvalidation(Structure::L1D, 5);

    const auto &sets = monitor.counters(Structure::L1D);
    EXPECT_EQ(sets[3].accesses, 2u);
    EXPECT_EQ(sets[3].misses, 1u);
    EXPECT_EQ(sets[3].evictions, 1u);
    EXPECT_EQ(sets[3].invalidations, 0u);
    EXPECT_EQ(sets[5].accesses, 1u);
    EXPECT_EQ(sets[5].invalidations, 1u);
    EXPECT_EQ(sets[0].accesses, 0u);
    EXPECT_EQ(monitor.events(Structure::L1D), 3u);

    // Recording against a structure that was never attached is a no-op
    // (the disarmed-by-default contract), not an error.
    monitor.recordAccess(Structure::L1I, 0, 0x0, true);
    monitor.recordEviction(Structure::L1I, 0);
    EXPECT_EQ(monitor.events(Structure::L1I), 0u);

    // Re-attaching with the same geometry keeps the counters.
    monitor.attach(Structure::L1D, 8);
    EXPECT_EQ(monitor.counters(Structure::L1D)[3].accesses, 2u);
}

TEST(SetMonitor, ActorAttributionAndScopedActorNesting)
{
    CacheSetMonitor monitor;
    monitor.attach(Structure::L1D, 4);

    EXPECT_EQ(monitor.actor(), MonitorActor::None);
    monitor.recordAccess(Structure::L1D, 1, 0x40, false);
    {
        CacheSetMonitor::ScopedActor victim(&monitor, MonitorActor::Victim);
        EXPECT_EQ(monitor.actor(), MonitorActor::Victim);
        monitor.recordAccess(Structure::L1D, 1, 0x40, false);
        {
            CacheSetMonitor::ScopedActor attacker(&monitor,
                                                  MonitorActor::Attacker);
            EXPECT_EQ(monitor.actor(), MonitorActor::Attacker);
            monitor.recordAccess(Structure::L1D, 1, 0x40, false);
        }
        // Nested scope restores the enclosing actor, not None.
        EXPECT_EQ(monitor.actor(), MonitorActor::Victim);
        monitor.recordAccess(Structure::L1D, 1, 0x40, false);
    }
    EXPECT_EQ(monitor.actor(), MonitorActor::None);

    // 4 accesses total, exactly the 2 victim-scoped ones attributed.
    EXPECT_EQ(monitor.counters(Structure::L1D)[1].accesses, 4u);
    EXPECT_EQ(monitor.counters(Structure::L1D)[1].victimAccesses, 2u);
    EXPECT_EQ(monitor.victimSetTouches(Structure::L1D, 1), 2u);
    EXPECT_EQ(monitor.victimSetTouches(Structure::L1D, 0), 0u);
    // Out-of-range set queries answer 0 instead of faulting.
    EXPECT_EQ(monitor.victimSetTouches(Structure::L1D, 99), 0u);

    // A null monitor is a safe no-op scope (disarmed hot path).
    CacheSetMonitor::ScopedActor noop(nullptr, MonitorActor::Victim);
}

TEST(SetMonitor, WatchLineCountsAlignedVictimTouches)
{
    CacheSetMonitor monitor;
    monitor.attach(Structure::L1I, 4);

    // Watching a mid-block address watches the whole block.
    const Addr line = 0x1000;
    monitor.watchLine(Structure::L1I, line + 17);
    EXPECT_EQ(monitor.victimLineTouches(Structure::L1I, line), 0u);

    CacheSetMonitor::ScopedActor victim(&monitor, MonitorActor::Victim);
    monitor.recordAccess(Structure::L1I, 0, line, true);
    monitor.recordAccess(Structure::L1I, 0, line + 32, false);
    // A different block in the same set is not a watched-line touch.
    monitor.recordAccess(Structure::L1I, 0, line + 0x4000, false);
    EXPECT_EQ(monitor.victimLineTouches(Structure::L1I, line + 5), 2u);

    // Attacker and unattributed touches never count as ground truth.
    {
        CacheSetMonitor::ScopedActor attacker(&monitor,
                                              MonitorActor::Attacker);
        monitor.recordAccess(Structure::L1I, 0, line, false);
    }
    {
        CacheSetMonitor::ScopedActor none(&monitor, MonitorActor::None);
        monitor.recordAccess(Structure::L1I, 0, line, false);
    }
    EXPECT_EQ(monitor.victimLineTouches(Structure::L1I, line), 2u);

    // Re-watching is idempotent: the touch count survives.
    monitor.watchLine(Structure::L1I, line);
    EXPECT_EQ(monitor.victimLineTouches(Structure::L1I, line), 2u);

    // Unwatched lines read 0.
    EXPECT_EQ(monitor.victimLineTouches(Structure::L1I, 0x9000), 0u);
}

TEST(SetMonitor, HeatmapRowsRollAtInterval)
{
    SetMonitorConfig config;
    config.heatmapInterval = 4;
    CacheSetMonitor monitor(config);
    monitor.attach(Structure::L1D, 2);

    // 10 events: two full rows of 4 plus a partial row of 2.
    for (int i = 0; i < 10; ++i)
        monitor.recordAccess(Structure::L1D, i % 2 ? 1u : 0u, 0x40u * i,
                             false);

    const auto &rows = monitor.heatmap(Structure::L1D);
    ASSERT_EQ(rows.size(), 2u);
    for (const auto &row : rows) {
        ASSERT_EQ(row.size(), 2u);
        EXPECT_EQ(row[0] + row[1], 4u);
    }

    // The CSV includes the trailing partial interval as a final row.
    std::ostringstream os;
    monitor.writeHeatmapCsv(os, Structure::L1D);
    const std::string csv = os.str();
    EXPECT_NE(csv.find("structure=l1d sets=2 interval_events=4 events=10"),
              std::string::npos);
    EXPECT_EQ(csv.find("truncated"), std::string::npos);
    EXPECT_NE(csv.find("interval,set0,set1\n"), std::string::npos);
    std::size_t data_rows = 0;
    std::istringstream lines(csv);
    std::string ln;
    while (std::getline(lines, ln))
        if (!ln.empty() && ln[0] != '#' && ln[0] != 'i')
            ++data_rows;
    EXPECT_EQ(data_rows, 3u);
}

TEST(SetMonitor, HeatmapTruncationCapsRows)
{
    SetMonitorConfig config;
    config.heatmapInterval = 1;
    config.maxHeatmapRows = 2;
    CacheSetMonitor monitor(config);
    monitor.attach(Structure::L1D, 1);

    for (int i = 0; i < 5; ++i)
        monitor.recordAccess(Structure::L1D, 0, 0, false);

    // Counters keep counting past the cap; the series stops at it.
    EXPECT_EQ(monitor.events(Structure::L1D), 5u);
    EXPECT_EQ(monitor.heatmap(Structure::L1D).size(), 2u);

    std::ostringstream os;
    monitor.writeHeatmapCsv(os, Structure::L1D);
    EXPECT_NE(os.str().find("truncated=1"), std::string::npos);
}

TEST(SetMonitor, JsonExportParses)
{
    CacheSetMonitor monitor;
    monitor.attach(Structure::L1D, 4);
    monitor.watchLine(Structure::L1D, 0x80);
    {
        CacheSetMonitor::ScopedActor victim(&monitor, MonitorActor::Victim);
        monitor.recordAccess(Structure::L1D, 2, 0x80, true);
    }
    monitor.recordAccess(Structure::L1D, 2, 0x80, false);

    std::ostringstream os;
    monitor.writeJson(os);
    const auto doc = parseJson(os.str());
    EXPECT_EQ(doc->at("schema_version").number, 1.0);
    const auto &l1d = doc->at("structures").at("l1d");
    EXPECT_EQ(l1d.at("sets").number, 4.0);
    EXPECT_EQ(l1d.at("events").number, 2.0);
    EXPECT_EQ(l1d.at("accesses").at(2).number, 2.0);
    EXPECT_EQ(l1d.at("misses").at(2).number, 1.0);
    EXPECT_EQ(l1d.at("victim_accesses").at(2).number, 1.0);
    EXPECT_EQ(l1d.at("watched_lines").at("0x80").number, 1.0);
    // Unattached structures are omitted entirely.
    EXPECT_FALSE(doc->at("structures").has("l1i"));
}

TEST(SetMonitor, ExportFilesWritesCsvPerStructurePlusJson)
{
    CacheSetMonitor monitor;
    monitor.attach(Structure::L1I, 2);
    monitor.attach(Structure::L1D, 2);
    monitor.recordAccess(Structure::L1I, 0, 0, true);

    const std::string base = ::testing::TempDir() + "/csd_setmon_export";
    const std::vector<std::string> written = monitor.exportFiles(base);
    ASSERT_EQ(written.size(), 3u);
    EXPECT_EQ(written[0], base + ".l1i.csv");
    EXPECT_EQ(written[1], base + ".l1d.csv");
    EXPECT_EQ(written[2], base + ".json");
    for (const std::string &path : written) {
        std::ifstream in(path);
        EXPECT_TRUE(in.good()) << path;
        std::remove(path.c_str());
    }
}

/**
 * The shipping integration: MemHierarchy::armSetMonitor attaches the
 * L1I and L1D, mirrors demand traffic into the monitor, and stays
 * idempotent (the second arm keeps the first monitor and counters).
 */
TEST(SetMonitor, HierarchyIntegrationMirrorsAccesses)
{
    MemHierarchy mem;
    EXPECT_EQ(mem.setMonitor(), nullptr);
    CacheSetMonitor &monitor = mem.armSetMonitor();
    ASSERT_EQ(mem.setMonitor(), &monitor);
    EXPECT_TRUE(monitor.attached(Structure::L1I));
    EXPECT_TRUE(monitor.attached(Structure::L1D));
    EXPECT_EQ(monitor.counters(Structure::L1D).size(),
              mem.l1d().numSets());

    const Addr addr = 0x2040;
    const unsigned set = mem.l1d().setIndex(addr);
    {
        CacheSetMonitor::ScopedActor victim(&monitor, MonitorActor::Victim);
        mem.readData(addr);   // cold miss
    }
    mem.readData(addr);       // hit, unattributed
    mem.flush(addr);          // invalidation

    const auto &counters = monitor.counters(Structure::L1D)[set];
    EXPECT_EQ(counters.accesses, 2u);
    EXPECT_EQ(counters.misses, 1u);
    EXPECT_EQ(counters.victimAccesses, 1u);
    EXPECT_EQ(counters.invalidations, 1u);
    EXPECT_EQ(monitor.victimSetTouches(Structure::L1D, set), 1u);

    // An instruction fetch lands on the L1I side, not the L1D side.
    mem.fetchInstr(0x400000);
    EXPECT_EQ(monitor.events(Structure::L1I), 1u);

    CacheSetMonitor &again = mem.armSetMonitor();
    EXPECT_EQ(&again, &monitor);
    EXPECT_EQ(monitor.counters(Structure::L1D)[set].accesses, 2u);
}

} // namespace
} // namespace csd
