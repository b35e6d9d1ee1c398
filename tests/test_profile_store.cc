/**
 * @file
 * The parallel profile pipeline: buildSuite() determinism vs a
 * serial baseline (mirroring test_sweep.cc's contract), the
 * content-addressed ProfileStore (round trip, fingerprint
 * addressing, corrupt/truncated-entry quarantine, fault injection),
 * incremental invalidation, and reference stability while the suite
 * loads from a warm store.
 */

#include <cstdio>
#include <cstring>
#include <string>
#include <sys/stat.h>
#include <unistd.h>
#include <vector>

#include <gtest/gtest.h>

#include "trace/phase_profile.hh"
#include "trace/profile_store.hh"
#include "trace/profiler.hh"
#include "trace/workload.hh"
#include "util/binio.hh"
#include "util/fault.hh"

namespace gpm
{
namespace
{

/** Tiny scale so a full suite build stays in test time. */
constexpr double kScale = 0.002;

bool
identical(const WorkloadProfile &a, const WorkloadProfile &b)
{
    if (a.name != b.name || a.modes.size() != b.modes.size())
        return false;
    for (std::size_t m = 0; m < a.modes.size(); m++) {
        const ModeProfile &x = a.modes[m], &y = b.modes[m];
        if (x.chunkInsts != y.chunkInsts ||
            x.lastChunkInsts != y.lastChunkInsts ||
            x.numChunks() != y.numChunks())
            return false;
        const std::size_t n = x.numChunks();
        if (std::memcmp(x.timePs.data(), y.timePs.data(),
                        n * sizeof(double)) != 0 ||
            std::memcmp(x.energyJ.data(), y.energyJ.data(),
                        n * sizeof(double)) != 0 ||
            std::memcmp(x.l2Accesses.data(), y.l2Accesses.data(),
                        n * sizeof(std::uint32_t)) != 0 ||
            std::memcmp(x.l2Misses.data(), y.l2Misses.data(),
                        n * sizeof(std::uint32_t)) != 0)
            return false;
    }
    return true;
}

class ProfileStoreTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        fault::disarm();
        char tmpl[] = "/tmp/gpm_profile_store_XXXXXX";
        ASSERT_NE(::mkdtemp(tmpl), nullptr);
        dir = tmpl;
        dvfs = DvfsTable::classic3();
    }

    void
    TearDown() override
    {
        fault::disarm();
        std::string cmd = "rm -rf " + dir;
        ASSERT_EQ(std::system(cmd.c_str()), 0);
    }

    /** A small profile built directly (one workload, full modes). */
    WorkloadProfile
    buildOne(const std::string &name)
    {
        Profiler profiler(dvfs);
        return profiler.profileWorkload(workload(name), kScale);
    }

    /** Delete @p w's entry for @p lib from the store directory. */
    bool
    dropEntry(const ProfileLibrary &lib, const WorkloadSpec &w)
    {
        ProfileStore probe(dir);
        return ::unlink(probe.pathFor(w.name, lib.workloadFingerprint(w))
                            .c_str()) == 0;
    }

    std::string dir;
    DvfsTable dvfs = DvfsTable::classic3();
};

TEST_F(ProfileStoreTest, ParallelBuildMatchesSerialBaseline)
{
    // Serial reference: the profiles built one workload at a time.
    ProfileLibrary serial(dvfs, kScale);
    serial.buildSuite(1);

    for (std::size_t threads : {1u, 2u, 4u, 8u}) {
        ProfileLibrary lib(dvfs, kScale);
        lib.buildSuite(threads);
        for (const auto &w : spec2000Suite())
            EXPECT_TRUE(
                identical(lib.get(w.name), serial.get(w.name)))
                << w.name << " diverged at concurrency " << threads;
    }
}

TEST_F(ProfileStoreTest, StoreRoundTrip)
{
    WorkloadProfile p = buildOne("mcf");
    ProfileStore store(dir);
    ASSERT_TRUE(store.save("mcf", 0x1234, p));

    WorkloadProfile q;
    ASSERT_TRUE(store.load("mcf", 0x1234, q));
    EXPECT_TRUE(identical(p, q));
    EXPECT_EQ(store.stats().hits, 1u);
}

/** The entry file's bytes ("" when it cannot be read). */
std::string
entryBytes(const ProfileStore &store, const std::string &name,
           std::uint64_t fp)
{
    std::string raw;
    return binio::readWholeFile(store.pathFor(name, fp), raw) ? raw : "";
}

TEST_F(ProfileStoreTest, DecodeThenEncodeIsByteIdentical)
{
    WorkloadProfile p = buildOne("art");
    ProfileStore first(dir + "/first");
    ASSERT_TRUE(first.save("art", 0x1234, p));
    const std::string written = entryBytes(first, "art", 0x1234);
    ASSERT_FALSE(written.empty());

    WorkloadProfile decoded;
    ASSERT_TRUE(first.load("art", 0x1234, decoded));
    ProfileStore second(dir + "/second");
    ASSERT_TRUE(second.save("art", 0x1234, decoded));
    EXPECT_EQ(entryBytes(second, "art", 0x1234), written);
}

/**
 * An entry laid out by hand as the format defines it: the payload
 * header, then each mode's ChunkRecords as one raw array, framed.
 * This is the layout every earlier store wrote. @p patch may edit
 * the records before they are written.
 */
std::string
recordArrayEntry(const WorkloadProfile &p,
                 void (*patch)(std::vector<ChunkRecord> &) = nullptr)
{
    std::string payload;
    binio::putLe(payload, p.name.size(), 4);
    payload += p.name;
    binio::putLe(payload, p.modes.size(), 4);
    for (const ModeProfile &mp : p.modes) {
        binio::putLe(payload, mp.chunkInsts, 8);
        binio::putLe(payload, mp.lastChunkInsts, 8);
        binio::putLe(payload, mp.numChunks(), 4);
        std::vector<ChunkRecord> records;
        for (std::size_t i = 0; i < mp.numChunks(); i++)
            records.push_back(mp.chunk(i));
        if (patch)
            patch(records);
        payload.append(reinterpret_cast<const char *>(records.data()),
                       records.size() * sizeof(ChunkRecord));
    }
    const char magic[8] = {'G', 'P', 'M', 'P', 'R', 'O', 'F', '1'};
    return binio::frame(magic, payload);
}

TEST_F(ProfileStoreTest, RecordArrayEntryLoadsWithoutBuild)
{
    // Such an entry must load without a build, equal the profile it
    // was made from, and be written back byte for byte.
    WorkloadProfile p = buildOne("art");
    const std::string entry = recordArrayEntry(p);
    ProfileLibrary lib(dvfs, kScale);
    lib.attachStore(dir);
    ProfileStore store(dir);
    const std::uint64_t fp = lib.workloadFingerprint(workload("art"));
    ASSERT_TRUE(binio::writeFileAtomic(store.pathFor("art", fp), entry));

    EXPECT_TRUE(identical(lib.get("art"), p));
    EXPECT_EQ(lib.stats().builds, 0u);
    EXPECT_EQ(lib.stats().diskHits, 1u);
    ASSERT_TRUE(store.save("art", fp, lib.get("art")));
    EXPECT_EQ(entryBytes(store, "art", fp), entry);
}

TEST_F(ProfileStoreTest, ChunkTimeBeyondExactDoubleQuarantined)
{
    // A chunk time a double cannot hold exactly is refused at load,
    // even inside a well-formed frame.
    WorkloadProfile p = buildOne("art");
    ProfileStore store(dir);
    ASSERT_TRUE(binio::writeFileAtomic(
        store.pathFor("art", 0x1234),
        recordArrayEntry(p, [](std::vector<ChunkRecord> &r) {
            r.back().timePs = ModeProfile::maxTimePs;
        })));
    WorkloadProfile q;
    EXPECT_FALSE(store.load("art", 0x1234, q));
    EXPECT_EQ(store.stats().quarantined, 1u);
}

TEST_F(ProfileStoreTest, FingerprintAddressesEntries)
{
    WorkloadProfile p = buildOne("mcf");
    ProfileStore store(dir);
    ASSERT_TRUE(store.save("mcf", 0x1234, p));

    WorkloadProfile q;
    // A different fingerprint is a different entry: miss, and the
    // existing entry is left untouched (no quarantine).
    EXPECT_FALSE(store.load("mcf", 0x9999, q));
    EXPECT_EQ(store.stats().misses, 1u);
    EXPECT_EQ(store.stats().quarantined, 0u);
    EXPECT_TRUE(store.load("mcf", 0x1234, q));
}

TEST_F(ProfileStoreTest, TruncatedEntryQuarantined)
{
    WorkloadProfile p = buildOne("mcf");
    ProfileStore store(dir);
    ASSERT_TRUE(store.save("mcf", 7, p));
    std::string path = store.pathFor("mcf", 7);

    struct stat st;
    ASSERT_EQ(::stat(path.c_str(), &st), 0);
    ASSERT_EQ(::truncate(path.c_str(), st.st_size / 2), 0);

    WorkloadProfile q;
    EXPECT_FALSE(store.load("mcf", 7, q));
    EXPECT_EQ(store.stats().quarantined, 1u);
    // The entry was set aside, not deleted, for postmortems...
    struct stat aside;
    EXPECT_EQ(::stat((path + ".corrupt").c_str(), &aside), 0);
    // ...and the slot is clean: a rebuilt profile saves and loads.
    ASSERT_TRUE(store.save("mcf", 7, p));
    EXPECT_TRUE(store.load("mcf", 7, q));
    EXPECT_TRUE(identical(p, q));
}

TEST_F(ProfileStoreTest, FlippedByteQuarantined)
{
    WorkloadProfile p = buildOne("mcf");
    ProfileStore store(dir);
    ASSERT_TRUE(store.save("mcf", 7, p));
    std::string path = store.pathFor("mcf", 7);

    // Flip one payload byte; the CRC catches it.
    std::FILE *f = std::fopen(path.c_str(), "r+b");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fseek(f, 64, SEEK_SET), 0);
    int c = std::fgetc(f);
    ASSERT_EQ(std::fseek(f, 64, SEEK_SET), 0);
    std::fputc(c ^ 0xff, f);
    std::fclose(f);

    WorkloadProfile q;
    EXPECT_FALSE(store.load("mcf", 7, q));
    EXPECT_EQ(store.stats().quarantined, 1u);
}

TEST_F(ProfileStoreTest, ReadCorruptFaultQuarantinesAndRebuilds)
{
    ProfileLibrary lib(dvfs, kScale);
    lib.attachStore(dir);
    const WorkloadProfile &built = lib.get("mcf");
    ASSERT_EQ(lib.stats().builds, 1u);

    // Every read sees an (injected) corrupt entry: a fresh library
    // quarantines it and rebuilds from scratch...
    ASSERT_FALSE(fault::arm("profile-read-corrupt:1,seed:1"));
    ProfileLibrary lib2(dvfs, kScale);
    lib2.attachStore(dir);
    const WorkloadProfile &rebuilt = lib2.get("mcf");
    EXPECT_GE(fault::fires(fault::Point::ProfileReadCorrupt), 1u);
    fault::disarm();

    ProfileLibraryStats st = lib2.stats();
    EXPECT_EQ(st.builds, 1u);
    EXPECT_EQ(st.diskHits, 0u);
    EXPECT_EQ(st.storeQuarantined, 1u);
    // ...bitwise-identical (the build is deterministic), and the
    // rebuild re-persisted it: a third library loads from disk.
    EXPECT_TRUE(identical(built, rebuilt));
    ProfileLibrary lib3(dvfs, kScale);
    lib3.attachStore(dir);
    lib3.get("mcf");
    EXPECT_EQ(lib3.stats().diskHits, 1u);
    EXPECT_EQ(lib3.stats().builds, 0u);
}

TEST_F(ProfileStoreTest, WriteFailFaultMeansRebuildNextStart)
{
    ASSERT_FALSE(fault::arm("profile-write-fail:1,seed:1"));
    ProfileLibrary lib(dvfs, kScale);
    lib.attachStore(dir);
    lib.get("mcf");
    EXPECT_GE(fault::fires(fault::Point::ProfileWriteFail), 1u);
    EXPECT_EQ(lib.stats().storeWriteFailures, 1u);
    fault::disarm();

    // Nothing persisted: the next cold start builds again, and with
    // the fault gone the entry lands on disk this time.
    ProfileLibrary lib2(dvfs, kScale);
    lib2.attachStore(dir);
    lib2.get("mcf");
    EXPECT_EQ(lib2.stats().builds, 1u);
    ProfileLibrary lib3(dvfs, kScale);
    lib3.attachStore(dir);
    lib3.get("mcf");
    EXPECT_EQ(lib3.stats().diskHits, 1u);
}

TEST_F(ProfileStoreTest, WarmStartBuildsNothing)
{
    {
        ProfileLibrary lib(dvfs, kScale);
        lib.attachStore(dir);
        lib.buildSuite(2);
        EXPECT_EQ(lib.stats().builds, spec2000Suite().size());
    }
    ProfileLibrary warm(dvfs, kScale);
    warm.attachStore(dir);
    warm.buildSuite(2);
    ProfileLibraryStats st = warm.stats();
    EXPECT_EQ(st.builds, 0u);
    EXPECT_EQ(st.diskHits, spec2000Suite().size());
    EXPECT_EQ(st.ready, spec2000Suite().size());
}

TEST_F(ProfileStoreTest, InvalidatingOneEntryRebuildsOnlyIt)
{
    {
        ProfileLibrary lib(dvfs, kScale);
        lib.attachStore(dir);
        lib.buildSuite(2);
    }
    const WorkloadSpec &victim = spec2000Suite().front();
    ProfileLibrary lib(dvfs, kScale);
    lib.attachStore(dir);
    ASSERT_TRUE(dropEntry(lib, victim));
    lib.buildSuite(2);
    ProfileLibraryStats st = lib.stats();
    EXPECT_EQ(st.builds, 1u);
    EXPECT_EQ(st.diskHits, spec2000Suite().size() - 1);
}

TEST_F(ProfileStoreTest, ScaleChangesWorkloadFingerprint)
{
    ProfileLibrary a(dvfs, 0.002), b(dvfs, 0.002), c(dvfs, 0.004);
    const WorkloadSpec &w = spec2000Suite().front();
    EXPECT_EQ(a.workloadFingerprint(w), b.workloadFingerprint(w));
    EXPECT_NE(a.workloadFingerprint(w), c.workloadFingerprint(w));
    // Distinct workloads address distinct entries.
    EXPECT_NE(a.workloadFingerprint(spec2000Suite()[0]),
              a.workloadFingerprint(spec2000Suite()[1]));
}

TEST_F(ProfileStoreTest, WarmBuildSuiteKeepsEarlierReferences)
{
    // gpmd prewarms buildSuite() on a background thread while get()
    // serves: loading the suite from the store must fill in the
    // missing slots, never replace one a caller already holds.
    {
        ProfileLibrary lib(dvfs, kScale);
        lib.attachStore(dir);
        lib.buildSuite(2);
    }
    ProfileLibrary lib(dvfs, kScale);
    lib.attachStore(dir);
    const WorkloadSpec &held = spec2000Suite().front();
    ASSERT_TRUE(dropEntry(lib, held));
    const WorkloadProfile *ref = &lib.get(held.name);
    std::uint64_t insts = ref->at(modes::Turbo).totalInsts();
    lib.buildSuite(2);
    // The earlier Ready slot survives by address and content...
    EXPECT_EQ(ref, &lib.get(held.name));
    EXPECT_EQ(ref->at(modes::Turbo).totalInsts(), insts);
    // ...and every other profile came from disk.
    ProfileLibraryStats st = lib.stats();
    EXPECT_EQ(st.builds, 1u);
    EXPECT_EQ(st.diskHits, spec2000Suite().size() - 1);
}

TEST_F(ProfileStoreTest, BuildSuiteLeavesNoTempFiles)
{
    // Store writes go temp + rename: after a build every entry is
    // at its final path and no temp file is left behind.
    ProfileLibrary lib(dvfs, kScale);
    lib.attachStore(dir);
    lib.buildSuite(2);
    std::string cmd =
        "ls " + dir + " | grep -q '\\.tmp\\.' && exit 1 || exit 0";
    EXPECT_EQ(std::system(cmd.c_str()), 0);
}

} // namespace
} // namespace gpm
